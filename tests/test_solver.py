import ctypes
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavelab.core import (
    ONE, Grid, RiemannState, arctan_damping, bump_profile, constant_profile,
    cubic_damping, identity_damping, indicator_profile, nonmonotone_example,
    saturating_damping, signed_power, sine_profile, smooth_indicator_profile,
    zero_function, zero_profile, NONLINEARITIES, Nonlinearity, nu_ratio,
)
from wavelab import solver
from wavelab.energy import energy_p
from wavelab.solver import (
    MONOTONICITY_SLACK, RECORD_BLOCK_VALUES, EnergyMonotonicityError,
    InitialData, NewtonError, Scenario, ThetaBoundError, ThetaField,
    _damping_substep_nodal, _implicit_damping_update, damped_support,
    run_auxiliary, run_auxiliary_rerun, run_derivative_system, run_family,
    run_simulation, step,
    theta_from_run, transport_shift,
)

from kept import KeptStates, run_kept


def _scenario(n=64, t_final=2.0, g=None, a=None, p_list=(2.0,), amp=0.5,
              splitting="strang", record_every=1):
    return Scenario(
        name="t", grid=Grid(n), t_final=t_final, p_list=p_list,
        g=g or arctan_damping(),
        a=a or smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
        initial=InitialData(sine_profile(1, amplitude=amp), zero_function()),
        splitting=splitting, record_every=record_every)


def _copied(state):
    """state with copies of its arrays: the damping substep writes the state
    it is given, so a reference that keeps a state damps a copy of it."""
    return RiemannState(rho=state.rho.copy(), xi=state.xi.copy(), t=state.t)


def _family(sc, alphas):
    """run_family's rows: row b, named sc.name_b, is sc's data scaled by
    alphas[b] (an alpha may repeat)."""
    return {f"{sc.name}_{b}": sc.initial.scaled(alpha) for b, alpha in enumerate(alphas)}


def _solo(sc, rows):
    """Each row of a family as a scenario of its own, to run alone."""
    return [replace(sc, name=name, initial=initial) for name, initial in rows.items()]


class TestTransport:
    def test_interior_shift_is_exact(self):
        g = Grid(8)
        rho = np.arange(9.0)
        xi = 10.0 + np.arange(9.0)
        out = transport_shift(RiemannState(rho=rho, xi=xi, t=0.0), g)
        np.testing.assert_array_equal(out.rho[:-1], rho[1:])
        np.testing.assert_array_equal(out.xi[1:], xi[:-1])

    def test_wall_reflection_closes_characteristics(self):
        g = Grid(8)
        rho = np.arange(9.0)
        xi = 10.0 + np.arange(9.0)
        out = transport_shift(RiemannState(rho=rho, xi=xi, t=0.0), g)
        assert out.xi[0] == out.rho[0] == rho[1]
        assert out.rho[-1] == out.xi[-1] == xi[-2]

    def test_undamped_period_two_identity(self):
        # d'Alembert: with Dirichlet walls the solution is 2-periodic, and at
        # unit CFL the discrete transport reproduces that exactly (bitwise)
        sc = _scenario(n=32, t_final=2.0, a=zero_profile(), g=identity_damping())
        s = sc.initial.riemann(sc.grid)
        s0 = s
        for _ in range(sc.n_steps):
            s = step(s, sc)
        np.testing.assert_array_equal(s.rho, s0.rho)
        np.testing.assert_array_equal(s.xi, s0.xi)


class TestImplicitDamping:
    def test_linear_closed_form(self):
        # runs take a linear g's closed form in the substep; Newton, given
        # one, meets it to roundoff
        u = _implicit_damping_update(np.array([1.0]), np.array([0.1]),
                                     identity_damping())
        assert u[0] == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_newton_root_residual(self):
        u_old = np.array([1.0])
        c = np.array([0.1])
        u = _implicit_damping_update(u_old, c, cubic_damping())
        resid = u + c * (u + u ** 3) - u_old
        assert abs(resid[0]) <= 1e-13
        assert 0.0 < u[0] < 1.0

    def test_zero_coefficient_is_identity(self):
        u_old = np.linspace(-2, 2, 11)
        u = _implicit_damping_update(u_old, np.zeros(11), arctan_damping())
        np.testing.assert_array_equal(u, u_old)

    @given(u0=st.floats(min_value=-20, max_value=20, allow_nan=False),
           c=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=100)
    def test_shrinks_and_preserves_sign(self, u0, c):
        for g in (arctan_damping(), cubic_damping(), saturating_damping()):
            u = _implicit_damping_update(np.array([u0]), np.array([c]), g)[0]
            assert abs(u) <= abs(u0) + 1e-15
            assert u * u0 >= 0.0

    def test_stiff_coefficient_converges(self):
        # large c: Newton converges for the cubic here (arctan and saturating
        # g take bracket-clipped updates at these values)
        u_old = np.array([50.0])
        c = np.array([1e6])
        u = _implicit_damping_update(u_old, c, cubic_damping())
        resid = u + c * (u + u ** 3) - u_old
        assert abs(resid[0]) <= 1e-12 * 50.0

    @pytest.mark.parametrize("c", [10.0, 100.0, 1e4, 1e6])
    @pytest.mark.parametrize("g", [arctan_damping(), saturating_damping()],
                             ids=["arctan", "saturating"])
    def test_stiff_bounded_g_converges_without_bisection(self, monkeypatch, g, c):
        # unclipped, Newton diverges for these g at large c and bisects
        monkeypatch.setattr(solver, "_bisect_damping", _no_bisection)
        u_old = np.concatenate([np.linspace(-50.0, 50.0, 199), [0.0, -0.0, 1e-9]])
        u = _implicit_damping_update(u_old, np.full(u_old.size, c), g)
        resid = u + c * g.value(u) - u_old
        assert np.all(np.abs(resid) <= solver.NEWTON_TOL * np.maximum(1.0, np.abs(u_old)))
        assert np.all((np.minimum(0.0, u_old) <= u) & (u <= np.maximum(0.0, u_old)))


def _reference_update(u_old, c, g):
    """_implicit_damping_update as written with np.clip, ndarray.all, np.all,
    np.asarray around g, an upfront copy of u_old and its two untested
    opening updates unrolled; the kernel must match it bit for bit. A linear
    g is solved by Newton here too: the closed form is the substep's
    (_substep_args)."""
    u = u_old.copy()
    tol = solver.NEWTON_TOL * np.maximum(1.0, np.abs(u_old))
    lo, hi = np.minimum(0.0, u_old), np.maximum(0.0, u_old)
    resid = c * np.asarray(g.value(u))
    for _ in range(min(2, solver.NEWTON_MAX_ITER)):
        u = u - resid / (1.0 + c * np.asarray(g.derivative(u)))
        resid = u + c * np.asarray(g.value(u)) - u_old
    converged = False
    for _ in range(solver.NEWTON_MAX_ITER - 2):
        ok = np.abs(resid) <= tol
        if ok.all():
            converged = True
            break
        du = resid / (1.0 + c * np.asarray(g.derivative(u)))
        if u.ndim > 1 and len(u) > 1:
            du[ok.all(axis=-1)] = 0.0
        u = np.clip(u - du, lo, hi)  # the tested updates stay in the bracket
        resid = u + c * np.asarray(g.value(u)) - u_old
    if not converged:
        bad = np.abs(resid) > tol
        c = np.broadcast_to(c, u.shape)
        for row in np.ndindex(u.shape[:-1]):
            b = bad[row]
            if not b.any():
                continue
            try:
                u[row][b] = _reference_bisect(u_old[row][b], c[row][b], g, tol[row][b])
            except NewtonError as err:
                if row:
                    err.row = row[0]
                raise
    return np.clip(u, lo, hi)


def _reference_bisect(u_old, c, g, tol):
    lo = np.minimum(0.0, u_old)
    hi = np.maximum(0.0, u_old)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        resid = mid + c * np.asarray(g.value(mid)) - u_old
        if np.all(np.abs(resid) <= tol) or np.all(hi - lo <= 1e-16 * np.abs(hi)):
            return mid
        take_hi = resid < 0.0
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    resid = mid + c * np.asarray(g.value(mid)) - u_old
    if np.any(np.abs(resid) > np.maximum(tol, 1e-10)):
        raise NewtonError(
            f"implicit damping solve failed for g = {g.label}; "
            f"worst residual {np.max(np.abs(resid))}")
    return mid


def _reference_slice_substep(state, c, support, g=None):
    """_damping_substep_nodal as written with a zero delta array, the
    full-array rho + d, xi - d and, for g = None, the coefficient c of
    u / (1 + c)."""
    u = 0.5 * (state.rho[..., support] - state.xi[..., support])
    u_new = u / (1.0 + c) if g is None else _reference_update(u, c, g)
    d = np.zeros_like(state.rho)
    np.subtract(u_new, u, out=d[..., support])
    return RiemannState(rho=state.rho + d, xi=state.xi - d, t=state.t)


def _counted(g, calls):
    """g with its value and derivative evaluations counted in calls."""
    def value(s):
        calls["value"] += 1
        return g.value(s)

    def derivative(s):
        calls["derivative"] += 1
        return g.derivative(s)

    return Nonlinearity(value, derivative, g.label, g.linear_slope)


def _outcome(solve, *args):
    """What solve(*args) did: ("ok", result) or ("raised", message, row)."""
    try:
        return "ok", solve(*args)
    except NewtonError as err:
        return "raised", str(err), getattr(err, "row", None)


KERNEL_GS = {"arctan": arctan_damping, "cubic": cubic_damping,
             "saturating": saturating_damping, "identity": identity_damping,
             "linear": lambda: None}
# values in [-1, 1] with signed zeros; each row is scaled by its own size
UNIT = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0)
COEF = st.sampled_from([0.0, 1e6]) | st.floats(0.0, 10.0)


@st.composite
def _kernel_cases(draw):
    """(u_old, c, g name): u_old of shape (m,) or (B, m) whose rows differ in
    size by orders of magnitude, so that they stop at different Newton
    iterations; c >= 0 of shape (m,) or u_old's, stiff c = 1e6 included."""
    m = draw(st.integers(1, 12))
    n_rows = draw(st.sampled_from([None, 2, 3]))  # None: a 1-d solve
    shape = (m,) if n_rows is None else (n_rows, m)
    sizes = np.array(draw(st.permutations([1e-3, 1.0, 50.0]))[:n_rows or 1])
    u_old = draw(arrays(float, shape, elements=UNIT)) * (
        sizes[0] if n_rows is None else sizes[:, None])
    c = draw(arrays(float, draw(st.sampled_from([(m,), shape])), elements=COEF))
    return u_old, c, draw(st.sampled_from(sorted(KERNEL_GS)))


STIFF = (np.array([[50.0, -50.0, 0.5], [1e-3, 0.0, -0.0]]),
         np.array([1e6, 1e6, 3.0]), "arctan")  # row 0 takes clipped updates


class TestKernelMatchesReference:
    """The damping kernel takes the same Newton iterations and floating-point
    operations as the reference forms above, so its output is equal in
    bytes and g is evaluated the same number of times."""

    @given(case=_kernel_cases())
    @example(case=STIFF)
    @settings(max_examples=150, deadline=None)
    def test_newton_and_substep(self, case):
        u_old, c, name = case
        g = KERNEL_GS[name]()
        calls, ref_calls = Counter(), Counter()
        if g is not None:
            got = _outcome(_implicit_damping_update, u_old, c, _counted(g, calls))
            ref = _outcome(_reference_update, u_old, c, _counted(g, ref_calls))
            assert got[0] == ref[0]
            if got[0] == "ok":
                _assert_bitwise(got[1], ref[1])
            else:
                assert got[1:] == ref[1:]
            assert calls == ref_calls

        # the substep on a slice of a wider state with the same rows
        m = u_old.shape[-1]
        support = slice(2, 2 + m)
        rng = np.random.default_rng(m)
        rho = rng.normal(size=(*u_old.shape[:-1], m + 4))
        rho[..., 0] = -0.0  # off the slice, x + 0.0 would turn it into +0.0
        xi = rho.copy()
        rho[..., support] += u_old
        xi[..., support] -= u_old
        state = RiemannState(rho=rho, xi=xi, t=0.0)
        gs = [None if g is None else _counted(g, counts) for counts in (calls, ref_calls)]
        coef = 1.0 + c if g is None else c  # the closed form takes its denominator
        # the reference first: the substep writes the state's own arrays
        ref = _outcome(_reference_slice_substep, state, c, support, gs[1])
        got = _outcome(_damping_substep_nodal, state, coef, support, gs[0])
        assert got[0] == ref[0]
        if got[0] == "ok":
            assert got[1] is state
            for new, old in ((got[1].rho, ref[1].rho), (got[1].xi, ref[1].xi)):
                assert np.array_equal(new, old)
                _assert_bitwise(new[..., support], old[..., support])
            assert got[1].t == ref[1].t
        assert calls == ref_calls

    def test_stiff_example_reaches_bisection(self, monkeypatch):
        # within two updates, which the bracket does not clip, row 0 fails
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 2)
        rows = []
        real = solver._bisect_damping

        def bisect(u_old, c, g, tol):
            rows.append(u_old.size)
            return real(u_old, c, g, tol)

        monkeypatch.setattr(solver, "_bisect_damping", bisect)
        u_old, c, name = STIFF
        _implicit_damping_update(u_old, c, KERNEL_GS[name]())
        assert rows


class TestNewtonUpdates:
    """Newton takes its first two updates untested and tests the residual
    after every later one, row by row; NEWTON_MAX_ITER bounds the updates."""

    @pytest.mark.parametrize("u_old", [
        np.array([0.3, -0.5, 0.0, 2.0]),
        np.array([[0.3, -0.5, 0.0, 2.0], [1e-3, -0.2, 0.7, -0.0], [0.1, 0.1, -1.5, 0.4]]),
    ], ids=["1-d", "3 rows"])
    def test_a_solve_that_passes_after_two_updates(self, u_old):
        calls = Counter()
        u = _implicit_damping_update(u_old, np.full(4, 0.01), _counted(arctan_damping(), calls))
        assert calls == {"value": 3, "derivative": 2}
        resid = u + 0.01 * np.arctan(u) - u_old
        assert np.all(np.abs(resid) <= solver.NEWTON_TOL * np.maximum(1.0, np.abs(u_old)))

    def test_no_update_without_iterations(self, monkeypatch):
        # c = 0 passes at u_old itself; the others go to bisection as they are
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 0)
        bisected = []
        real = solver._bisect_damping

        def bisect(u_old, c, g, tol):
            bisected.append(u_old.copy())
            return real(u_old, c, g, tol)

        monkeypatch.setattr(solver, "_bisect_damping", bisect)
        u_old, c = np.array([0.7, -2.0, 0.4]), np.array([0.0, 3.0, 3.0])
        calls = Counter()
        u = _implicit_damping_update(u_old, c, _counted(cubic_damping(), calls))
        assert calls["derivative"] == 0
        assert len(bisected) == 1
        _assert_bitwise(bisected[0], u_old[1:])
        _assert_bitwise(u[:1], u_old[:1])

    def test_rows_that_need_more_updates_equal_their_solves_alone(self):
        # the cubic's rows alone take 2, 6 and 12 updates
        u_old = np.array([[1e-3, -1e-3, 2e-3], [1.0, -0.5, 0.7], [50.0, -30.0, 10.0]])
        c = np.full(3, 3.0)
        calls = Counter()
        got = _implicit_damping_update(u_old, c, _counted(cubic_damping(), calls))
        solo_calls = []
        for row, u_row in zip(got, u_old, strict=True):
            solo_calls.append(Counter())
            _assert_bitwise(row, _implicit_damping_update(
                u_row, c, _counted(cubic_damping(), solo_calls[-1])))
        assert [n["derivative"] for n in solo_calls] == [2, 6, 12]
        assert calls == max(solo_calls, key=lambda n: n["value"])


class _Recorded(np.ndarray):
    """An ndarray that logs every numpy call it takes part in, as (name,
    inputs) in _Recorded.log, and passes the recording on to its results."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        name = ufunc.__name__ if method == "__call__" else f"{ufunc.__name__}.{method}"
        _Recorded.log.append((name, inputs))
        plain = [x.view(np.ndarray) if isinstance(x, _Recorded) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Recorded) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        _Recorded.log.append((func.__name__, args))
        return super().__array_function__(func, types, args, kwargs)


def _logged(solve, *args):
    """solve(*args) with every array in args, a RiemannState's too, viewed as
    _Recorded: (the result, with plain arrays, and the log of numpy calls)."""
    def view(x):
        if isinstance(x, RiemannState):
            return RiemannState(rho=view(x.rho), xi=view(x.xi), t=x.t)
        return x.view(_Recorded) if isinstance(x, np.ndarray) else x

    _Recorded.log = []
    out = solve(*map(view, args))
    if isinstance(out, RiemannState):
        out = RiemannState(rho=out.rho.view(np.ndarray), xi=out.xi.view(np.ndarray), t=out.t)
    else:
        out = out.view(np.ndarray)
    return out, _Recorded.log


def _no_bisection(u_old, c, g, tol):
    raise AssertionError("the solve fell back to bisection")


def _third_residual(u_old, c, g):
    """The residual the Newton solve tests first, after its two untested updates."""
    u, resid = u_old, c * g.value(u_old)
    for _ in range(2):
        u = u - resid / (1.0 + c * g.derivative(u))
        resid = u + c * g.value(u) - u_old
    return resid


#: (u_old, c) of an arctan solve whose third residual, 3.6e-14, passes its
#: per-node bound 7e-14 and not NEWTON_TOL
PER_NODE = (np.array([7.0]), np.array([0.12]))


class TestHotPathOperands:
    """Every numpy call of a damping substep takes array operands, the
    constants included (core's 0-d ZERO, HALF, ONE, THREE): numpy 2 converts
    a Python or numpy scalar operand on every call. The call count of a solve
    that passes at its third residual is pinned."""

    @pytest.mark.parametrize("name", ["arctan", "cubic", "saturating", "linear"])
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["1-d", "3 rows"])
    def test_no_scalar_operand(self, monkeypatch, name, rows):
        monkeypatch.setattr(solver, "_bisect_damping", _no_bisection)
        g = KERNEL_GS[name]()
        # rows of sizes 1e-3, 1 and 50 stop at different updates; 7 with
        # c = 0.12 passes its per-node bound only
        family = np.array([[1e-3, -2e-3, 0.0, 5e-4],
                           [0.3, -0.5, 0.7, 7.0],
                           [50.0, -30.0, 10.0, -0.0]])
        u_old = family if rows else family[1]
        c = np.array([0.5, 1.0, 3.0, 0.12])
        rho = np.zeros((*rows, 8))
        xi = rho.copy()
        rho[..., 2:6] += u_old
        xi[..., 2:6] -= u_old
        coef = 1.0 + c if g is None else c
        ref = _reference_slice_substep(RiemannState(rho=rho, xi=xi, t=0.0), c,
                                       slice(2, 6), g)
        got, log = _logged(_damping_substep_nodal, RiemannState(rho=rho, xi=xi, t=0.0),
                           coef, slice(2, 6), g)
        _assert_bitwise(got.rho, ref.rho)
        _assert_bitwise(got.xi, ref.xi)
        assert log
        scalars = [(call, x) for call, inputs in log for x in inputs
                   if isinstance(x, (int, float, np.generic))]
        assert scalars == []

    def test_calls_of_a_solve_that_passes_at_its_third_residual(self):
        # the parent of the lazy tolerance and the 0-d constants made 39
        u_old, c = np.array([0.3, -0.5, 0.0, 2.0]), np.full(4, 0.01)
        calls = Counter()
        state = RiemannState(rho=u_old.copy(), xi=-u_old, t=0.0)
        _, log = _logged(_damping_substep_nodal, state, c, slice(None),
                         _counted(arctan_damping(), calls))
        assert calls == {"value": 3, "derivative": 2}
        assert len(log) == 36


class TestLazyTolerance:
    """The residual test compares with NEWTON_TOL first and builds the
    per-node bound NEWTON_TOL max(1, |u_old|) only for a node that fails
    there, or for the bisection fallback: the decisions are the reference's."""

    def test_a_node_passes_its_own_bound_without_bisection(self, monkeypatch):
        u_old, c = PER_NODE
        g = arctan_damping()
        assert solver.NEWTON_TOL < abs(_third_residual(u_old, c, g)[0]) <= solver.NEWTON_TOL * 7.0
        monkeypatch.setattr(solver, "_bisect_damping", _no_bisection)
        got, log = _logged(_implicit_damping_update, u_old, c, g)
        # the per-node bound was built: maximum(ONE, |u_old|), the clamp's take ZERO
        assert [inputs for name, inputs in log if name == "maximum" and inputs[0] is ONE]
        _assert_bitwise(got, _reference_update(u_old, c, g))
        calls = Counter()
        _implicit_damping_update(u_old, c, _counted(g, calls))
        assert calls == {"value": 3, "derivative": 2}

    def test_family_of_an_absolute_and_a_per_node_row(self):
        # row 0 takes 5 updates and passes NEWTON_TOL; row 1 passes its
        # per-node bound at the third residual and must stay put after it
        g = arctan_damping()
        u_old = np.array([[5.0], PER_NODE[0]])
        c = np.array([[3.0], PER_NODE[1]])
        got = _implicit_damping_update(u_old, c, g)
        _assert_bitwise(got, _reference_update(u_old, c, g))
        solo = [Counter(), Counter()]
        for row, counts in enumerate(solo):
            alone = _implicit_damping_update(u_old[row], c[row], _counted(g, counts))
            _assert_bitwise(got[row], alone)
        assert [n["value"] for n in solo] == [6, 3]
        resid = got[0] + c[0] * g.value(got[0]) - u_old[0]
        assert abs(resid[0]) <= solver.NEWTON_TOL
        assert abs(_third_residual(u_old[1], c[1], g)[0]) > solver.NEWTON_TOL

    # 3: one tested update, then the fallback
    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_bisection_gets_the_per_node_bound(self, monkeypatch, max_iter):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", max_iter)
        received = []
        real = solver._bisect_damping

        def bisect(u_old, c, g, tol):
            received.append((u_old.copy(), tol.copy()))
            return real(u_old, c, g, tol)

        monkeypatch.setattr(solver, "_bisect_damping", bisect)
        g = arctan_damping()
        u_old, c = np.array([7.0, -30.0, 0.4, 0.0]), np.array([0.12, 1e6, 2.0, 1.0])
        _assert_bitwise(_implicit_damping_update(u_old, c, g), _reference_update(u_old, c, g))
        (bisected, tol), = received
        assert -30.0 in bisected
        _assert_bitwise(tol, solver.NEWTON_TOL * np.maximum(1.0, np.abs(bisected)))
        # after two updates u_old = 7 passes its per-node bound, not NEWTON_TOL
        assert (7.0 in bisected) == (max_iter < 2)


#: the shipped g the parser admits: nonmonotone fails H2
SHIPPED_GS = {name: make for name, make in NONLINEARITIES.items() if name != "nonmonotone"}


@st.composite
def _solve_cases(draw):
    """(u_old, c, g name): u_old in [-50, 50] of shape (m,) or (B, m), c in
    [0, 10] or 1e6 of shape (m,) or u_old's."""
    m = draw(st.integers(1, 8))
    shape = draw(st.sampled_from([(m,), (2, m), (3, m)]))
    u_old = draw(arrays(float, shape, elements=st.floats(-50.0, 50.0)))
    c = draw(arrays(float, draw(st.sampled_from([(m,), shape])), elements=COEF))
    return u_old, c, draw(st.sampled_from(sorted(SHIPPED_GS)))


@given(case=_solve_cases())
@example(case=STIFF)
@settings(max_examples=200, deadline=None)
def test_newton_nodes_meet_the_tolerance_and_every_node_its_bracket(case):
    u_old, c, name = case
    g = SHIPPED_GS[name]()
    with pytest.MonkeyPatch.context() as mp:
        # a bisected node comes back nan
        mp.setattr(solver, "_bisect_damping", lambda u_old, c, g, tol: np.full(u_old.shape, np.nan))
        newton = ~np.isnan(_implicit_damping_update(u_old, c, g))
    u = _implicit_damping_update(u_old, c, g)
    tol = solver.NEWTON_TOL * np.maximum(1.0, np.abs(u_old))
    resid = u + c * g.value(u) - u_old
    assert np.all(np.abs(resid[newton]) <= tol[newton])
    assert np.all((np.minimum(0.0, u_old) <= u) & (u <= np.maximum(0.0, u_old)))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class TestInputsNotWritten:
    """The kernel reads its inputs in place (no defensive copies), so it must
    never write them; read-only inputs make any write raise. The public step
    and transport_shift copy a RiemannState once and never write it; the
    damping substep writes the support slice of the state it is given."""

    @pytest.mark.parametrize("g, max_iter, bisects", [
        (cubic_damping(), solver.NEWTON_MAX_ITER, False),
        (arctan_damping(), solver.NEWTON_MAX_ITER, False),
        # two unclipped updates leave stiff arctan far from its root
        (arctan_damping(), 2, True),
        # no Newton iteration: the fallback starts from u_old itself
        (cubic_damping(), 0, True),
        (saturating_damping(), 0, True),
    ])
    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_implicit_update(self, monkeypatch, g, max_iter, bisects, shape):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", max_iter)
        bisected = []
        real = solver._bisect_damping
        monkeypatch.setattr(solver, "_bisect_damping",
                            lambda *args: bisected.append(1) or real(*args))
        u_old, c = _read_only(np.resize([50.0, -0.7, 0.0], shape),
                              np.resize([1e6, 2.0, 1e6], shape))
        kept = u_old.copy(), c.copy()
        _implicit_damping_update(u_old, c, g)
        assert bool(bisected) == bisects
        _assert_bitwise(u_old, kept[0])
        _assert_bitwise(c, kept[1])

    @pytest.mark.parametrize("rows", [(), (3,)])
    @pytest.mark.parametrize("g", [None, arctan_damping(), cubic_damping()])
    def test_substep_and_transport(self, rows, g):
        grid = Grid(16)
        rng = np.random.default_rng(5)
        rho, xi = _read_only(rng.normal(size=(*rows, grid.n_nodes)),
                             rng.normal(size=(*rows, grid.n_nodes)))
        kept = rho.copy(), xi.copy()
        state = RiemannState(rho=rho, xi=xi, t=0.0)
        out = transport_shift(state, grid)
        assert not np.shares_memory(out.rho, rho) and not np.shares_memory(out.xi, xi)
        _assert_bitwise(rho, kept[0])
        _assert_bitwise(xi, kept[1])
        # the substep damps in place, on the support slice only
        support = slice(4, 12)
        own = _copied(state)
        assert _damping_substep_nodal(own, np.full(8, 0.3), support, g) is own
        for new, old in ((own.rho, rho), (own.xi, xi)):
            _assert_bitwise(new[..., :4], old[..., :4])
            _assert_bitwise(new[..., 12:], old[..., 12:])
            assert not np.array_equal(new[..., support], old[..., support])

    @pytest.mark.parametrize("rows", [(), (3,)])
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    @pytest.mark.parametrize("g", ["arctan", "identity"])
    def test_step(self, rows, splitting, g):
        # step copies the caller's state once into a _Track and damps that
        sc = _scenario(n=16, g=GS[g](), splitting=splitting)
        rng = np.random.default_rng(5)
        rho, xi = _read_only(rng.normal(size=(*rows, sc.grid.n_nodes)),
                             rng.normal(size=(*rows, sc.grid.n_nodes)))
        kept = rho.copy(), xi.copy()
        out = step(RiemannState(rho=rho, xi=xi, t=0.0), sc, sc.a_nodes)
        assert not np.shares_memory(out.rho, rho) and not np.shares_memory(out.xi, xi)
        _assert_bitwise(rho, kept[0])
        _assert_bitwise(xi, kept[1])


#: NEWTON_MAX_ITER of the buffer tests: none, one and two untested updates,
#: and the default; the first three send stiff arctan nodes to bisection
MAX_ITERS = pytest.mark.parametrize("max_iter", [0, 1, 2, solver.NEWTON_MAX_ITER],
                                    ids=["0", "1", "2", "default"])


class TestSolveBuffers:
    """The damping solve writes only arrays it made: the substep's u and d,
    and the solve's own buffers. Its result is a fresh array, also when
    g.value returns its argument (the identity, through Newton here), and
    u_old and coef, read-only here, are never written."""

    U_OLD = np.array([[50.0, -0.7, 0.0, 7.0], [1e-3, -30.0, 0.4, -0.0], [2.0, 0.0, -5.0, 0.3]])
    C = np.array([1e6, 2.0, 1e6, 0.12])  # 1e6: arctan's 50 fails two updates

    @staticmethod
    def _spy_bisection(monkeypatch):
        bisected = []
        real = solver._bisect_damping
        monkeypatch.setattr(solver, "_bisect_damping",
                            lambda *args: bisected.append(1) or real(*args))
        return bisected

    @MAX_ITERS
    @pytest.mark.parametrize("rows", [False, True], ids=["1-d", "3 rows"])
    @pytest.mark.parametrize("name", sorted(SHIPPED_GS))
    def test_implicit_update(self, monkeypatch, name, rows, max_iter):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", max_iter)
        bisected = self._spy_bisection(monkeypatch)
        g = SHIPPED_GS[name]()
        u_old, c = _read_only(self.U_OLD.copy() if rows else self.U_OLD[0].copy(), self.C.copy())
        got = _implicit_damping_update(u_old, c, g)
        assert not np.shares_memory(got, u_old) and not np.shares_memory(got, c)
        _assert_bitwise(got, _reference_update(u_old, c, g))
        if max_iter == 0 or name == "arctan" and max_iter <= 2:
            assert bisected

    @MAX_ITERS
    @pytest.mark.parametrize("rows", [(), (3,)], ids=["1-d", "3 rows"])
    @pytest.mark.parametrize("name", sorted(SHIPPED_GS) + ["linear"])
    def test_substep(self, monkeypatch, name, rows, max_iter):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", max_iter)
        bisected = self._spy_bisection(monkeypatch)
        solved = []
        real = solver._implicit_damping_update

        def solve(u_old, c, g):  # the substep's u, read-only from here on
            u_old.setflags(write=False)
            got = real(u_old, c, g)
            solved.append(not np.shares_memory(got, u_old))
            return got

        monkeypatch.setattr(solver, "_implicit_damping_update", solve)
        g = KERNEL_GS[name]()
        u_old = self.U_OLD if rows else self.U_OLD[0]
        rho = np.zeros((*rows, 8))
        xi = rho.copy()
        rho[..., 2:6] += u_old
        xi[..., 2:6] -= u_old
        coef, = _read_only(1.0 + self.C if g is None else self.C.copy())
        ref = _reference_slice_substep(RiemannState(rho=rho, xi=xi, t=0.0), self.C,
                                       slice(2, 6), g)
        state = RiemannState(rho=rho.copy(), xi=xi.copy(), t=0.0)
        assert _damping_substep_nodal(state, coef, slice(2, 6), g) is state
        _assert_bitwise(state.rho, ref.rho)
        _assert_bitwise(state.xi, ref.xi)
        assert solved == ([] if g is None else [True])
        if g is not None and (max_iter == 0 or name == "arctan" and max_iter <= 2):
            assert bisected


def _reference_substep(state, c, g):
    """The damping substep on every node, with c given on the whole grid;
    g = None is the closed-form linear update u / (1 + c), and a linear g
    the closed form u / (1 + c slope)."""
    u = 0.5 * (state.rho - state.xi)
    if g is None:
        u_new = u / (1.0 + c)
    elif g.linear_slope is not None:
        u_new = u / (1.0 + c * g.linear_slope)
    else:
        u_new = _implicit_damping_update(u, c, g)
    d = u_new - u
    return RiemannState(rho=state.rho + d, xi=state.xi - d, t=state.t)


def _substep_args(c, g):
    """(coef, g) as _damping_substep_nodal takes the coefficient c with g: a
    linear g and g = None in the closed form, with its denominator."""
    if g is None:
        return 1.0 + c, None
    if g.linear_slope is not None:
        return 1.0 + c * g.linear_slope, None
    return c, g


def _reference_step(state, sc):
    a_nodes = sc.a.value(sc.grid.nodes)
    dt = sc.dt
    if sc.splitting == "strang":
        state = _reference_substep(state, 0.5 * dt * a_nodes, sc.g)
        state = transport_shift(state, sc.grid)
        return _reference_substep(state, 0.5 * dt * a_nodes, sc.g)
    state = _reference_substep(state, dt * a_nodes, sc.g)
    return transport_shift(state, sc.grid)


PROFILES = {
    "smooth_indicator": smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
    "interior_indicator": indicator_profile(0.3, 0.6, 1.0),
    "constant": constant_profile(1.0),
    "zero": zero_profile(),
}
GS = {"arctan": arctan_damping, "cubic": cubic_damping,
      "identity": identity_damping}


def _random_state(n, seed=11):
    rng = np.random.default_rng(seed)
    return RiemannState(rho=1.5 * rng.normal(size=n + 1),
                        xi=1.5 * rng.normal(size=n + 1), t=0.0)


class TestRestrictedKernel:
    """The damping substep runs on damped_support(a) only; every node must
    come out bitwise equal to the update run on the whole grid."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_support_spans_the_nonzero_nodes(self, profile):
        a_nodes = PROFILES[profile].value(Grid(64).nodes)
        support = damped_support(a_nodes)
        nz = np.flatnonzero(a_nodes)
        if nz.size:
            assert (support.start, support.stop) == (nz[0], nz[-1] + 1)
        else:
            assert support.start == support.stop
        outside = np.ones(a_nodes.size, dtype=bool)
        outside[support] = False
        assert np.all(a_nodes[outside] == 0.0)

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    @pytest.mark.parametrize("g", sorted(GS))
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_step_matches_full_grid_reference(self, profile, g, splitting):
        sc = _scenario(g=GS[g](), a=PROFILES[profile], splitting=splitting)
        state = _random_state(sc.grid.n_cells)
        ref = _reference_step(state, sc)
        # the scenario's cached coefficient, and one built from another array
        for out in (step(state, sc), step(state, sc, np.array(sc.a_nodes))):
            np.testing.assert_array_equal(out.rho, ref.rho)
            np.testing.assert_array_equal(out.xi, ref.xi)

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_linear_g_of_any_slope_matches_the_reference(self, splitting):
        # slope 2.5: the denominator 1 + c slope is built once per run, with
        # the multiplication by the slope the closed form always had
        g = Nonlinearity(lambda s: 2.5 * s,
                         lambda s: np.full_like(np.asarray(s, dtype=float), 2.5),
                         "linear", linear_slope=2.5)
        sc = _scenario(n=32, t_final=0.5, g=g, splitting=splitting)
        state = _random_state(sc.grid.n_cells)
        ref = _reference_step(state, sc)
        for out in (step(state, sc, sc.a_nodes),
                    step(state, sc, np.array(sc.a_nodes))):
            _assert_bitwise(out.rho, ref.rho)
            _assert_bitwise(out.xi, ref.xi)
        family = _family(sc, (1.0, 4.0))
        _, (rho, xi) = run_kept(run_family, sc, family)
        for b, row in enumerate(_solo(sc, family)):
            s = row.initial.riemann(row.grid)
            for k in range(row.n_steps):
                s = _reference_step(s, row)
                _assert_bitwise(rho[k + 1, b], s.rho)
                _assert_bitwise(xi[k + 1, b], s.xi)

    @pytest.mark.parametrize("g", sorted(GS) + ["linear"])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_substep_matches_full_grid_reference(self, profile, g):
        grid = Grid(64)
        a_nodes = PROFILES[profile].value(grid.nodes)
        theta = np.random.default_rng(5).uniform(0.5, 2.0, size=grid.n_nodes)
        c = 0.5 * grid.dx * a_nodes * theta
        nl = None if g == "linear" else GS[g]()
        state = _random_state(grid.n_cells)
        support = damped_support(a_nodes)
        coef, substep_g = _substep_args(c[support], nl)
        ref = _reference_substep(state, c, nl)  # first: the substep damps in place
        out = _damping_substep_nodal(state, coef, support, substep_g)
        np.testing.assert_array_equal(out.rho, ref.rho)
        np.testing.assert_array_equal(out.xi, ref.xi)

    @pytest.mark.parametrize("g", sorted(GS) + ["linear"])
    def test_zero_profile_substep_is_identity(self, g):
        grid = Grid(64)
        a_nodes = zero_profile().value(grid.nodes)
        support = damped_support(a_nodes)
        state = _random_state(grid.n_cells)
        nl = None if g == "linear" else GS[g]()
        out = _damping_substep_nodal(_copied(state), a_nodes[support], support, nl)
        np.testing.assert_array_equal(out.rho, state.rho)
        np.testing.assert_array_equal(out.xi, state.xi)


def _half_substep(state, grid, a, nl):
    """The damping half-substep of a strang step under the profile a."""
    a_nodes = a.value(grid.nodes)
    support = damped_support(a_nodes)
    return _damping_substep_nodal(state, 0.5 * grid.dx * a_nodes[support],
                                  support, nl)


class TestSubstepDissipativity:
    @given(rho=arrays(np.float64, 9, elements=st.floats(-3, 3)),
           xi=arrays(np.float64, 9, elements=st.floats(-3, 3)),
           p=st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    @settings(max_examples=60)
    def test_energy_never_increases(self, rho, xi, p):
        g = Grid(8)
        state = RiemannState(rho=rho, xi=xi, t=0.0)
        e0 = energy_p(state, p, g)
        for nl in (arctan_damping(), cubic_damping(), saturating_damping()):
            out = _half_substep(_copied(state), g, constant_profile(2.0), nl)
            assert energy_p(out, p, g) <= e0 + 1e-12 * max(1.0, e0)

    def test_zx_untouched(self):
        g = Grid(8)
        state = RiemannState(rho=np.linspace(-1, 1, 9),
                             xi=np.linspace(1, -1, 9), t=0.0)
        out = _half_substep(_copied(state), g, constant_profile(1.0), arctan_damping())
        np.testing.assert_array_equal(out.z_x, state.z_x)


class TestCheckerboardMode:
    """Q_n = (-1)^n sum' (-1)^i z_x,i, the trapezoid sum (halves at i = 0 and
    N) with z_x = (rho + xi)/2, is an invariant of the scheme: the damping
    substep leaves z_x alone, and at the walls' compatibility rho = xi each
    unit shift of transport flips the alternating sum's sign."""

    @staticmethod
    def _charge(state, n):
        weights = (-1.0) ** np.arange(state.rho.size)
        weights[[0, -1]] *= 0.5
        return (-1.0) ** n * float(np.dot(weights, state.z_x))

    @pytest.mark.parametrize("n_cells", [16, 64])
    @pytest.mark.parametrize("a", ["smooth_indicator", "constant"])
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    @pytest.mark.parametrize("g", sorted(SHIPPED_GS))
    def test_invariant_under_step(self, g, splitting, a, n_cells):
        sc = _scenario(n=n_cells, t_final=4.0, g=SHIPPED_GS[g](), a=PROFILES[a],
                       splitting=splitting)
        state = _random_state(n_cells, seed=n_cells)
        state.xi[[0, -1]] = state.rho[[0, -1]]  # wall-admissible
        scale = float(np.mean(np.abs(state.rho) + np.abs(state.xi)))
        q0 = self._charge(state, 0)
        for n in range(1, 4 * n_cells + 1):
            state = step(state, sc)
            assert abs(self._charge(state, n) - q0) <= 1e-12 * scale, n


_MONOTONE_G = (identity_damping, arctan_damping, cubic_damping, saturating_damping)


@st.composite
def _admissible_scenarios(draw):
    """A run inside H1 and H2: a shipped monotone g or a positive sum of
    them, a localized or global a, sine or bump data of random amplitude."""
    terms = draw(st.lists(st.tuples(st.floats(0.1, 3.0), st.sampled_from(_MONOTONE_G)),
                          min_size=1, max_size=3))
    if len(terms) == 1:
        g = terms[0][1]()
    else:
        gs = [(w, make()) for w, make in terms]
        g = Nonlinearity(lambda s: sum(w * np.asarray(f.value(s)) for w, f in gs),
                         lambda s: sum(w * np.asarray(f.derivative(s)) for w, f in gs),
                         "+".join(f"{w:g}*{f.label}" for w, f in gs))
    g.validate()
    a0 = draw(st.floats(0.1, 5.0))
    kind = draw(st.sampled_from(["constant", "indicator", "smooth_indicator"]))
    b = draw(st.floats(0.0, 0.9))
    if kind == "constant":
        a = constant_profile(a0)
    elif kind == "indicator":
        a = indicator_profile(b, 1.0, a0)
    else:
        a = smooth_indicator_profile(b, 1.0, a0, draw(st.floats(0.01, 0.5 * (1.0 - b))))
    a.validate()
    amplitude = draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        profile = sine_profile(draw(st.integers(1, 3)), amplitude=amplitude)
    else:
        profile = bump_profile(draw(st.floats(0.2, 0.8)), draw(st.floats(0.05, 0.3)),
                               amplitude)
    initial = (InitialData(profile, zero_function()) if draw(st.booleans())
               else InitialData(zero_function(), profile))
    return Scenario(name="property", grid=Grid(draw(st.integers(8, 64))),
                    t_final=draw(st.floats(0.05, 1.0)), p_list=(1.0, 1.5, 2.0, 4.0),
                    g=g, a=a, initial=initial,
                    splitting=draw(st.sampled_from(["strang", "lie"])))


class TestRunSimulation:
    @given(sc=_admissible_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_admissible_runs_pass_the_guard(self, sc):
        # the damping solve never grows |z_t| at a node, the guard passes for
        # every p (run_simulation raises otherwise) and every completed step
        # leaves rho = xi at both walls exactly
        update = solver._implicit_damping_update

        def checked(u_old, c, g):
            u_new = update(u_old, c, g)
            assert np.all(np.abs(u_new) <= np.abs(u_old))
            return u_new

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_implicit_damping_update", checked)
            _, (rho, xi) = run_kept(run_simulation, sc)
        assert rho.shape == xi.shape == (sc.n_steps + 1, sc.grid.n_nodes)
        walls = [0, -1]
        np.testing.assert_array_equal(rho[1:, walls], xi[1:, walls])

    def test_energies_monotone_both_splittings(self):
        for splitting in ("strang", "lie"):
            traj = run_simulation(_scenario(splitting=splitting,
                                            p_list=(1.0, 1.5, 2.0, 4.0)))
            for p in (1.0, 1.5, 2.0, 4.0):
                e = traj.energy_series(p)
                assert np.all(np.diff(e) <= 1e-12 * max(1.0, e[0]))

    def test_record_every_thins_output(self):
        dense = run_simulation(_scenario(record_every=1))
        sparse = run_simulation(_scenario(record_every=8))
        assert len(sparse.times) < len(dense.times)
        np.testing.assert_allclose(sparse.energy_series(2.0)[-1],
                                   dense.energy_series(2.0)[-1], rtol=1e-14)

    def test_monotonicity_guard_trips_on_antidamping(self):
        # a deliberately bad g that pumps energy in; the run must abort
        bad = Nonlinearity(lambda s: -0.5 * s,
                           lambda s: -0.5 * np.ones_like(np.asarray(s, dtype=float)),
                           "antidamping", linear_slope=-0.5)
        sc = _scenario(g=bad, a=constant_profile(1.0), t_final=4.0)
        with pytest.raises(EnergyMonotonicityError):
            run_simulation(sc)

    def test_non_finite_energy_trips_the_guard(self):
        # a(x) = nan makes every E_p nan from the first step on; nan compares
        # False with everything, so the guard must test finiteness itself
        sc = _scenario(a=constant_profile(float("nan")), g=identity_damping())
        with pytest.raises(EnergyMonotonicityError,
                           match=rf"^E_p2 is not finite at t = {sc.dt}: "):
            run_simulation(sc)

    def test_final_time_rounding(self):
        sc = _scenario(n=64, t_final=1.0)
        traj = run_simulation(sc)
        assert traj.times[-1] == pytest.approx(sc.t_final_actual, abs=1e-12)
        assert sc.n_steps == 64


class TestScenarioGridValues:
    def test_a_nodes_and_support_are_sampled_once_read_only(self):
        sc = _scenario()
        assert sc.a_nodes is sc.a_nodes
        np.testing.assert_array_equal(sc.a_nodes, sc.a.value(sc.grid.nodes))
        assert sc.support is sc.support
        assert sc.support == damped_support(sc.a_nodes)
        with pytest.raises(ValueError, match="read-only"):
            sc.a_nodes[0] = 1.0

    @pytest.mark.parametrize("splitting, h", [("strang", 0.5), ("lie", 1.0)])
    def test_substep_coef_is_built_once_read_only(self, splitting, h):
        # h a on the support for a nonlinear g; 1 + (h a) slope for a linear g
        sc = _scenario(splitting=splitting)
        assert sc.substep_lengths == (h * sc.dt,) * (2 if splitting == "strang" else 1)
        c = h * sc.dt * sc.a_nodes[sc.support]
        assert sc.substep_coef is sc.substep_coef
        _assert_bitwise(sc.substep_coef, c)
        with pytest.raises(ValueError, match="read-only"):
            sc.substep_coef[0] = 1.0
        linear = replace(sc, g=identity_damping())
        _assert_bitwise(linear.substep_coef, 1.0 + c * 1.0)
        assert not linear.substep_coef.flags.writeable

    @pytest.mark.parametrize("p_list", [(2.0, 2.0000001), (1.5, 2.0, 2.0)])
    def test_exponents_sharing_a_diagnostics_key_rejected(self, p_list):
        with pytest.raises(ValueError, match="share 'E_p2'"):
            _scenario(p_list=p_list)

    def test_replaced_scenario_samples_its_own_a(self):
        sc = _scenario(n=32)
        assert sc.support != slice(0, 33)  # cached for the localized a
        other = constant_profile(3.0)
        moved = replace(sc, a=other)
        np.testing.assert_array_equal(moved.a_nodes, other.value(sc.grid.nodes))
        assert moved.support == slice(0, 33)
        # and its own coefficient table, from its own a and splitting
        assert sc.substep_coef.shape != (33,)
        _assert_bitwise(moved.substep_coef, 0.5 * sc.dt * moved.a_nodes)
        lie = replace(moved, splitting="lie")
        _assert_bitwise(lie.substep_coef, sc.dt * moved.a_nodes)


def _logged_theta(log):
    """A time-dependent theta field that appends each sample time to log."""
    def sampler(t, x):
        log.append(t)
        return 1.0 + 0.5 * np.sin(3.0 * t + 2.0 * np.pi * x)
    return ThetaField(sampler=sampler, bounds=(0.5, 1.5))


def _theta_tables_ref(sc, rho, xi):
    """Reference: nu of the records and of their half steps, each over the
    whole (n_records, n_nodes) stack at once."""
    zt = 0.5 * (rho - xi)
    zt_half = zt[:-1] - 0.5 * sc.dt * sc.a_nodes[None, :] * np.asarray(sc.g.value(zt[:-1]))
    return nu_ratio(zt, sc.g), nu_ratio(zt_half, sc.g)


def _auxiliary_ref(sc, theta):
    """The hand-written auxiliary loop: theta sampled at each substep's
    midpoint and, as the record loop does, once at every record time.
    Returns the recorded states."""
    grid, dt, xs = sc.grid, sc.dt, sc.grid.nodes
    a_nodes = np.asarray(sc.a.value(xs))
    support = damped_support(a_nodes)
    a_damped = a_nodes[support]

    def damp(s, dt_sub, t_mid):
        c = dt_sub * a_damped * theta(t_mid, xs)[support]
        return _damping_substep_nodal(_copied(s), 1.0 + c, support)

    s = sc.initial.riemann(grid)
    theta(s.t, xs)
    states = [s]
    for n in range(sc.n_steps):
        t0 = s.t
        if sc.splitting == "strang":
            s = damp(s, 0.5 * dt, t0 + 0.25 * dt)
            s = transport_shift(s, grid)
            s = damp(s, 0.5 * dt, t0 + 0.75 * dt)
        else:
            s = damp(s, dt, t0 + 0.5 * dt)
            s = transport_shift(s, grid)
        if _recorded(sc, n):
            theta(s.t, xs)
            states.append(s)
    return states


class TestAuxiliary:
    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_states_and_theta_times_match_hand_written_loop(self, splitting,
                                                            record_every):
        sc = _scenario(t_final=1.0, splitting=splitting,
                       record_every=record_every)
        got_log, ref_log = [], []
        aux, (rho, xi, _) = run_kept(run_auxiliary, sc, _logged_theta(got_log))
        ref = _auxiliary_ref(sc, _logged_theta(ref_log))
        _assert_states(aux.times, rho, xi, ref)
        assert got_log == ref_log
        substeps = 2 if splitting == "strang" else 1
        assert len(got_log) == substeps * sc.n_steps + len(aux.times)

    def test_theta_one_matches_identity_g_bitwise(self):
        sc = _scenario(g=identity_damping(), a=constant_profile(1.5), t_final=2.0)
        _, (rho, xi) = run_kept(run_simulation, sc)
        theta = ThetaField(sampler=lambda t, x: np.ones_like(x), bounds=(1.0, 1.0))
        _, (aux_rho, aux_xi, _) = run_kept(run_auxiliary, sc, theta)
        np.testing.assert_array_equal(aux_rho, rho)
        np.testing.assert_array_equal(aux_xi, xi)

    def test_stronger_theta_decays_faster(self):
        sc = _scenario(g=identity_damping(), a=constant_profile(1.0), t_final=6.0)
        lo = run_auxiliary(sc, ThetaField(lambda t, x: np.full_like(x, 0.5), (0.5, 0.5)))
        hi = run_auxiliary(sc, ThetaField(lambda t, x: np.full_like(x, 1.5), (1.5, 1.5)))
        assert hi.energy_series(2.0)[-1] < lo.energy_series(2.0)[-1]

    def test_bound_violation_raises(self):
        sc = _scenario(t_final=1.0)
        theta = ThetaField(sampler=lambda t, x: np.full_like(x, 2.0),
                           bounds=(0.5, 1.0))
        with pytest.raises(ThetaBoundError):
            run_auxiliary(sc, theta)

    def test_recorded_theta_reruns_nonlinear_to_second_order(self):
        discs = []
        for n in (64, 128):
            sc = _scenario(n=n, t_final=4.0)
            _, (rho, xi) = run_kept(run_simulation, sc)
            _, (aux_rho, _, _) = run_kept(run_auxiliary, sc, theta_from_run(sc, rho, xi))
            discs.append(float(np.max(np.abs(rho - aux_rho))))
        order = np.log2(discs[0] / discs[1])
        assert order >= 1.8

    def test_recorded_theta_is_bound_to_its_grid(self):
        sc = _scenario(n=64, t_final=0.5)
        theta = theta_from_run(sc, *run_kept(run_simulation, sc)[1])
        assert theta.grid == Grid(64)
        with pytest.raises(ValueError, match="bound to the run's grid"):
            run_auxiliary(_scenario(n=128, t_final=0.5), theta)

    def test_theta_from_run_needs_dense_records(self):
        sc = _scenario(record_every=4)
        _, (rho, xi) = run_kept(run_simulation, sc)
        with pytest.raises(ValueError, match=r"record_every = 1\) and its \(129, 65\) "
                                             r"states, got \(33, 65\) and \(33, 65\)$"):
            theta_from_run(sc, rho, xi)

    def test_theta_from_run_needs_every_state_of_its_run(self):
        sc = _scenario()
        _, (rho, xi) = run_kept(run_simulation, sc)
        for got in ((rho[:-1], xi[:-1]), (rho, xi[:, 1:]), (rho[0], xi[0])):
            with pytest.raises(ValueError, match=r"its \(129, 65\) states, got "):
                theta_from_run(sc, *got)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_theta_from_run_is_the_same_in_record_blocks(self, block, monkeypatch):
        # blocks of 1, 2 and 3 of the 65 records, the last one partial, give
        # the field of nu over the whole stack
        sc = _scenario(n=32, t_final=2.0, g=saturating_damping())
        nl, (rho, xi) = run_kept(run_simulation, sc)
        n_records, n_nodes = rho.shape
        assert n_records % 2 and n_records % 3
        nu_records, nu_half = _theta_tables_ref(sc, rho, xi)
        monkeypatch.setattr(solver, "RECORD_BLOCK_VALUES", block * n_nodes)
        theta = theta_from_run(sc, rho, xi)
        assert theta.bounds == (min(nu_records.min(), nu_half.min()),
                                max(nu_records.max(), nu_half.max()))
        xs, dt = sc.grid.nodes, sc.dt
        for n, t in enumerate(nl.times):
            _assert_bitwise(theta(t, xs), nu_records[n])
            if n < n_records - 1:
                _assert_bitwise(theta(t + 0.25 * dt, xs), nu_half[n])
                _assert_bitwise(theta(t + 0.75 * dt, xs), nu_records[n + 1])

    @pytest.mark.parametrize("n", [96, 100, 128])
    def test_lie_midpoint_reads_the_right_record(self, n):
        # the lie substep samples at t_n + dt/2 with t_n accumulated step by
        # step; at N = 96 and 100 that rounds below the middle of some steps
        sc = _scenario(n=n, t_final=3.0, splitting="lie")
        nl, (rho, xi) = run_kept(run_simulation, sc)
        theta = theta_from_run(sc, rho, xi)
        nu_records, _ = _theta_tables_ref(sc, rho, xi)
        xs, dt = sc.grid.nodes, sc.dt
        mids = nl.times[:-1] + 0.5 * dt
        below = np.count_nonzero(mids / dt - np.arange(len(mids)) < 0.5)
        assert (below > 0) == (n != 128)
        for k, t in enumerate(mids):
            _assert_bitwise(theta(t, xs), nu_records[k + 1])

    def test_theta_from_run_peak_memory_is_its_tables_and_a_few_blocks(self):
        sc = _scenario(n=512, t_final=2.0)
        _, (rho, xi) = run_kept(run_simulation, sc)
        n_records, n_nodes = rho.shape
        tables = (2 * n_records - 1) * n_nodes * 8
        block = _block_len(sc) * n_nodes * 8
        tracemalloc.start()
        try:
            theta_from_run(sc, rho, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-stack form peaks near 3 tables: z_t, its half step and
        # the intermediates of nu at full length
        assert peak <= tables + 16 * block


class TestDerivativeSystem:
    def test_w_tracks_time_derivative_of_base(self):
        sc = _scenario(n=128, t_final=2.0)
        base, (rho, xi, w_rho, w_xi) = run_kept(run_derivative_system, sc)
        dt = sc.dt
        # centered finite difference of z_t vs the co-integrated w field
        zt = 0.5 * (rho - xi)
        errs = []
        for k in range(1, len(base.times) - 1, 16):
            fd = (zt[k + 1] - zt[k - 1]) / (2 * dt)
            wt = 0.5 * (w_rho[k] - w_xi[k])
            errs.append(np.max(np.abs(fd - wt)[1:-1]))
        assert max(errs) < 0.2  # first-order agreement at this resolution

    def test_w_energy_monotone(self):
        sc = _scenario(n=128, t_final=4.0, p_list=(1.5, 2.0))
        traj = run_derivative_system(sc)
        for p in (1.5, 2.0):
            ew = traj.diagnostics[f"E_pw{p:g}"]
            assert np.all(ew <= ew[0] + 1e-10)

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_w_states_match_full_grid_reference(self, splitting):
        sc = _scenario(t_final=0.25, g=cubic_damping(), splitting=splitting)
        _, (rho, xi, w_rho, w_xi) = run_kept(run_derivative_system, sc)
        grid, dt = sc.grid, sc.dt
        a_nodes = sc.a.value(grid.nodes)
        zt = 0.5 * (rho - xi)
        ws = RiemannState(rho=w_rho[0], xi=w_xi[0], t=0.0)
        for k in range(sc.n_steps):
            theta_n = a_nodes * sc.g.derivative(zt[k])
            theta_np1 = a_nodes * sc.g.derivative(zt[k + 1])
            if splitting == "strang":
                ws = _reference_substep(ws, 0.5 * dt * theta_n, None)
                ws = transport_shift(ws, grid)
                ws = _reference_substep(ws, 0.5 * dt * theta_np1, None)
            else:
                ws = _reference_substep(ws, dt * theta_n, None)
                ws = transport_shift(ws, grid)
            np.testing.assert_array_equal(ws.rho, w_rho[k + 1])
            np.testing.assert_array_equal(ws.xi, w_xi[k + 1])

    def test_monotonicity_guard_trips_on_antidamping(self):
        bad = Nonlinearity(lambda s: -0.5 * s,
                           lambda s: -0.5 * np.ones_like(np.asarray(s, dtype=float)),
                           "antidamping", linear_slope=-0.5)
        sc = _scenario(g=bad, a=constant_profile(1.0), t_final=4.0)
        with pytest.raises(EnergyMonotonicityError):
            run_derivative_system(sc)

    def test_monotonicity_guard_covers_w_energy(self):
        # s - s^3 keeps g(s) s >= 0 for |s| < 1, so the base energy decays,
        # but g' < 0 for |s| > 1/sqrt(3) pumps energy into w = z_t
        sc = Scenario(
            name="t", grid=Grid(64), t_final=1.0, p_list=(2.0,),
            g=nonmonotone_example(), a=constant_profile(2.0),
            initial=InitialData(zero_function(), sine_profile(1, amplitude=0.8)))
        with pytest.raises(EnergyMonotonicityError, match="E_pw2"):
            run_derivative_system(sc)


class TestSplitKernel:
    """The traced benchmark run counts calls of solver.transport_shift and
    solver.step, so every run must reach them through the module bindings.
    It counts a step's active nodes once per array identity of its third
    positional argument, so every step gets scenario.a_nodes itself there:
    step(s, sc) would make it sample a(x) again on every step."""

    @staticmethod
    def _count(monkeypatch):
        calls, step_args = Counter(), []
        for name in ("transport_shift", "step", "_damping_substep_nodal"):
            def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
                calls[_name] += 1
                if _name != "step":
                    return _fn(*args, **kwargs)
                before = calls["transport_shift"]
                out = _fn(*args, **kwargs)
                step_args.append((args, calls["transport_shift"] - before))
                return out
            monkeypatch.setattr(solver, name, counted)
        return calls, step_args

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_runs_call_the_module_bindings(self, monkeypatch, splitting):
        sc = _scenario(n=32, t_final=0.5, splitting=splitting, record_every=4)
        n = sc.n_steps
        substeps = 2 * n if splitting == "strang" else n
        calls, step_args = self._count(monkeypatch)

        def each_step_passes(a_nodes):
            # a_nodes itself as the third positional argument, and one
            # transport_shift inside every step
            assert len(step_args) == n
            for args, transports in step_args:
                assert len(args) > 2 and args[2] is a_nodes
                assert transports == 1
            step_args.clear()
            calls.clear()

        run_simulation(sc)
        assert calls == {"transport_shift": n, "step": n,
                         "_damping_substep_nodal": substeps}
        each_step_passes(sc.a_nodes)
        run_auxiliary(sc, ThetaField(lambda t, x: np.ones_like(x), (1.0, 1.0)))
        assert calls == {"transport_shift": n, "_damping_substep_nodal": substeps}
        calls.clear()
        run_derivative_system(sc)
        assert calls == {"transport_shift": 2 * n, "step": n,
                         "_damping_substep_nodal": 2 * substeps}
        each_step_passes(sc.a_nodes)
        run_family(sc, _family(sc, (1.0, 2.0, 4.0)))
        assert calls == {"transport_shift": n, "step": n,
                         "_damping_substep_nodal": substeps}
        each_step_passes(sc.a_nodes)
        dense = replace(sc, record_every=1)
        run_auxiliary_rerun(dense)
        assert calls == {"transport_shift": 2 * n, "step": n,
                         "_damping_substep_nodal": 2 * substeps}
        each_step_passes(dense.a_nodes)

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    @pytest.mark.parametrize("g", ["identity", "arctan"])
    def test_empty_support_takes_no_damping_substep(self, monkeypatch, splitting, g):
        # a(x) = 0 damps no node: every step is the transport alone
        sc = _scenario(n=32, t_final=0.5, g=GS[g](), a=zero_profile(),
                       splitting=splitting, record_every=3)
        assert sc.support == slice(0, 0)
        state = sc.initial.riemann(sc.grid)
        undamped = [state]
        for n in range(1, sc.n_steps + 1):
            state = transport_shift(state, sc.grid)
            if n in sc.record_steps:
                undamped.append(state)
        ref = [np.array([s.rho for s in undamped]), np.array([s.xi for s in undamped])]
        ref_diag = solver._base_diagnostics(*ref, sc)
        calls, _ = self._count(monkeypatch)
        traj, rows = run_kept(run_simulation, sc)
        assert calls == {"transport_shift": sc.n_steps, "step": sc.n_steps}
        for got, want in zip(rows, ref, strict=True):
            _assert_bitwise(got, want)
        assert list(traj.diagnostics) == list(ref_diag)
        for key, series in ref_diag.items():
            _assert_bitwise(traj.diagnostics[key], series)
        calls.clear()
        _, (rho, xi, *_) = run_kept(run_derivative_system, sc)
        assert calls["_damping_substep_nodal"] == 0
        _assert_bitwise(rho, ref[0])
        _assert_bitwise(xi, ref[1])


# ---------------------------------------------------------------------------
# Record blocks. The references below are the record-by-record diagnostics,
# guard and derivative-system loop that the block evaluation replaced, with
# the 1-d energy functionals written out.
# ---------------------------------------------------------------------------

def _trap_ref(values, dx):
    return float(np.trapezoid(values, dx=dx))


def _energy_ref(rho, xi, p, dx):
    return _trap_ref((np.abs(rho) ** p + np.abs(xi) ** p) / p, dx)


def _base_diag_ref(state, sc, a_nodes):
    dx = sc.grid.dx
    z_t = state.z_t
    ag = -a_nodes * np.asarray(sc.g.value(z_t))
    diag = {}
    for p in sc.p_list:
        diag[f"E_p{p:g}"] = _energy_ref(state.rho, state.xi, p, dx)
        diag[f"dEdt_p{p:g}"] = _trap_ref(ag * (signed_power(state.rho, p - 1.0)
                                               - signed_power(state.xi, p - 1.0)), dx)
    diag["max_zt"] = float(np.max(np.abs(z_t)))
    return diag


def _aux_diag_ref(s, sc, theta):
    grid = sc.grid
    a_nodes = np.asarray(sc.a.value(grid.nodes))
    diag = {}
    for p in sc.p_list:
        th = theta(s.t, grid.nodes)
        integrand = -0.5 * a_nodes * th * (s.rho - s.xi) * (
            signed_power(s.rho, p - 1.0) - signed_power(s.xi, p - 1.0))
        diag[f"E_p{p:g}"] = _energy_ref(s.rho, s.xi, p, grid.dx)
        diag[f"dEdt_p{p:g}"] = _trap_ref(integrand, grid.dx)
    diag["max_zt"] = float(np.max(np.abs(s.z_t)))
    return diag


def _w_diag_ref(bs, ws, sc):
    dx = sc.grid.dx
    zt = bs.z_t
    zt_x = 0.5 * (ws.rho + ws.xi)
    diag = {}
    for p in sc.p_list:
        diag[f"E_pw{p:g}"] = _energy_ref(ws.rho, ws.xi, p, dx)
        diag[f"W1p_zt_p{p:g}"] = _trap_ref(
            np.abs(zt) ** p + np.abs(zt_x) ** p, dx) ** (1.0 / p)
        diag[f"Lp_zt_p{p:g}"] = _trap_ref(np.abs(zt) ** p, dx) ** (1.0 / p)
        diag[f"Lp_ztx_p{p:g}"] = _trap_ref(np.abs(zt_x) ** p, dx) ** (1.0 / p)
    return diag


def _check_monotone_ref(records, diag, t):
    first, last = records[0], records[-1]
    for key in first:
        if not key.startswith("E_p"):
            continue
        slack = MONOTONICITY_SLACK * max(1.0, first[key])
        if diag[key] > last[key] + slack:
            raise EnergyMonotonicityError(
                f"{key} increased at t = {t}: {last[key]} -> {diag[key]} "
                f"(slack {slack}, E(0) = {first[key]})")


def _recorded(sc, n):
    return (n + 1) % sc.record_every == 0 or n + 1 == sc.n_steps


def _simulate_ref(sc):
    """Record-by-record run_simulation: step, diagnose, guard."""
    a_nodes = np.asarray(sc.a.value(sc.grid.nodes))
    state = sc.initial.riemann(sc.grid)
    records = [_base_diag_ref(state, sc, a_nodes)]
    for n in range(sc.n_steps):
        state = step(state, sc, a_nodes)
        if _recorded(sc, n):
            diag = _base_diag_ref(state, sc, a_nodes)
            _check_monotone_ref(records, diag, state.t)
            records.append(diag)
    return records


def _simulation_states_ref(sc):
    """The recorded states of a hand-stepped run_simulation."""
    state = sc.initial.riemann(sc.grid)
    states = [state]
    for n in range(sc.n_steps):
        state = step(state, sc)
        if _recorded(sc, n):
            states.append(state)
    return states


def _derivative_system_ref(sc):
    """The hand-rolled co-integration loop of run_derivative_system."""
    grid, dt, g = sc.grid, sc.dt, sc.g
    a_nodes = np.asarray(sc.a.value(grid.nodes))
    support = damped_support(a_nodes)
    a_damped = a_nodes[support]
    base = sc.initial.riemann(grid)
    w_state = sc.initial.derivative_system_data(grid, a_nodes, g)

    def theta(bs):
        zt = 0.5 * (bs.rho[support] - bs.xi[support])
        return a_damped * np.asarray(g.derivative(zt))

    base_records = [_base_diag_ref(base, sc, a_nodes)]
    w_records = [_w_diag_ref(base, w_state, sc)]
    times, base_states, w_states = [0.0], [base], [w_state]
    theta_n = theta(base)
    for n in range(sc.n_steps):
        base = step(base, sc, a_nodes)
        theta_np1 = theta(base)
        # looked up on the module, as step does, so that tests can patch it
        substep = solver._damping_substep_nodal
        if sc.splitting == "strang":
            w_state = substep(_copied(w_state), 1.0 + 0.5 * dt * theta_n, support)
            w_state = transport_shift(w_state, grid)
            w_state = substep(w_state, 1.0 + 0.5 * dt * theta_np1, support)
        else:
            w_state = substep(_copied(w_state), 1.0 + dt * theta_n, support)
            w_state = transport_shift(w_state, grid)
        theta_n = theta_np1
        if _recorded(sc, n):
            base_diag = _base_diag_ref(base, sc, a_nodes)
            _check_monotone_ref(base_records, base_diag, base.t)
            w_d = _w_diag_ref(base, w_state, sc)
            _check_monotone_ref(w_records, w_d, base.t)
            times.append(base.t)
            base_records.append(base_diag)
            w_records.append(w_d)
            base_states.append(base)
            w_states.append(w_state)
    return times, (base_states, base_records), (w_states, w_records)


def _assert_bitwise(got, ref):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _assert_records(diagnostics, records):
    assert list(diagnostics) == list(records[0])
    for key, series in diagnostics.items():
        _assert_bitwise(series, [r[key] for r in records])


def _assert_states(times, rho, xi, states):
    """Row k of the kept rho and xi is states[k], at times[k]."""
    assert rho.shape == xi.shape == (len(states), len(states[0].rho))
    for k, s in enumerate(states):
        _assert_bitwise(rho[k], s.rho)
        _assert_bitwise(xi[k], s.xi)
        assert times[k] == s.t


def _row_states(times, rho, xi):
    """The kept rows of a run as states, for the per-state references."""
    return [RiemannState(rho=rho_k, xi=xi_k, t=float(t))
            for t, rho_k, xi_k in zip(times, rho, xi)]


# N = 64 takes 252 records per block; 544 steps give 545 dense records, two
# full blocks and a partial one
BLOCK_N, BLOCK_T = 64, 8.5
ALL_P = (1.0, 1.5, 2.0, 4.0)


def _block_scenario(g=None, splitting="strang", record_every=1, a=None):
    return _scenario(n=BLOCK_N, t_final=BLOCK_T, g=g, a=a, p_list=ALL_P,
                     splitting=splitting, record_every=record_every)


def _block_len(sc):
    return max(1, RECORD_BLOCK_VALUES // sc.grid.n_nodes)


def _pumping_substep(t_bad, t_fail=None):
    """The damping substep with its update reversed and amplified from t_bad
    on, so the energy rises; from t_fail on it raises NewtonError instead.
    It pumps in place, as the substep damps, from the values it copies
    before calling the real substep."""
    real = solver._damping_substep_nodal

    def substep(state, coef, support, g=None):
        if t_fail is not None and state.t >= t_fail:
            raise NewtonError(f"injected failure at t = {state.t}")
        if state.t < t_bad:
            return real(state, coef, support, g)
        rho, xi = state.rho.copy(), state.xi.copy()
        real(state, coef, support, g)
        state.rho[...] = rho + 2.0 * (rho - state.rho)
        state.xi[...] = xi + 2.0 * (xi - state.xi)
        return state

    return substep


def _violation_index(message, sc):
    t = float(message.split("at t = ")[1].split(":")[0])
    return round(t / sc.dt)


def _smooth_theta():
    return ThetaField(sampler=lambda t, x: 1.0 + 0.5 * np.sin(3.0 * t + 2.0 * np.pi * x),
                      bounds=(0.5, 1.5))


DRIVERS = ("simulation", "family", "auxiliary", "derivative_system")


def _drivers(sc, family):
    """sc's record times, record_steps * dt, and two tables keyed by
    DRIVERS: each driver as run(consume) -> its trajectories, and the rows
    its consumer gets, stacked from the hand-stepped states. They are (rho,
    xi); the family, sc with the rows `family`, stacks B > 1 rows along
    axis 1, the auxiliary run (with theta = _smooth_theta()) adds
    theta(t_k, x) and the derivative system (w_rho, w_xi)."""
    theta = _smooth_theta()

    def stack(states):
        return [np.array([s.rho for s in states]), np.array([s.xi for s in states])]

    states = _simulation_states_ref(sc)
    aux = _auxiliary_ref(sc, theta)
    _, (base, _), (w, _) = _derivative_system_ref(sc)
    solo = [stack(_simulation_states_ref(row)) for row in _solo(sc, family)]
    run = {
        "simulation": lambda consume: (run_simulation(sc, consume),),
        "family": lambda consume: run_family(sc, family, consume),
        "auxiliary": lambda consume: (run_auxiliary(sc, theta, consume),),
        "derivative_system": lambda consume: (run_derivative_system(sc, consume),),
    }
    rows = {
        "simulation": stack(states),
        "family": solo[0] if len(family) == 1
        else [np.stack(row, axis=1) for row in zip(*solo)],
        "auxiliary": [*stack(aux), np.array([theta(s.t, sc.grid.nodes) for s in aux])],
        "derivative_system": [*stack(base), *stack(w)],
    }
    return sc.record_steps * sc.dt, run, rows


class TestRecordBlocks:
    @pytest.mark.parametrize("n, record_every", [(100, 1), (96, 3), (128, 3)])
    def test_record_times_are_the_stepped_times(self, n, record_every):
        # every driver reports record k at record_steps[k] * dt. A hand-stepped
        # run's states accumulate t through transport_shift, and run_auxiliary
        # samples theta at that t: on a power-of-two grid the two agree bit
        # for bit; where dt = 1/100 and 1/96 they may differ by ulps
        sc = _scenario(n=n, t_final=2.0, record_every=record_every)
        dense = replace(sc, record_every=1)  # the rerun records every step
        family = _family(sc, (1.0, 4.0))
        theta = _smooth_theta()
        _, (base, _), (w, _) = _derivative_system_ref(sc)
        cases = [  # (scenario, hand-stepped record states, trajectories)
            (sc, [_simulation_states_ref(sc)], [run_simulation(sc)]),
            (sc, [_simulation_states_ref(row) for row in _solo(sc, family)],
             run_family(sc, family)),
            (sc, [_auxiliary_ref(sc, theta)], [run_auxiliary(sc, theta)]),
            (sc, [base, w], [run_derivative_system(sc)]),
            (dense, [_simulation_states_ref(dense)], [run_auxiliary_rerun(dense)]),
        ]
        for scenario, hand, trajs in cases:
            times = scenario.record_steps * scenario.dt
            if n & (n - 1) == 0:
                for states in hand:
                    _assert_bitwise([s.t for s in states], times)
            for traj in trajs:
                _assert_bitwise(traj.times, times)

    @pytest.mark.parametrize("n, n_steps", [
        (96, 5), (96, 4800), (3000, 7001), (3000, 7000), (777, 300_000), (100, 10_000),
        (40, 2000), (1000, 3 * 2 ** 16), (256, 2 ** 16 + 1), (256, 2 ** 16 - 1),
    ])
    @pytest.mark.parametrize("record_every", [1, 3, 997, 2 ** 16])
    def test_record_times_are_the_step_times_dt(self, n, n_steps, record_every):
        # record k is at record_steps[k] * dt, one multiply each, so the last
        # record is at n dt bit for bit, where a running sum of dt = 1/n can
        # end ulps off it (1.8e-12 short at n = 40, n_steps = 2000); where dt
        # is a power of two, the running sum is the record times too
        sc = _scenario(n=n, t_final=n_steps / n, record_every=record_every)
        assert sc.n_steps == n_steps
        _assert_bitwise(sc.record_times, sc.record_steps * sc.dt)
        assert sc.record_times[-1] == sc.t_final_actual
        if n & (n - 1) == 0:
            every_step = np.cumsum(np.append(0.0, np.full(n_steps, sc.dt)))
            _assert_bitwise(sc.record_times, every_step[sc.record_steps])

    def test_record_clock_refuses_more_than_max_steps(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_STEPS", 64)
        assert len(_scenario(n=16, t_final=4.0).record_times) == 65
        with pytest.raises(ValueError, match="65 steps, past the cap of MAX_STEPS = 64"):
            _scenario(n=16, t_final=65 / 16).record_times
        with pytest.raises(ValueError, match="past the cap"):  # before any step
            run_simulation(_scenario(n=16, t_final=65 / 16))

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_consumer_gets_each_guarded_block_once_in_order(self, driver,
                                                            monkeypatch):
        # 17 records in blocks of 3, the last one partial; the rows are views
        # into the reused buffer, so the consumer copies them. Joined, the
        # blocks are the hand-stepped states (and the auxiliary run's theta
        # at each record time).
        sc = _scenario(n=32, t_final=1.0, record_every=2)
        family = _family(sc, (1.0, 4.0))
        _, run, rows = _drivers(sc, family)
        width = len(family) if driver == "family" else 1
        monkeypatch.setattr(solver, "RECORD_BLOCK_VALUES", 3 * width * sc.grid.n_nodes)
        seen = []
        run[driver](lambda records, *block:
                    seen.append((records, [row.copy() for row in block])))
        assert [(r.start, r.stop) for r, _ in seen] == [
            (lo, min(lo + 3, 17)) for lo in range(0, 17, 3)]
        blocks = [block for _, block in seen]
        for got, ref in zip(zip(*blocks), rows[driver], strict=True):
            _assert_bitwise(np.concatenate(got), ref)

    @pytest.mark.parametrize("run", [run_simulation, run_derivative_system])
    def test_default_runs_keep_no_states(self, run):
        # N = 256, T = 6: rho and xi of 1537 records would take 6.3 MB
        sc = _scenario(n=256, t_final=6.0)
        states = 2 * len(sc.record_steps) * sc.grid.n_nodes * 8
        tracemalloc.start()
        try:
            run(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < states

    def test_block_layout_of_the_fixtures(self):
        sc = _block_scenario()
        n_records = sc.n_steps + 1
        assert n_records > 2 * _block_len(sc)
        assert n_records % _block_len(sc) != 0

    @pytest.mark.parametrize("g, splitting, record_every", [
        ("arctan", "strang", 1), ("cubic", "lie", 1),
        ("arctan", "lie", 2), ("cubic", "strang", 5)])
    def test_simulation_matches_per_record_diagnostics(self, g, splitting,
                                                        record_every):
        sc = _block_scenario(GS[g](), splitting, record_every)
        traj, (rho, xi) = run_kept(run_simulation, sc)
        a_nodes = np.asarray(sc.a.value(sc.grid.nodes))
        _assert_records(traj.diagnostics, [_base_diag_ref(s, sc, a_nodes)
                                           for s in _row_states(traj.times, rho, xi)])
        _assert_records(traj.diagnostics, _simulate_ref(sc))

    @pytest.mark.parametrize("field", ["recorded", "smooth"])
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_auxiliary_matches_per_record_diagnostics(self, splitting, field):
        # theta is captured with each record, so every record's dissipation
        # rate reads theta at its own time, for a field recorded from the
        # nonlinear run and for one given in closed form
        sc = _block_scenario(splitting=splitting)
        if field == "recorded":
            theta = theta_from_run(sc, *run_kept(run_simulation, sc)[1])
        else:
            theta = _smooth_theta()
        aux, (rho, xi, _) = run_kept(run_auxiliary, sc, theta)
        _assert_records(aux.diagnostics, [_aux_diag_ref(s, sc, theta)
                                          for s in _row_states(aux.times, rho, xi)])

    @pytest.mark.parametrize("record_every", [1, 5])
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_derivative_system_matches_hand_rolled_loop(self, splitting, record_every):
        sc = _block_scenario(cubic_damping(), splitting, record_every)
        traj, (rho, xi, w_rho, w_xi) = run_kept(run_derivative_system, sc)
        times, (base_states, base_records), (w_states, w_records) = \
            _derivative_system_ref(sc)
        _assert_bitwise(traj.times, times)
        _assert_states(times, rho, xi, base_states)
        _assert_states(times, w_rho, w_xi, w_states)
        # one table: the base run's keys, then the w = z_t system's
        _assert_records(traj.diagnostics,
                        [{**b, **w} for b, w in zip(base_records, w_records)])

    @pytest.mark.parametrize("where", ["mid_block", "first_of_block",
                                       "final_partial_block"])
    def test_injected_rise_raises_the_record_by_record_error(self, monkeypatch,
                                                             where):
        sc = _block_scenario()
        block = _block_len(sc)
        # dense records: record k is at t = k dt, and the blocks hold records
        # [0, block), [block, 2 block) and the partial [2 block, n_steps]
        k_bad = {"mid_block": block + block // 2, "first_of_block": block,
                 "final_partial_block": 2 * block + 20}[where]
        monkeypatch.setattr(solver, "_damping_substep_nodal",
                            _pumping_substep((k_bad - 0.5) * sc.dt))
        with pytest.raises(EnergyMonotonicityError) as ref:
            _simulate_ref(sc)
        with pytest.raises(EnergyMonotonicityError) as got:
            run_simulation(sc)
        assert str(got.value) == str(ref.value)
        assert _violation_index(str(ref.value), sc) == k_bad

    @pytest.mark.parametrize("where", ["mid_block", "final_partial_block"])
    def test_injected_rise_in_derivative_system(self, monkeypatch, where):
        sc = _block_scenario()
        block = _block_len(sc)
        k_bad = block // 2 if where == "mid_block" else 2 * block + 20
        monkeypatch.setattr(solver, "_damping_substep_nodal",
                            _pumping_substep((k_bad - 0.5) * sc.dt))
        with pytest.raises(EnergyMonotonicityError) as ref:
            _derivative_system_ref(sc)
        with pytest.raises(EnergyMonotonicityError) as got:
            run_derivative_system(sc)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("k_base, k_w", [(230, 210), (210, 230), (220, 220)])
    def test_rises_of_base_and_w_in_one_block(self, monkeypatch, k_base, k_w):
        # both energies rise late in the first block, which is guarded whole:
        # the earlier record is raised, and at one record the base run's
        # key, which comes first in the table
        sc = _block_scenario(cubic_damping())
        assert max(k_base, k_w) < _block_len(sc)
        base = _pumping_substep((k_base - 0.5) * sc.dt)
        w = _pumping_substep((k_w - 0.5) * sc.dt)

        def substep(state, coef, support, g=None):
            # the base run's substeps take the cubic g, the w system's none
            return (w if g is None else base)(state, coef, support, g)

        monkeypatch.setattr(solver, "_damping_substep_nodal", substep)
        with pytest.raises(EnergyMonotonicityError) as ref:
            _derivative_system_ref(sc)
        with pytest.raises(EnergyMonotonicityError) as got:
            run_derivative_system(sc)
        assert str(got.value) == str(ref.value)
        assert _violation_index(str(got.value), sc) == min(k_base, k_w)
        key = str(got.value).split()[0]
        assert key.startswith("E_p") and key.startswith("E_pw") == (k_w < k_base)

    def test_rise_before_a_failing_step_is_raised_first(self, monkeypatch):
        # the energy rises at record 100; a later step of the same block fails
        sc = _block_scenario()
        monkeypatch.setattr(solver, "_damping_substep_nodal",
                            _pumping_substep(99 * sc.dt, t_fail=150 * sc.dt))
        with pytest.raises(EnergyMonotonicityError) as ref:
            _simulate_ref(sc)
        with pytest.raises(EnergyMonotonicityError) as got:
            run_simulation(sc)
        assert str(got.value) == str(ref.value)
        with pytest.raises(EnergyMonotonicityError) as got:
            run_derivative_system(sc)
        assert str(got.value) == str(ref.value)

    def test_failing_step_without_rise_raises_its_own_error(self, monkeypatch):
        sc = _block_scenario()
        monkeypatch.setattr(solver, "_damping_substep_nodal",
                            _pumping_substep(np.inf, t_fail=150 * sc.dt))
        with pytest.raises(NewtonError, match="injected failure"):
            run_simulation(sc)

    def test_theta_bound_error_after_a_rise_in_the_same_block(self):
        sc = _block_scenario(g=identity_damping())
        t_bad, t_out = 50 * sc.dt, 120 * sc.dt

        def sampler(t, x):
            if t >= t_out:
                return np.full_like(x, 5.0)
            return np.full_like(x, 1.0 if t < t_bad else -1.0)

        with pytest.raises(EnergyMonotonicityError):
            run_auxiliary(sc, ThetaField(sampler, bounds=(-1.0, 1.0)))
        with pytest.raises(ThetaBoundError):
            run_auxiliary(sc, ThetaField(lambda t, x: sampler(t, x) ** 2,
                                         bounds=(0.0, 1.0)))


class TestRecordBuffers:
    """Property test of the record buffers: every driver and both
    splittings, with blocks of 1 to 5 records, so that runs cross block
    boundaries and end on a partial block."""

    @given(n=st.integers(8, 40), record_every=st.integers(1, 7),
           n_steps=st.integers(1, 30), block=st.integers(1, 5),
           splitting=st.sampled_from(["strang", "lie"]),
           g=st.sampled_from(sorted(GS)),
           driver=st.sampled_from(DRIVERS),
           alphas=st.lists(st.sampled_from([0.25, 1.0, 4.0, 16.0]),
                           min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_the_hand_stepped_states(self, n, record_every, n_steps,
                                              block, splitting, g, driver, alphas):
        # a family of B = len(alphas) rows is bitwise its rows' solo runs
        sc = _scenario(n=n, t_final=n_steps / n, g=GS[g](), p_list=ALL_P,
                       splitting=splitting, record_every=record_every)
        assert sc.n_steps == n_steps
        family = _family(sc, alphas)
        times, run, rows = _drivers(sc, family)
        width = len(family) if driver == "family" else 1
        kept = KeptStates(len(times))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "RECORD_BLOCK_VALUES", block * width * sc.grid.n_nodes)
            trajs = run[driver](kept)
        one_block = run[driver](None)  # the default block holds every record here
        assert _block_len(sc) // width >= len(one_block[0].times)
        for got, ref in zip(kept.rows, rows[driver], strict=True):
            _assert_bitwise(got, ref)
        if driver == "family":
            for traj, row in zip(trajs, _solo(sc, family), strict=True):
                assert traj.scenario == row
                for key, series in run_simulation(row).diagnostics.items():
                    _assert_bitwise(traj.diagnostics[key], series)
        for traj, ref_traj in zip(trajs, one_block, strict=True):
            _assert_bitwise(traj.times, times)
            assert list(traj.diagnostics) == list(ref_traj.diagnostics)
            for key, series in traj.diagnostics.items():
                _assert_bitwise(ref_traj.diagnostics[key], series)


#: prints the minor page faults of one dense N = 512 arctan run to T = argv[1]
#: in a fresh interpreter
_FAULT_PROBE = """
import resource, sys
from wavelab.core import Grid, arctan_damping, sine_profile, smooth_indicator_profile, zero_function
from wavelab.solver import InitialData, Scenario, run_simulation
sc = Scenario(name="faults", grid=Grid(512), t_final=float(sys.argv[1]), p_list=(1.5, 2.0, 4.0),
              g=arctan_damping(), a=smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
              initial=InitialData(sine_profile(1, amplitude=0.5), zero_function()))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_simulation(sc)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _run_faults(t_final):
    src = str(Path(solver.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(t_final)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return int(run.stdout)


class TestBlockHeap:
    """The record loop keeps a heap pad for its block temporaries, so a
    block's arrays are not trimmed and faulted back in by the next block."""

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_blocks_do_not_fault_their_temporaries_back_in(self):
        blocks = {}
        for t_final in (1.0, 4.0):
            sc = _scenario(n=512, t_final=t_final, p_list=(1.5, 2.0, 4.0))
            blocks[t_final] = len(list(solver.record_blocks(len(sc.record_steps),
                                                            sc.grid.n_nodes)))
        assert blocks == {1.0: 17, 4.0: 67}
        extra = _run_faults(4.0) - _run_faults(1.0)
        assert extra / (blocks[4.0] - blocks[1.0]) <= 5

    @pytest.mark.parametrize("error", [None, TypeError, OSError])
    def test_no_mallopt_is_a_no_op(self, monkeypatch, error):
        # a C library without mallopt, or none that CDLL(None) can open
        def cdll(name):
            if error is not None:
                raise error(name)
            return SimpleNamespace()

        monkeypatch.setattr(solver.ctypes, "CDLL", cdll)
        assert solver._keep_block_heap.__wrapped__() is None

    def test_top_pad_is_set_once_per_process(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(solver.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        solver._keep_block_heap.__wrapped__()
        assert calls == [(-2, 4 << 20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        calls.clear()
        solver._keep_block_heap.cache_clear()
        try:
            run_simulation(_scenario(n=16, t_final=0.5))
            run_simulation(_scenario(n=16, t_final=0.5))
        finally:
            solver._keep_block_heap.cache_clear()  # the next run sets the real pad
        assert calls == [(-2, 4 << 20)]


#: each driver that takes rates, as run(scenario, rates) -> its trajectories;
#: a family's rows scale the scenario's data by 1, 0.25 and 4
RATE_DRIVERS = {
    "simulation": lambda sc, rates: [run_simulation(sc, rates=rates)],
    "family2": lambda sc, rates: run_family(sc, _family(sc, (1.0, 0.25)), rates=rates),
    "family3": lambda sc, rates: run_family(sc, _family(sc, (1.0, 0.25, 4.0)),
                                            rates=rates),
    "derivative_system": lambda sc, rates: [run_derivative_system(sc, rates=rates)],
}


class TestRates:
    """rates=False records no dE_p/dt; every other key keeps its order and
    bits."""

    @pytest.mark.parametrize("driver", sorted(RATE_DRIVERS))
    @given(sc=_admissible_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_rates_off_drops_exactly_the_rates(self, driver, sc):
        # both splittings, p = 1 in every p_list; the w = z_t keys of the
        # derivative system are no rates, so they are all kept
        with_rates = RATE_DRIVERS[driver](sc, True)
        without = RATE_DRIVERS[driver](sc, False)
        rate_keys = {f"dEdt_p{p:g}" for p in sc.p_list}
        assert len(with_rates) == len(without)
        for full, lean in zip(with_rates, without):
            _assert_bitwise(lean.times, full.times)
            kept = [k for k in full.diagnostics if k not in rate_keys]
            assert list(lean.diagnostics) == kept
            assert set(full.diagnostics) - set(kept) == rate_keys
            for key in kept:
                _assert_bitwise(lean.diagnostics[key], full.diagnostics[key])

    @pytest.mark.parametrize("driver", sorted(RATE_DRIVERS))
    def test_rates_off_evaluates_no_dissipation_term(self, driver, monkeypatch):
        # no dissipation_rate call, and g only in the stepping: the record
        # blocks' g evaluations are gone
        sc = _scenario(n=32, t_final=1.0, p_list=ALL_P)
        nodes = Counter()
        value = sc.g.value

        def counted(s):
            nodes["g"] += np.size(s)
            return value(s)

        sc = replace(sc, g=replace(sc.g, value=counted))
        full = RATE_DRIVERS[driver](sc, True)
        g_with, nodes["g"] = nodes["g"], 0

        def refused(*args):
            raise AssertionError("dissipation_rate called with rates=False")

        monkeypatch.setattr(solver._energy, "dissipation_rate", refused)
        lean = RATE_DRIVERS[driver](sc, False)
        rows = len(full) if driver.startswith("family") else 1
        assert g_with - nodes["g"] == len(sc.record_steps) * rows * sc.grid.n_nodes
        assert len(lean) == len(full)


# N = 16, T = 5: 80 steps on 17 nodes, so a run's _Track copies its windows
# back to the ends of their buffers 4 times, after steps 17, 34, 51 and 68
RECENTER_N, RECENTER_T = 16, 5.0


class TestTrackRecentering:
    """A run's _Track shifts its windows along buffers of twice the grid's
    length and copies them back every n_nodes shifts; states on either side
    of each copy are the chains of pure step and transport_shift calls."""

    @pytest.mark.parametrize("rows", [(), (3,)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_shifted_track_is_the_chain_of_pure_shifts(self, rows, k, offset):
        grid = Grid(RECENTER_N)
        rng = np.random.default_rng(k)
        state = RiemannState(rho=rng.normal(size=(*rows, grid.n_nodes)),
                             xi=rng.normal(size=(*rows, grid.n_nodes)), t=0.0)
        track = solver._Track(state)
        for _ in range(k * grid.n_nodes + offset):
            assert transport_shift(track, grid) is track
            state = transport_shift(state, grid)
        _assert_bitwise(track.rho, state.rho)
        _assert_bitwise(track.xi, state.xi)
        assert track.t == state.t

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    @pytest.mark.parametrize("alphas", [(1.0,), (0.25, 1.0, 4.0)])
    def test_recorded_rows_are_the_pure_chains(self, splitting, alphas):
        # every driver's rows, a family of B = 1 and B = 3 among them, are
        # the hand-stepped states of _drivers, record by record
        sc = _scenario(n=RECENTER_N, t_final=RECENTER_T, splitting=splitting)
        assert sc.n_steps // sc.grid.n_nodes == 4
        _, run, rows = _drivers(sc, _family(sc, alphas))
        for driver in DRIVERS:
            kept = KeptStates(len(sc.record_steps))
            run[driver](kept)
            for got, ref in zip(kept.rows, rows[driver], strict=True):
                _assert_bitwise(got, ref)

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_auxiliary_rerun_is_the_hand_written_loops(self, splitting):
        # the rerun hands out no states: its records' energies and
        # discrepancy are those of the hand-stepped nonlinear states and of
        # the hand-written auxiliary loop with their recorded theta
        sc = _scenario(n=RECENTER_N, t_final=RECENTER_T, splitting=splitting)
        states = _simulation_states_ref(sc)
        rho = np.array([s.rho for s in states])
        xi = np.array([s.xi for s in states])
        theta = theta_from_run(sc, rho, xi)
        aux_states = _auxiliary_ref(sc, theta)
        aux_rho = np.array([s.rho for s in aux_states])
        aux_xi = np.array([s.xi for s in aux_states])
        traj = run_auxiliary_rerun(sc)
        diag = traj.diagnostics
        base_records = [_base_diag_ref(s, sc, sc.a_nodes) for s in states]
        # the rerun's energies E_py are the loop's E_p; it records no
        # dissipation rates
        aux_records = [{f"E_py{p:g}": _aux_diag_ref(s, sc, theta)[f"E_p{p:g}"]
                        for p in sc.p_list} for s in aux_states]
        assert list(diag) == [*base_records[0], *aux_records[0], "discrepancy",
                              "theta_min", "theta_max"]
        _assert_records({k: diag[k] for k in base_records[0]}, base_records)
        _assert_records({k: diag[k] for k in aux_records[0]}, aux_records)
        _assert_bitwise(diag["discrepancy"],
                        np.maximum(np.max(np.abs(rho - aux_rho), axis=1),
                                   np.max(np.abs(xi - aux_xi), axis=1)))


def _pumping_rows(starts):
    """_pumping_substep for the rows of a family: row b is pumped from
    t = starts[b] on, in place as well."""
    real = solver._damping_substep_nodal

    def substep(state, coef, support, g=None):
        rows = [b for b, t_bad in starts.items() if state.t >= t_bad]
        rho, xi = state.rho[rows], state.xi[rows]  # copies: fancy indexing
        real(state, coef, support, g)
        state.rho[rows] = rho + 2.0 * (rho - state.rho[rows])
        state.xi[rows] = xi + 2.0 * (xi - state.xi[rows])
        return state

    return substep


def _family_kept(sc, family):
    """run_family of B > 1 rows: each row's trajectory with its kept (rho, xi),
    as run_kept gives them for a solo run."""
    trajs, (rho, xi) = run_kept(run_family, sc, family)
    return [(traj, (rho[:, b], xi[:, b])) for b, traj in enumerate(trajs)]


def _assert_runs_equal(got, ref):
    """got and ref are (trajectory, kept (rho, xi)) pairs of equal scenarios."""
    (got, got_states), (ref, ref_states) = got, ref
    assert got.scenario == ref.scenario
    _assert_bitwise(got.times, ref.times)
    for new, old in zip(got_states, ref_states, strict=True):
        _assert_bitwise(new, old)
    assert list(got.diagnostics) == list(ref.diagnostics)
    for key, series in ref.diagnostics.items():
        _assert_bitwise(got.diagnostics[key], series)


class TestRunFamily:
    """The rows of a family step as one (B, n_nodes) state; each row is
    bitwise its solo run and is guarded on its own."""

    def test_rows_stop_newton_on_their_own(self):
        # with strong damping the saturating solves of alpha = 1/100 take
        # fewer Newton iterations than those of alpha = 1 and 16, so the
        # family keeps iterating after its first row has converged
        calls = []
        sat = saturating_damping()
        g = Nonlinearity(lambda s: calls.append(np.size(s)) or sat.value(s),
                         sat.derivative, sat.label)
        sc = _scenario(n=32, t_final=1.0, g=g, a=constant_profile(20.0))
        family = _family(sc, (0.01, 1.0, 16.0))
        solo, solo_calls = [], []
        for row in _solo(sc, family):
            calls.clear()
            solo.append(run_kept(run_simulation, row))
            solo_calls.append(len(calls))
        assert len(set(solo_calls)) > 1
        for got, ref in zip(_family_kept(sc, family), solo, strict=True):
            _assert_runs_equal(got, ref)

    def test_one_row_in_the_bisection_fallback(self, monkeypatch):
        # three Newton iterations suffice for the cubic at alpha = 1 but not
        # at alpha = 16, whose row alone falls back to bisection
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 3)
        bisected = []
        real = solver._bisect_damping

        def bisect(u_old, c, g, tol):
            bisected.append(u_old.size)
            return real(u_old, c, g, tol)

        monkeypatch.setattr(solver, "_bisect_damping", bisect)
        sc = _scenario(n=32, t_final=1.0, g=cubic_damping())
        family = _family(sc, (1.0, 16.0))
        solo = []
        for b, row in enumerate(_solo(sc, family)):
            bisected.clear()
            solo.append(run_kept(run_simulation, row))
            assert bool(bisected) == (b == 1)
        bisected.clear()
        for got, ref in zip(_family_kept(sc, family), solo, strict=True):
            _assert_runs_equal(got, ref)
        assert bisected

    def test_bisection_error_names_its_row(self, monkeypatch):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 3)

        def bisect(u_old, c, g, tol):
            raise NewtonError("injected bisection failure")

        monkeypatch.setattr(solver, "_bisect_damping", bisect)
        sc = _scenario(n=32, t_final=1.0, g=cubic_damping())
        family = _family(sc, (1.0, 16.0))
        with pytest.raises(NewtonError) as solo:
            run_simulation(_solo(sc, family)[1])
        assert str(solo.value) == "injected bisection failure"
        with pytest.raises(NewtonError) as got:
            run_family(sc, family)
        assert str(got.value) == "t_1: injected bisection failure"

    @pytest.mark.parametrize("starts, named", [
        ({2: 40}, 2),         # one bad row
        ({0: 60, 2: 40}, 2),  # the earlier rise is raised, not the lower row
        ({1: 40, 2: 40}, 1),  # at one time, the lower row
    ])
    def test_energy_rise_names_its_row(self, monkeypatch, starts, named):
        sc = _block_scenario()
        family = _family(sc, (1.0, 2.0, 4.0))
        t_bad = {b: (k - 0.5) * sc.dt for b, k in starts.items()}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_damping_substep_nodal", _pumping_substep(t_bad[named]))
            with pytest.raises(EnergyMonotonicityError) as solo:
                run_simulation(_solo(sc, family)[named])
        monkeypatch.setattr(solver, "_damping_substep_nodal", _pumping_rows(t_bad))
        with pytest.raises(EnergyMonotonicityError) as got:
            run_family(sc, family)
        assert str(got.value) == f"{list(family)[named]}: {solo.value}"

    @pytest.mark.parametrize("alphas", [(4.0,), (1.0, 4.0), (0.25, 1.0, 4.0)])
    def test_rows_are_the_scenario_with_their_own_data(self, alphas):
        # a family is one scenario plus each row's name and initial data, so
        # every other field of a row's scenario is the scenario's own object
        sc = _scenario(n=32, t_final=1.0)
        family = _family(sc, alphas)
        trajs = run_family(sc, family)
        for traj, (name, initial) in zip(trajs, family.items(), strict=True):
            assert traj.scenario.name == name and traj.scenario.initial is initial
            for field in ("grid", "g", "a", "p_list", "splitting"):
                assert getattr(traj.scenario, field) is getattr(sc, field)
        assert run_simulation(sc).scenario is sc
        assert run_family(sc, {}) == []

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavelab.core import (
    Grid, RiemannState, arctan_damping, bump_profile, constant_profile,
    cubic_damping, identity_damping, indicator_profile, nonmonotone_example,
    saturating_damping, signed_power, sine_profile, smooth_indicator_profile,
    zero_function, zero_profile, Nonlinearity,
)
from wavelab import solver
from wavelab.energy import energy_p
from wavelab.solver import (
    MONOTONICITY_SLACK, RECORD_BLOCK_VALUES, EnergyMonotonicityError,
    InitialData, NewtonError, Scenario, ThetaBoundError, ThetaField,
    _damping_substep_nodal, _implicit_damping_update, damped_support,
    run_auxiliary, run_derivative_system, run_simulation, step,
    theta_from_run, transport_shift,
)


def _scenario(n=64, t_final=2.0, g=None, a=None, p_list=(2.0,), amp=0.5,
              splitting="strang", record_every=1):
    return Scenario(
        name="t", grid=Grid(n), t_final=t_final, p_list=p_list,
        g=g or arctan_damping(),
        a=a or smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
        initial=InitialData(sine_profile(1, amplitude=amp), zero_function()),
        splitting=splitting, record_every=record_every)


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
        # large c forces the bisection safeguard path for the cubic
        u_old = np.array([50.0])
        c = np.array([1e6])
        u = _implicit_damping_update(u_old, c, cubic_damping())
        resid = u + c * (u + u ** 3) - u_old
        assert abs(resid[0]) <= 1e-12 * 50.0


def _reference_substep(state, c, g):
    """The damping substep on every node, with c given on the whole grid;
    g = None is the closed-form linear update u / (1 + c)."""
    u = 0.5 * (state.rho - state.xi)
    u_new = u / (1.0 + c) if g is None else _implicit_damping_update(u, c, g)
    d = u_new - u
    return RiemannState(rho=state.rho + d, xi=state.xi - d, t=state.t)


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
        out = step(state, sc)
        ref = _reference_step(state, sc)
        np.testing.assert_array_equal(out.rho, ref.rho)
        np.testing.assert_array_equal(out.xi, ref.xi)

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
        out = _damping_substep_nodal(state, c[support], support, nl)
        ref = _reference_substep(state, c, nl)
        np.testing.assert_array_equal(out.rho, ref.rho)
        np.testing.assert_array_equal(out.xi, ref.xi)

    @pytest.mark.parametrize("g", sorted(GS) + ["linear"])
    def test_zero_profile_substep_is_identity(self, g):
        grid = Grid(64)
        a_nodes = zero_profile().value(grid.nodes)
        support = damped_support(a_nodes)
        state = _random_state(grid.n_cells)
        nl = None if g == "linear" else GS[g]()
        out = _damping_substep_nodal(state, a_nodes[support], support, nl)
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
            out = _half_substep(state, g, constant_profile(2.0), nl)
            assert energy_p(out, p, g) <= e0 + 1e-12 * max(1.0, e0)

    def test_zx_untouched(self):
        g = Grid(8)
        state = RiemannState(rho=np.linspace(-1, 1, 9),
                             xi=np.linspace(1, -1, 9), t=0.0)
        out = _half_substep(state, g, constant_profile(1.0), arctan_damping())
        np.testing.assert_array_equal(out.z_x, state.z_x)


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
            traj = run_simulation(sc)
        assert traj.rho.shape == traj.xi.shape == (sc.n_steps + 1, sc.grid.n_nodes)
        walls = [0, -1]
        np.testing.assert_array_equal(traj.rho[1:, walls], traj.xi[1:, walls])

    def test_energies_monotone_both_splittings(self):
        for splitting in ("strang", "lie"):
            traj = run_simulation(_scenario(splitting=splitting,
                                            p_list=(1.0, 1.5, 2.0, 4.0)))
            for p in (1.0, 1.5, 2.0, 4.0):
                e = traj.energy_series(p)
                assert np.all(np.diff(e) <= 1e-12 * max(1.0, e[0]))

    def test_record_every_thins_output(self):
        dense = run_simulation(_scenario(record_every=1), keep_states=False)
        sparse = run_simulation(_scenario(record_every=8), keep_states=False)
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
        traj = run_simulation(sc, keep_states=False)
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


def _logged_theta(log):
    """A time-dependent theta field that appends each sample time to log."""
    def sampler(t, x):
        log.append(t)
        return 1.0 + 0.5 * np.sin(3.0 * t + 2.0 * np.pi * x)
    return ThetaField(sampler=sampler, bounds=(0.5, 1.5))


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
        return _damping_substep_nodal(s, c, support)

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
        aux = run_auxiliary(sc, _logged_theta(got_log))
        ref = _auxiliary_ref(sc, _logged_theta(ref_log))
        _assert_states(aux, ref)
        assert got_log == ref_log
        substeps = 2 if splitting == "strang" else 1
        assert len(got_log) == substeps * sc.n_steps + len(aux.times)

    def test_theta_one_matches_identity_g_bitwise(self):
        sc = _scenario(g=identity_damping(), a=constant_profile(1.5), t_final=2.0)
        nl = run_simulation(sc)
        theta = ThetaField(sampler=lambda t, x: np.ones_like(x), bounds=(1.0, 1.0))
        aux = run_auxiliary(sc, theta)
        np.testing.assert_array_equal(aux.rho, nl.rho)
        np.testing.assert_array_equal(aux.xi, nl.xi)

    def test_stronger_theta_decays_faster(self):
        sc = _scenario(g=identity_damping(), a=constant_profile(1.0), t_final=6.0)
        lo = run_auxiliary(sc, ThetaField(lambda t, x: np.full_like(x, 0.5),
                                          (0.5, 0.5)), keep_states=False)
        hi = run_auxiliary(sc, ThetaField(lambda t, x: np.full_like(x, 1.5),
                                          (1.5, 1.5)), keep_states=False)
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
            nl = run_simulation(sc)
            aux = run_auxiliary(sc, theta_from_run(nl))
            discs.append(float(np.max(np.abs(nl.rho - aux.rho))))
        order = np.log2(discs[0] / discs[1])
        assert order >= 1.8

    def test_recorded_theta_is_bound_to_its_grid(self):
        theta = theta_from_run(run_simulation(_scenario(n=64, t_final=0.5)))
        assert theta.grid == Grid(64)
        with pytest.raises(ValueError, match="bound to the run's grid"):
            run_auxiliary(_scenario(n=128, t_final=0.5), theta)

    def test_theta_from_run_needs_dense_records(self):
        traj = run_simulation(_scenario(record_every=4))
        with pytest.raises(ValueError):
            theta_from_run(traj)


class TestDerivativeSystem:
    def test_w_tracks_time_derivative_of_base(self):
        sc = _scenario(n=128, t_final=2.0)
        base, w = run_derivative_system(sc)
        dt = sc.dt
        # centered finite difference of z_t vs the co-integrated w field
        zt = 0.5 * (base.rho - base.xi)
        errs = []
        for k in range(1, len(base.times) - 1, 16):
            fd = (zt[k + 1] - zt[k - 1]) / (2 * dt)
            wt = 0.5 * (w.rho[k] - w.xi[k])
            errs.append(np.max(np.abs(fd - wt)[1:-1]))
        assert max(errs) < 0.2  # first-order agreement at this resolution

    def test_w_energy_monotone(self):
        sc = _scenario(n=128, t_final=4.0, p_list=(1.5, 2.0))
        _, w = run_derivative_system(sc, keep_states=False)
        for p in (1.5, 2.0):
            ew = w.diagnostics[f"E_pw{p:g}"]
            assert np.all(ew <= ew[0] + 1e-10)

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_w_states_match_full_grid_reference(self, splitting):
        sc = _scenario(t_final=0.25, g=cubic_damping(), splitting=splitting)
        base, w = run_derivative_system(sc)
        grid, dt = sc.grid, sc.dt
        a_nodes = sc.a.value(grid.nodes)
        zt = 0.5 * (base.rho - base.xi)
        ws = RiemannState(rho=w.rho[0], xi=w.xi[0], t=0.0)
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
            np.testing.assert_array_equal(ws.rho, w.rho[k + 1])
            np.testing.assert_array_equal(ws.xi, w.xi[k + 1])

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
    solver.step, so every run must reach them through the module bindings."""

    @staticmethod
    def _count(monkeypatch):
        calls = Counter()
        for name in ("transport_shift", "step", "_damping_substep_nodal"):
            def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        return calls

    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_runs_call_the_module_bindings(self, monkeypatch, splitting):
        sc = _scenario(n=32, t_final=0.5, splitting=splitting, record_every=4)
        n = sc.n_steps
        substeps = 2 * n if splitting == "strang" else n
        calls = self._count(monkeypatch)
        run_simulation(sc, keep_states=False)
        assert calls == {"transport_shift": n, "step": n,
                         "_damping_substep_nodal": substeps}
        calls.clear()
        run_auxiliary(sc, ThetaField(lambda t, x: np.ones_like(x), (1.0, 1.0)),
                      keep_states=False)
        assert calls == {"transport_shift": n, "_damping_substep_nodal": substeps}
        calls.clear()
        run_derivative_system(sc, keep_states=False)
        assert calls == {"transport_shift": 2 * n, "step": n,
                         "_damping_substep_nodal": 2 * substeps}


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
    diag["max_zt"] = float(np.max(np.abs(zt)))
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
        base = step(base, sc, a_nodes, support=support)
        theta_np1 = theta(base)
        # looked up on the module, as step does, so that tests can patch it
        substep = solver._damping_substep_nodal
        if sc.splitting == "strang":
            w_state = substep(w_state, 0.5 * dt * theta_n, support)
            w_state = transport_shift(w_state, grid)
            w_state = substep(w_state, 0.5 * dt * theta_np1, support)
        else:
            w_state = substep(w_state, dt * theta_n, support)
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


def _assert_states(traj, states):
    """Row k of traj.rho and traj.xi is states[k], at traj.times[k]."""
    assert traj.rho.shape == traj.xi.shape == (len(states), traj.scenario.grid.n_nodes)
    for k, s in enumerate(states):
        _assert_bitwise(traj.rho[k], s.rho)
        _assert_bitwise(traj.xi[k], s.xi)
        assert traj.times[k] == s.t


def _row_states(traj):
    """The recorded rows of traj as states, for the per-state references."""
    return [RiemannState(rho=rho, xi=xi, t=float(t))
            for t, rho, xi in zip(traj.times, traj.rho, traj.xi)]


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
    on, so the energy rises; from t_fail on it raises NewtonError instead."""
    real = solver._damping_substep_nodal

    def substep(state, c, support, g=None):
        if t_fail is not None and state.t >= t_fail:
            raise NewtonError(f"injected failure at t = {state.t}")
        out = real(state, c, support, g)
        if state.t < t_bad:
            return out
        return RiemannState(rho=state.rho + 2.0 * (state.rho - out.rho),
                            xi=state.xi + 2.0 * (state.xi - out.xi), t=state.t)

    return substep


def _violation_index(message, sc):
    t = float(message.split("at t = ")[1].split(":")[0])
    return round(t / sc.dt)


class TestRecordBlocks:
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
        traj = run_simulation(sc, keep_states=True)
        a_nodes = np.asarray(sc.a.value(sc.grid.nodes))
        _assert_records(traj.diagnostics,
                        [_base_diag_ref(s, sc, a_nodes) for s in _row_states(traj)])
        _assert_records(traj.diagnostics, _simulate_ref(sc))
        thin = run_simulation(sc, keep_states=False)
        _assert_bitwise(thin.times, traj.times)
        assert thin.rho is None and thin.xi is None
        for key in traj.diagnostics:
            _assert_bitwise(thin.diagnostics[key], traj.diagnostics[key])

    @pytest.mark.parametrize("keep_states", [True, False])
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    def test_auxiliary_matches_per_record_diagnostics(self, splitting, keep_states):
        sc = _block_scenario(splitting=splitting)
        nl = run_simulation(sc)
        theta = theta_from_run(nl)
        aux = run_auxiliary(sc, theta, keep_states=True)
        _assert_records(aux.diagnostics,
                        [_aux_diag_ref(s, sc, theta) for s in _row_states(aux)])
        if not keep_states:
            thin = run_auxiliary(sc, theta, keep_states=False)
            assert thin.rho is None and thin.xi is None
            for key in aux.diagnostics:
                _assert_bitwise(thin.diagnostics[key], aux.diagnostics[key])

    @pytest.mark.parametrize("splitting, keep_states, record_every", [
        ("strang", True, 1), ("lie", False, 1),
        ("strang", False, 5), ("lie", True, 5)])
    def test_derivative_system_matches_hand_rolled_loop(self, splitting,
                                                        keep_states, record_every):
        sc = _block_scenario(cubic_damping(), splitting, record_every)
        base, w = run_derivative_system(sc, keep_states=keep_states)
        times, (base_states, base_records), (w_states, w_records) = \
            _derivative_system_ref(sc)
        _assert_bitwise(base.times, times)
        _assert_bitwise(w.times, times)
        if keep_states:
            _assert_states(base, base_states)
            _assert_states(w, w_states)
        else:
            assert base.rho is base.xi is w.rho is w.xi is None
        _assert_records(base.diagnostics, base_records)
        _assert_records(w.diagnostics, w_records)

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


def _smooth_theta():
    return ThetaField(sampler=lambda t, x: 1.0 + 0.5 * np.sin(3.0 * t + 2.0 * np.pi * x),
                      bounds=(0.5, 1.5))


class TestRecordBuffers:
    """Property test of the record buffers: every driver, both splittings
    and both keep_states values, with blocks of 1 to 5 records, so that runs
    cross block boundaries and end on a partial block."""

    @staticmethod
    def _drivers(sc):
        """Each driver as run(keep_states) -> trajectories, with its
        hand-stepped recorded states per trajectory."""
        theta = _smooth_theta()
        _, (base, _), (w, _) = _derivative_system_ref(sc)
        return {
            "simulation": (lambda keep: (run_simulation(sc, keep),),
                           (_simulation_states_ref(sc),)),
            "auxiliary": (lambda keep: (run_auxiliary(sc, theta, keep),),
                          (_auxiliary_ref(sc, theta),)),
            "derivative_system": (lambda keep: run_derivative_system(sc, keep),
                                  (base, w)),
        }

    @given(n=st.integers(8, 40), record_every=st.integers(1, 7),
           n_steps=st.integers(1, 30), block=st.integers(1, 5),
           splitting=st.sampled_from(["strang", "lie"]),
           g=st.sampled_from(sorted(GS)),
           driver=st.sampled_from(["simulation", "auxiliary", "derivative_system"]))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_hand_stepped_states(self, n, record_every, n_steps,
                                              block, splitting, g, driver):
        sc = _scenario(n=n, t_final=n_steps / n, g=GS[g](), p_list=ALL_P,
                       splitting=splitting, record_every=record_every)
        assert sc.n_steps == n_steps
        run, refs = self._drivers(sc)[driver]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "RECORD_BLOCK_VALUES", block * sc.grid.n_nodes)
            kept, thin = run(True), run(False)
        one_block = run(True)  # the default block holds every record here
        assert _block_len(sc) >= len(one_block[0].times)
        for traj, states, thin_traj, ref_traj in zip(kept, refs, thin, one_block):
            _assert_states(traj, states)
            assert thin_traj.rho is None and thin_traj.xi is None
            _assert_bitwise(thin_traj.times, traj.times)
            for key, series in traj.diagnostics.items():
                _assert_bitwise(thin_traj.diagnostics[key], series)
                _assert_bitwise(ref_traj.diagnostics[key], series)

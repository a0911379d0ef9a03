import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavelab.core import (
    Grid, RiemannState, arctan_damping, constant_profile, cubic_damping,
    identity_damping, indicator_profile, nonmonotone_example,
    saturating_damping, sine_profile, smooth_indicator_profile, zero_function,
    zero_profile, Nonlinearity,
)
from wavelab.energy import energy_p
from wavelab.solver import (
    EnergyMonotonicityError, InitialData, Scenario, ThetaBoundError,
    ThetaField, _damping_substep_nodal, _implicit_damping_update,
    damped_support, damping_substep, run_auxiliary, run_derivative_system,
    run_simulation, step, theta_from_run, transport_shift,
)


def _scenario(n=64, t_final=2.0, g=None, a=None, p_list=(2.0,), amp=0.5,
              splitting="strang", record_every=1):
    return Scenario(
        name="t", grid=Grid(n), t_final=t_final, p_list=p_list,
        g=g or arctan_damping(),
        a=a or smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
        initial=InitialData.from_profiles(sine_profile(1, amplitude=amp),
                                          zero_function()),
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
            out = damping_substep(state, 0.5 * g.dx, constant_profile(2.0), nl, g)
            assert energy_p(out, p, g) <= e0 + 1e-12 * max(1.0, e0)

    def test_zx_untouched(self):
        g = Grid(8)
        state = RiemannState(rho=np.linspace(-1, 1, 9),
                             xi=np.linspace(1, -1, 9), t=0.0)
        out = damping_substep(state, 0.5 * g.dx, constant_profile(1.0),
                              arctan_damping(), g)
        np.testing.assert_array_equal(out.z_x, state.z_x)


class TestRunSimulation:
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

    def test_final_time_rounding(self):
        sc = _scenario(n=64, t_final=1.0)
        traj = run_simulation(sc, keep_states=False)
        assert traj.times[-1] == pytest.approx(sc.t_final_actual, abs=1e-12)
        assert sc.n_steps == 64


class TestAuxiliary:
    def test_theta_one_matches_identity_g_bitwise(self):
        sc = _scenario(g=identity_damping(), a=constant_profile(1.5), t_final=2.0)
        nl = run_simulation(sc)
        theta = ThetaField(sampler=lambda t, x: np.ones_like(x), bounds=(1.0, 1.0))
        aux = run_auxiliary(sc, theta)
        for a, b in zip(nl.states, aux.states):
            np.testing.assert_array_equal(a.rho, b.rho)
            np.testing.assert_array_equal(a.xi, b.xi)

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
            d = max(float(np.max(np.abs(a.rho - b.rho)))
                    for a, b in zip(nl.states, aux.states))
            discs.append(d)
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
        errs = []
        for k in range(1, len(base.states) - 1, 16):
            fd = (base.states[k + 1].z_t - base.states[k - 1].z_t) / (2 * dt)
            wt = 0.5 * (w.states[k].rho - w.states[k].xi)
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
        ws = w.states[0]
        for k in range(sc.n_steps):
            theta_n = a_nodes * sc.g.derivative(base.states[k].z_t)
            theta_np1 = a_nodes * sc.g.derivative(base.states[k + 1].z_t)
            if splitting == "strang":
                ws = _reference_substep(ws, 0.5 * dt * theta_n, None)
                ws = transport_shift(ws, grid)
                ws = _reference_substep(ws, 0.5 * dt * theta_np1, None)
            else:
                ws = _reference_substep(ws, dt * theta_n, None)
                ws = transport_shift(ws, grid)
            np.testing.assert_array_equal(ws.rho, w.states[k + 1].rho)
            np.testing.assert_array_equal(ws.xi, w.states[k + 1].xi)

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
            initial=InitialData.from_profiles(zero_function(),
                                              sine_profile(1, amplitude=0.8)))
        with pytest.raises(EnergyMonotonicityError, match="E_pw2"):
            run_derivative_system(sc)

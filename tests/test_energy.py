import numpy as np
import pytest

from wavelab.core import (
    NONLINEARITIES, Grid, RiemannState, arctan_damping, bump_profile,
    constant_profile, identity_damping, regime, sine_profile,
    smooth_indicator_profile, zero_function,
)
from wavelab.energy import (
    decay_fit, dissipation_rate, energy_p, energy_p_nodal, lp_norm,
    observability_ratio, phi_functional, sobolev_margin, w1p_norm,
)
from wavelab.solver import (
    MONOTONICITY_SLACK, InitialData, Scenario, run_derivative_system, run_simulation,
)


class TestEnergy:
    def test_cosine_mode_frozen_value(self):
        # rho = xi = pi cos(pi x): E_2 = int (pi cos)^2 = pi^2 / 2, and the
        # trapezoid sum is exact for this integrand on a uniform grid
        g = Grid(256)
        rho = np.pi * np.cos(np.pi * g.nodes)
        assert energy_p_nodal(rho, rho, 2.0, g.dx) == pytest.approx(
            np.pi ** 2 / 2, rel=1e-14)

    def test_p_below_one_rejected(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            energy_p_nodal(np.ones(9), np.ones(9), 0.5, g.dx)

    def test_scaling_homogeneity(self):
        g = Grid(32)
        rho = np.sin(2 * np.pi * g.nodes)
        xi = np.cos(2 * np.pi * g.nodes) - 1.0
        for p in (1.0, 1.5, 3.0):
            e1 = energy_p_nodal(rho, xi, p, g.dx)
            e2 = energy_p_nodal(2 * rho, 2 * xi, p, g.dx)
            assert e2 == pytest.approx(2 ** p * e1, rel=1e-12)


class TestDissipation:
    def test_constant_state_frozen_value(self):
        # rho = 1, xi = -1 gives z_t = 1; with a = 1, g = id, p = 2 the rate
        # is -int 1 * g(1) * (rho - xi) = -2
        g = Grid(64)
        state = RiemannState(rho=np.ones(65), xi=-np.ones(65), t=0.0)
        ag = -constant_profile(1.0).value(g.nodes) * identity_damping().value(state.z_t)
        rate = dissipation_rate(state.rho, state.xi, ag, 2.0, g.dx)
        assert rate == pytest.approx(-2.0, rel=1e-14)

    def test_nonpositive_for_monotone_g(self):
        g = Grid(64)
        rng = np.random.default_rng(7)
        a, nl = constant_profile(1.0).value(g.nodes), arctan_damping()
        for _ in range(20):
            state = RiemannState(rho=rng.normal(size=65), xi=rng.normal(size=65),
                                 t=0.0)
            ag = -a * nl.value(state.z_t)
            for p in (1.0, 1.5, 2.0, 4.0):
                assert dissipation_rate(state.rho, state.xi, ag, p, g.dx) <= 1e-14


def _power_integrand(p):
    """F = |.|^p / p, for which Phi is E_p."""
    return lambda s: np.abs(s) ** p / p


#: the shipped g the parser admits: nonmonotone fails H2
SHIPPED_GS = sorted(name for name in NONLINEARITIES if name != "nonmonotone")


class TestPhiFunctional:
    def test_phi_of_the_power_integrand_is_energy(self):
        g = Grid(32)
        rng = np.random.default_rng(11)
        state = RiemannState(rho=rng.normal(size=33), xi=rng.normal(size=33), t=0.0)
        for p in (1.5, 2.0, 4.0):
            F = _power_integrand(p)
            assert phi_functional(state.rho, state.xi, F, g.dx) == pytest.approx(
                energy_p(state, p, g), rel=1e-13)

    @pytest.mark.parametrize("F", [_power_integrand(3.0), regime(1.5)[2]],
                             ids=["power", "modified"])
    def test_stacked_rows_equal_one_dimensional_calls(self, F):
        rng = np.random.default_rng(12)
        rho, xi = rng.normal(size=(2, 9, 129))
        stacked = phi_functional(rho, xi, F, 1.0 / 128)
        rows = [phi_functional(rho[i], xi[i], F, 1.0 / 128) for i in range(9)]
        assert all(type(v) is float for v in rows)
        assert stacked.shape == (9,)
        assert stacked.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("amplitude", [0.25, 4.0])
    @pytest.mark.parametrize("p", [1.01, 1.5, 1.99])
    @pytest.mark.parametrize("splitting", ["strang", "lie"])
    @pytest.mark.parametrize("g_name", SHIPPED_GS)
    def test_modified_energy_never_rises(self, g_name, splitting, p, amplitude):
        # the modified energy Phi with F = regime(p)[2], 1 < p < 2, beyond the
        # one fixture of verify's check 10 (arctan, p = 1.5, amplitude 0.25)
        sc = Scenario(name="phi", grid=Grid(64), t_final=4.0, p_list=(p,),
                      g=NONLINEARITIES[g_name](),
                      a=smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
                      initial=InitialData(bump_profile(), sine_profile(2)).scaled(amplitude),
                      splitting=splitting)
        F = regime(p)[2]
        phis: list = []  # Phi of each record block
        run_simulation(sc, consume=lambda records, rho, xi: phis.append(
            phi_functional(rho, xi, F, sc.grid.dx)), rates=False)
        phi = np.concatenate(phis)
        assert len(phi) == len(sc.record_times) and phi[0] > 0.0
        assert np.max(np.diff(phi)) <= MONOTONICITY_SLACK * max(1.0, phi[0])


class TestNorms:
    def test_lp_norm_constant(self):
        g = Grid(16)
        assert lp_norm(2 * np.ones(17), 3.0, g.dx) == pytest.approx(2.0, rel=1e-13)

    def test_w1p_dominates_lp(self):
        g = Grid(32)
        v = np.sin(np.pi * g.nodes)
        d = np.pi * np.cos(np.pi * g.nodes)
        assert w1p_norm(v, d, 2.0, g.dx) >= lp_norm(v, 2.0, g.dx)


class TestDecayFit:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0, 10, 201)
        e = 3.0 * np.exp(-0.7 * t)
        fit = decay_fit(t, e, (1.0, 9.0))
        assert fit.rate == pytest.approx(0.7, rel=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_floor_discards_noise_tail(self):
        t = np.linspace(0, 10, 201)
        e = np.exp(-5.0 * t) + 1e-16
        fit = decay_fit(t, e, (0.0, 10.0))
        assert fit.n_points < len(t)
        assert fit.rate == pytest.approx(5.0, rel=1e-3)

    def test_too_few_points_rejected(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            decay_fit(t, np.exp(-t), (0.0, 1.0))


class TestObservability:
    def _synthetic(self, rate=0.5):
        class T:
            times = np.linspace(0, 20, 801)
            diagnostics = {"E_p2": np.exp(-rate * times)}
        return T()

    def test_exponential_gives_uniform_ratio(self):
        traj = self._synthetic()
        r0 = observability_ratio(traj, 2.0, (0.0, 10.0))
        r5 = observability_ratio(traj, 2.0, (5.0, 15.0))
        assert r0 == pytest.approx(r5, rel=1e-6)
        assert r0 == pytest.approx((1 - np.exp(-5.0)) / 0.5, rel=1e-3)

    def test_window_bounded_by_length(self):
        traj = self._synthetic(rate=0.01)
        assert observability_ratio(traj, 2.0, (0.0, 10.0)) <= 10.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="^must be 'S, T' with 0 <= S < T$"):
            observability_ratio(self._synthetic(), 2.0, (15.0, 5.0))

    def test_window_between_two_records_rejected(self):
        # records 0.025 apart: (5.001, 5.002) holds none of them, and
        # (5.001, 5.06) the two at 5.025 and 5.05
        traj = self._synthetic()
        with pytest.raises(ValueError, match=r"^\(5.001, 5.002\) holds 0 "
                           r"record\(s\); the observability ratio needs at least 2$"):
            observability_ratio(traj, 2.0, (5.001, 5.002))
        assert observability_ratio(traj, 2.0, (5.001, 5.06)) > 0.0

    def test_vanished_energy_at_s_rejected(self):
        traj = self._synthetic()
        traj.diagnostics = {"E_p2": np.where(traj.times < 5.0, 1.0, 0.0)}
        with pytest.raises(ValueError, match="not positive"):
            observability_ratio(traj, 2.0, (5.0, 15.0))


class TestSobolevCheck:
    def test_on_derivative_run(self):
        sc = Scenario(name="s", grid=Grid(128), t_final=4.0, p_list=(2.0,),
                      g=arctan_damping(), a=constant_profile(1.0),
                      initial=InitialData(
                          sine_profile(1, amplitude=0.5), zero_function()))
        traj = run_derivative_system(sc)
        margin = sobolev_margin(traj, 2.0)
        c_p = (2.0 * traj.diagnostics["E_pw2"][0]) ** 0.5
        assert margin == float(np.min(c_p - traj.diagnostics["W1p_zt_p2"]))
        assert margin >= -1e-10
        assert c_p > 0.0
        assert np.max(traj.diagnostics["max_zt"]) <= c_p  # the embedding at desk scale


class TestStackedDiagnostics:
    """The nodal diagnostics reduce (..., n_nodes) along the last axis; each
    row equals the 1-d call on that row bit for bit, and 1-d calls return
    floats."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_rows_equal_one_dimensional_calls(self, n, p):
        rng = np.random.default_rng(n)
        rho, xi, ag = (rng.normal(size=(7, n + 1)) for _ in range(3))
        dx = 1.0 / n
        cases = {
            "energy": (energy_p_nodal, lambda r, x, a: (r, x, p, dx)),
            "dissipation": (dissipation_rate, lambda r, x, a: (r, x, a, p, dx)),
            "lp": (lp_norm, lambda r, x, a: (r, p, dx)),
            "w1p": (w1p_norm, lambda r, x, a: (r, x, p, dx)),
        }
        for fn, args in cases.values():
            stacked = fn(*args(rho, xi, ag))
            rows = [fn(*args(rho[i], xi[i], ag[i])) for i in range(7)]
            assert all(type(v) is float for v in rows)
            assert stacked.shape == (7,)
            assert stacked.tobytes() == np.array(rows).tobytes()

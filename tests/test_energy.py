import numpy as np
import pytest

from wavelab.core import (
    Grid, RiemannState, arctan_damping, constant_profile, identity_damping,
    signed_power, sine_profile, zero_function,
)
from wavelab.energy import (
    ConvexFunctional, decay_fit, dissipation_rate, energy_p, energy_p_nodal,
    lp_norm, modified_energy_functional, observability_ratio, phi_functional,
    sobolev_margin, w1p_norm,
)
from wavelab.solver import InitialData, Scenario, run_derivative_system


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
    return ConvexFunctional(F=lambda s: np.abs(s) ** p / p,
                            F_prime=lambda s: signed_power(s, p - 1.0),
                            label=f"|.|^{p:g}/{p:g}")


class TestConvexFunctionals:
    def test_phi_of_the_power_integrand_is_energy(self):
        g = Grid(32)
        rng = np.random.default_rng(11)
        state = RiemannState(rho=rng.normal(size=33), xi=rng.normal(size=33), t=0.0)
        for p in (1.5, 2.0, 4.0):
            F = _power_integrand(p)
            F.validate()
            assert phi_functional(state.rho, state.xi, F, g.dx) == pytest.approx(
                energy_p(state, p, g), rel=1e-13)

    @pytest.mark.parametrize("F", [_power_integrand(3.0),
                                   modified_energy_functional(1.5)],
                             ids=["power", "modified"])
    def test_stacked_rows_equal_one_dimensional_calls(self, F):
        rng = np.random.default_rng(12)
        rho, xi = rng.normal(size=(2, 9, 129))
        stacked = phi_functional(rho, xi, F, 1.0 / 128)
        rows = [phi_functional(rho[i], xi[i], F, 1.0 / 128) for i in range(9)]
        assert all(type(v) is float for v in rows)
        assert stacked.shape == (9,)
        assert stacked.tobytes() == np.array(rows).tobytes()

    def test_modified_functional_validates(self):
        modified_energy_functional(1.5).validate()
        modified_energy_functional(1.01).validate()

    def test_nonconvex_integrand_rejected(self):
        bad = ConvexFunctional(F=lambda s: -np.asarray(s) ** 2,
                               F_prime=lambda s: -2 * np.asarray(s), label="bad")
        with pytest.raises(ValueError):
            bad.validate()

    def test_shifted_integrand_rejected(self):
        bad = ConvexFunctional(F=lambda s: np.asarray(s) ** 2 + 1.0,
                               F_prime=lambda s: 2 * np.asarray(s), label="shifted")
        with pytest.raises(ValueError):
            bad.validate()


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
        traj, w = run_derivative_system(sc)
        margin = sobolev_margin(w, 2.0)
        c_p = (2.0 * w.diagnostics["E_pw2"][0]) ** 0.5
        assert margin == float(np.min(c_p - w.diagnostics["W1p_zt_p2"]))
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

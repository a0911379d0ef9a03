import numpy as np
import pytest

from wavelab.core import (
    Grid, arctan_damping, cumulative_trapezoid, make_localization, nu_ratio,
    sine_profile, smooth_indicator_profile, zero_function,
)
from wavelab.energy import trapezoid
from wavelab.multipliers import (
    ETAS, _regime_functions, _window_indices, elliptic_solve, multiplier_terms,
    record_window,
)
from wavelab.solver import InitialData, Scenario, run_simulation


def _elliptic_solve_1d(h, grid):
    """Reference: the one-right-hand-side solve, written out."""
    xs = grid.nodes
    dx = grid.dx
    cum_h = np.concatenate(([0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * dx)))
    sh = xs * h
    cum_sh = np.concatenate(([0.0], np.cumsum(0.5 * (sh[1:] + sh[:-1]) * dx)))
    return xs * cum_h - cum_sh - xs * (cum_h[-1] - cum_sh[-1])


def _multiplier_terms_per_record(traj, triple, p, window, theta=None):
    """Reference: multiplier_terms with the rows, theta, z and the elliptic
    multiplier built one record at a time. Returns (terms, int_energy, energy_at_s,
    chain constants without the eta row)."""
    grid = traj.scenario.grid
    xs = grid.nodes
    dx = grid.dx
    f, fprime, big_f = _regime_functions(p)
    idx = _window_indices(traj, window)
    times = traj.times[idx]
    rho = np.stack([traj.rho[i] for i in idx])
    xi = np.stack([traj.xi[i] for i in idx])
    a_nodes = np.asarray(traj.scenario.a.value(xs))
    if theta is None:
        theta_w = np.stack([nu_ratio(0.5 * (rho_k - xi_k), traj.scenario.g)
                            for rho_k, xi_k in zip(rho, xi)])
    else:
        theta_w = np.asarray(theta)[idx]
    q1_mask = xs > triple.q1[0]
    q2_mask = xs > triple.q2[0]
    xpsi = xs * triple.psi_nodes
    one_minus = np.abs(1.0 - triple.xpsi_x(xs))
    y = np.stack([cumulative_trapezoid(0.5 * (rho_k + xi_k), dx)
                  for rho_k, xi_k in zip(rho, xi)])
    f_rho, f_xi = f(rho), f(xi)
    big_rho, big_xi = big_f(rho), big_f(xi)
    diff = rho - xi
    atheta = a_nodes[None, :] * theta_w

    def space_int(integrand, mask=None):
        if mask is not None:
            integrand = integrand * mask[None, :]
        return np.trapezoid(integrand, dx=dx, axis=1)

    def time_int(series):
        return float(np.trapezoid(series, times))

    energies = space_int((np.abs(rho) ** p + np.abs(xi) ** p) / p)
    int_energy = time_int(energies)
    energy_at_s = float(energies[0])
    s4 = time_int(space_int(big_rho + big_xi, q1_mask))
    t5 = time_int(space_int(np.abs(y) ** p, q2_mask))
    bracket = space_int((f_rho - f_xi) * y)
    v = np.stack([_elliptic_solve_1d(triple.beta_nodes * f_yk, grid)
                  for f_yk in f(y)])
    v_t = np.gradient(v, times, axis=0)
    bracket_v = space_int(v * diff)
    terms = {
        "S1": time_int(space_int(one_minus[None, :] * (big_rho + big_xi), q1_mask)),
        "S2": trapezoid(np.abs(xpsi) * np.abs(
            (big_rho[-1] - big_xi[-1]) - (big_rho[0] - big_xi[0])), dx),
        "S3": 0.5 * time_int(space_int(
            np.abs(atheta * xpsi[None, :]) * np.abs(f_rho + f_xi) * np.abs(diff))),
        "S4": s4,
        "T1": time_int(space_int(np.abs(y) * (np.abs(f_rho) + np.abs(f_xi)), q2_mask)),
        "T2": abs(float(bracket[-1] - bracket[0])),
        "T3": time_int(space_int(
            np.abs((fprime(rho) + fprime(xi)) * y * atheta * diff), q2_mask)),
        "T4": time_int(space_int(
            np.abs(triple.phi_nodes[None, :] * diff * (f_rho - f_xi)))),
        "T5": t5,
        "V1": abs(float(bracket_v[-1] - bracket_v[0])),
        "V2": time_int(space_int(np.abs(v_t) * np.abs(diff))),
        "V3": time_int(space_int(np.abs(v * atheta * diff))),
    }
    chain = {
        "first_set": int_energy / max(energy_at_s + s4, 1e-300),
        "third_multiplier": t5 / max(int_energy + energy_at_s, 1e-300),
    }
    return terms, int_energy, energy_at_s, chain


class TestEllipticSolve:
    def test_constant_forcing_exact(self):
        g = Grid(128)
        v = elliptic_solve(np.ones(g.n_nodes), g)
        xs = g.nodes
        np.testing.assert_allclose(v, 0.5 * xs * (xs - 1.0), atol=1e-14)
        assert v[g.n_cells // 2] == pytest.approx(-0.125, rel=1e-13)

    def test_dirichlet_walls(self):
        g = Grid(64)
        v = elliptic_solve(np.exp(g.nodes), g)
        assert v[0] == 0.0
        assert abs(v[-1]) <= 1e-14

    def test_discrete_second_difference_reproduces_forcing(self):
        # the cumulative-trapezoid Green form telescopes exactly
        g = Grid(64)
        h = np.exp(g.nodes) * np.cos(3 * g.nodes)
        v = elliptic_solve(h, g)
        resid = (v[:-2] - 2 * v[1:-1] + v[2:]) / g.dx ** 2 - h[1:-1]
        assert np.max(np.abs(resid)) <= 1e-11

    def test_linearity(self):
        g = Grid(32)
        h1 = np.sin(np.pi * g.nodes)
        h2 = g.nodes * (1 - g.nodes)
        lhs = elliptic_solve(2.0 * h1 - 3.0 * h2, g)
        rhs = 2.0 * elliptic_solve(h1, g) - 3.0 * elliptic_solve(h2, g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_second_order_against_exact_solution(self):
        errs = []
        for n in (64, 128):
            g = Grid(n)
            v = elliptic_solve(np.pi ** 2 * np.sin(np.pi * g.nodes), g)
            errs.append(np.max(np.abs(v + np.sin(np.pi * g.nodes))))
        assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)

    def test_multiplier_wrapper_signs(self):
        # nonnegative forcing f(y) >= 0 (beta = 1) gives v <= 0
        g = Grid(64)
        y = np.sin(np.pi * g.nodes)
        v = elliptic_solve(_regime_functions(2.0)[0](y), g)
        assert np.all(v <= 1e-15)

    def test_one_row_matches_reference(self):
        g = Grid(64)
        h = np.exp(g.nodes) * np.cos(3 * g.nodes)
        np.testing.assert_array_equal(elliptic_solve(h, g), _elliptic_solve_1d(h, g))

    def test_batched_rows_equal_one_row_solves(self):
        g = Grid(96)
        rng = np.random.default_rng(7)
        h = rng.standard_normal((2, 5, g.n_nodes))
        v = elliptic_solve(h, g)
        assert v.shape == h.shape
        for i in range(2):
            for k in range(5):
                np.testing.assert_array_equal(v[i, k], elliptic_solve(h[i, k], g))
                np.testing.assert_array_equal(v[i, k], _elliptic_solve_1d(h[i, k], g))

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            _regime_functions(1.0)


@pytest.fixture(scope="module")
def localized_run():
    sc = Scenario(name="mult", grid=Grid(128), t_final=6.0, p_list=(1.5, 2.0),
                  g=arctan_damping(),
                  a=smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
                  initial=InitialData(sine_profile(1, amplitude=0.5), zero_function()))
    traj = run_simulation(sc)
    triple = make_localization((sc.a.omega[0], 1.0), None, sc.grid)
    return traj, triple


class TestMultiplierTerms:
    def test_all_terms_finite_and_nonnegative(self, localized_run):
        traj, triple = localized_run
        rep = multiplier_terms(record_window(traj, (0.0, 6.0)), triple, 2.0)
        assert set(rep.terms) == {"S1", "S2", "S3", "S4",
                                  "T1", "T2", "T3", "T4", "T5",
                                  "V1", "V2", "V3"}
        for name, value in rep.terms.items():
            assert np.isfinite(value) and value >= 0.0, name

    def test_regime_labels(self, localized_run):
        traj, triple = localized_run
        records = record_window(traj, (0.0, 6.0))
        assert multiplier_terms(records, triple, 2.0).regime == "p_geq_2"
        assert multiplier_terms(records, triple, 1.5).regime == "p_in_1_2"

    def test_observability_chain_constant_bounded(self, localized_run):
        # int_S^T E_p dt <= C (E_p(S) + S4): the empirical C must stay modest
        traj, triple = localized_run
        rep = multiplier_terms(record_window(traj, (0.0, 6.0)), triple, 2.0)
        assert 0.0 < rep.chain_constants["first_set"] <= 6.0  # window length

    def test_s4_bounded_by_full_energy_integral(self, localized_run):
        # S4 integrates the same density as E_p but only over Q1
        traj, triple = localized_run
        rep = multiplier_terms(record_window(traj, (0.0, 6.0)), triple, 2.0)
        assert rep.terms["S4"] <= 2.0 * rep.int_energy + 1e-12

    def test_eta_table_tracks_young_inequality(self, localized_run):
        traj, triple = localized_run
        rep = multiplier_terms(record_window(traj, (0.0, 6.0)), triple, 2.0)
        assert tuple(rep.eta_table) == ETAS
        for eta, row in rep.eta_table.items():
            assert row["second_set"] >= 0.0
        assert rep.chain_constants["second_set_eta1"] == rep.eta_table[1.0]["second_set"]

    def test_window_outside_run_rejected(self, localized_run):
        traj, triple = localized_run
        with pytest.raises(ValueError):
            record_window(traj, (0.0, 60.0))

    def test_needs_kept_states(self):
        sc = Scenario(name="thin", grid=Grid(64), t_final=2.0, p_list=(2.0,),
                      g=arctan_damping(),
                      a=smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
                      initial=InitialData(
                          sine_profile(1, amplitude=0.5), zero_function()))
        traj = run_simulation(sc, keep_states=False)
        with pytest.raises(ValueError):
            record_window(traj, (0.0, 2.0))

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("explicit_theta", [False, True])
    def test_equals_per_record_reference(self, localized_run, p, explicit_theta):
        traj, triple = localized_run
        theta = None
        if explicit_theta:
            rng = np.random.default_rng(3)
            theta = rng.uniform(0.5, 1.5, (len(traj.times), traj.scenario.grid.n_nodes))
        window = (0.5, 5.0)
        rep = multiplier_terms(record_window(traj, window, theta), triple, p)
        terms, int_energy, energy_at_s, chain = _multiplier_terms_per_record(
            traj, triple, p, window, theta=theta)
        assert rep.terms == terms
        assert rep.int_energy == int_energy
        assert rep.energy_at_s == energy_at_s
        for key, value in chain.items():
            assert rep.chain_constants[key] == value

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wavelab import solver
from wavelab.core import (
    NONLINEARITIES, Grid, cumulative_trapezoid, make_localization,
    nu_ratio, regime, sine_profile, smooth_indicator_profile, zero_function,
)
from wavelab.energy import trapezoid, window_rows
from wavelab.multipliers import ETAS, MIN_RECORDS, MultiplierStream, elliptic_solve
from wavelab.solver import InitialData, Scenario, run_simulation

from kept import run_kept


def _elliptic_solve_1d(h, grid):
    """Reference: the one-right-hand-side solve, written out."""
    xs = grid.nodes
    dx = grid.dx
    cum_h = np.concatenate(([0.0], np.cumsum(0.5 * (h[1:] + h[:-1]) * dx)))
    sh = xs * h
    cum_sh = np.concatenate(([0.0], np.cumsum(0.5 * (sh[1:] + sh[:-1]) * dx)))
    return xs * cum_h - cum_sh - xs * (cum_h[-1] - cum_sh[-1])


def _kept_terms(scenario, states, window, block=None):
    """The terms on a run's kept states (rho, xi): a MultiplierStream fed
    `block` records at a time, by default the whole run at once."""
    rho, xi = states
    stream = MultiplierStream(scenario, window)
    n_records = len(rho)
    for lo in range(0, n_records, block or n_records):
        rows = slice(lo, min(lo + (block or n_records), n_records))
        stream(rows, rho[rows], xi[rows])
    return stream.reports()


def _streamed_terms(scenario, window):
    """The terms of a run that keeps no states, fed block by block."""
    stream = MultiplierStream(scenario, window)
    run_simulation(scenario, consume=stream)
    return stream.reports()


def _only(traj, *p_list):
    """traj's scenario with the exponents p_list."""
    return replace(traj.scenario, p_list=p_list)


def _multiplier_terms_per_record(traj, states, p, window):
    """Reference: the multiplier terms with the rows, theta = nu(z_t), z and the
    elliptic multiplier built one record at a time. Returns (terms, int_energy,
    energy_at_s, chain constants without the eta row)."""
    grid = traj.scenario.grid
    xs = grid.nodes
    dx = grid.dx
    f, fprime, big_f = regime(p)
    idx = np.arange(len(traj.times))[window_rows(traj.times, window)]
    times = traj.times[idx]
    rho = np.stack([states[0][i] for i in idx])
    xi = np.stack([states[1][i] for i in idx])
    a_nodes = np.asarray(traj.scenario.a.value(xs))
    theta_w = np.stack([nu_ratio(0.5 * (rho_k - xi_k), traj.scenario.g)
                        for rho_k, xi_k in zip(rho, xi)])
    w = make_localization(traj.scenario.a.omega[0], None, grid)
    q1_mask, q2_mask, xpsi, one_minus = w.q1_mask, w.q2_mask, w.xpsi, w.one_minus
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
    v = np.stack([_elliptic_solve_1d(w.beta * f_yk, grid)
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
            np.abs(w.phi[None, :] * diff * (f_rho - f_xi)))),
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
        v = elliptic_solve(regime(2.0)[0](y), g)
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
            regime(1.0)


@pytest.fixture(scope="module",
                params=[(1, "arctan"), (7, "arctan"), (1, "cubic"), (7, "cubic")],
                ids=["uniform", "nonuniform", "uniform-cubic", "nonuniform-cubic"])
def short_run(request):
    """65 records one step apart, or 11 records seven steps apart but for the
    last, one step after the one before it: np.gradient takes its uniform or
    its non-uniform formula from the times of the whole window. theta =
    nu(z_t) lies in (0, 1] for arctan damping and in [1, oo) for cubic."""
    record_every, law = request.param
    sc = Scenario(name="short", grid=Grid(32), t_final=2.0, p_list=(1.5, 2.0, 4.0),
                  g=NONLINEARITIES[law](),
                  a=smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
                  initial=InitialData(sine_profile(1, amplitude=0.5), zero_function()),
                  record_every=record_every)
    traj, states = run_kept(run_simulation, sc)
    steps = np.unique(np.diff(traj.times))
    assert len(steps) == (1 if record_every == 1 else 2)
    return traj, states


@pytest.fixture(scope="module")
def localized_run(request):
    """An arctan-damped run, or one of the damping law given as the
    fixture's indirect parameter."""
    sc = Scenario(name="mult", grid=Grid(128), t_final=6.0, p_list=(1.5, 2.0),
                  g=NONLINEARITIES[getattr(request, "param", "arctan")](),
                  a=smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
                  initial=InitialData(sine_profile(1, amplitude=0.5), zero_function()))
    return run_kept(run_simulation, sc)


class TestMultiplierTerms:
    def test_all_terms_finite_and_nonnegative(self, localized_run):
        traj, states = localized_run
        [rep] = _kept_terms(_only(traj, 2.0), states, (0.0, 6.0)).values()
        assert set(rep["terms"]) == {"S1", "S2", "S3", "S4",
                                     "T1", "T2", "T3", "T4", "T5",
                                     "V1", "V2", "V3"}
        for name, value in rep["terms"].items():
            assert np.isfinite(value) and value >= 0.0, name

    def test_regime_labels(self, localized_run):
        traj, states = localized_run
        tables = _kept_terms(_only(traj, 2.0, 1.5), states, (0.0, 6.0))
        assert list(tables) == ["2", "1.5"]
        assert [rep["regime"] for rep in tables.values()] == ["p_geq_2", "p_in_1_2"]

    def test_observability_chain_constant_bounded(self, localized_run):
        # int_S^T E_p dt <= C (E_p(S) + S4): the empirical C must stay modest
        traj, states = localized_run
        [rep] = _kept_terms(_only(traj, 2.0), states, (0.0, 6.0)).values()
        assert 0.0 < rep["chain_constants"]["first_set"] <= 6.0  # window length

    def test_s4_bounded_by_full_energy_integral(self, localized_run):
        # S4 integrates the same density as E_p but only over Q1
        traj, states = localized_run
        [rep] = _kept_terms(_only(traj, 2.0), states, (0.0, 6.0)).values()
        assert rep["terms"]["S4"] <= 2.0 * rep["int_energy"] + 1e-12

    def test_eta_table_tracks_young_inequality(self, localized_run):
        traj, states = localized_run
        [rep] = _kept_terms(_only(traj, 2.0), states, (0.0, 6.0)).values()
        assert list(rep["eta_table"]) == [f"{eta:g}" for eta in ETAS]
        for eta, row in rep["eta_table"].items():
            assert row["second_set"] >= 0.0
        assert (rep["chain_constants"]["second_set_eta1"]
                == rep["eta_table"]["1"]["second_set"])

    def test_window_outside_run_rejected(self, localized_run):
        traj, _ = localized_run
        with pytest.raises(ValueError, match="^T = 60 is past the final time 6$"):
            MultiplierStream(_only(traj, 2.0), (0.0, 60.0))

    def test_too_few_records_rejected_before_the_run(self, localized_run):
        traj, _ = localized_run
        dt = traj.scenario.dt
        with pytest.raises(ValueError, match=r"^\(0.0078125, 0.0195312\) holds 2 record\(s\); "
                           "the multiplier terms need at least 3$"):
            MultiplierStream(_only(traj, 2.0), (dt, 2.5 * dt))

    def test_reports_need_the_window_end(self, localized_run):
        # a run that stops short of the window's last record has no V1
        traj, states = localized_run
        stream = MultiplierStream(_only(traj, 2.0), (0.5, 5.0))
        rho, xi = states
        stream(slice(0, 600), rho[:600], xi[:600])
        with pytest.raises(ValueError, match="has not passed the window"):
            stream.reports()
        stream(slice(600, len(traj.times)), rho[600:], xi[600:])
        assert stream.reports() == _kept_terms(_only(traj, 2.0), states, (0.5, 5.0))

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("localized_run", ["arctan", "cubic"], indirect=True)
    def test_equals_per_record_reference(self, localized_run, p):
        traj, states = localized_run
        window = (0.5, 5.0)
        [rep] = _kept_terms(_only(traj, p), states, window).values()
        terms, int_energy, energy_at_s, chain = _multiplier_terms_per_record(
            traj, states, p, window)
        assert rep["terms"] == terms
        assert rep["int_energy"] == int_energy
        assert rep["energy_at_s"] == energy_at_s
        for key, value in chain.items():
            assert rep["chain_constants"][key] == value

    @pytest.mark.parametrize("inside", [False, True], ids=["whole", "inside"])
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_record_blocks_do_not_change_a_bit(self, short_run, block, inside,
                                               monkeypatch):
        # the run hands out blocks of 1, 2 and 3 records, the last one
        # partial; the kept states go in as one block. A window inside the
        # run has records on both sides that the halo of v_t must not read.
        traj, states = short_run
        window = (0.2, 1.55) if inside else (0.0, float(traj.times[-1]))
        rows = window_rows(traj.times, window)
        n_records, n_nodes = rows.stop - rows.start, traj.scenario.grid.n_nodes
        assert (n_records < len(traj.times)) == inside
        assert n_records % 2 and n_records % 3
        assert solver.RECORD_BLOCK_VALUES // n_nodes >= n_records
        sc = traj.scenario
        whole = _kept_terms(sc, states, window)
        monkeypatch.setattr(solver, "RECORD_BLOCK_VALUES", block * n_nodes)
        assert _streamed_terms(sc, window) == whole
        assert _kept_terms(sc, states, window, block) == whole
        assert list(whole) == [f"{p:g}" for p in sc.p_list]
        for p, rep in zip(sc.p_list, whole.values()):
            terms, int_energy, energy_at_s, chain = _multiplier_terms_per_record(
                traj, states, p, window)
            assert (rep["terms"], rep["int_energy"], rep["energy_at_s"]) == (
                terms, int_energy, energy_at_s)
            assert chain.items() <= rep["chain_constants"].items()

    @pytest.mark.parametrize("localized_run", ["arctan", "cubic"], indirect=True)
    def test_peak_memory_does_not_grow_with_the_window(self, localized_run):
        # every array of the terms is one record block long (plus the halo),
        # so a window three times longer adds no more than a few blocks and
        # the per-record series: the run keeps no states
        traj, _ = localized_run
        sc = traj.scenario
        block = ((solver.RECORD_BLOCK_VALUES // sc.grid.n_nodes + 2)
                 * sc.grid.n_nodes * 8)
        peaks = []
        for t in (2.0, 6.0):
            tracemalloc.start()
            try:
                _streamed_terms(replace(sc, t_final=t), (0.0, t))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * block


    def test_window_is_a_slice_of_the_kept_states(self, localized_run):
        traj, _ = localized_run
        times = traj.times
        for s, t in [(0.0, 6.0), (0.5, 5.0), (1.0 + 1e-13, 2.0 - 1e-13), (0.3, 0.33)]:
            ref = np.where((times >= s - 1e-12) & (times <= t + 1e-12))[0]
            np.testing.assert_array_equal(
                np.arange(len(times))[window_rows(times, (s, t))], ref)


#: (N, record_every, window, records per block or None for the default) of
#: each case whose streamed terms must equal those of the kept states; every
#: run has t_final = 2
STREAM_CASES = {
    # 257 records in blocks of 127: the window starts and ends inside blocks
    "mid-run": (128, 1, (0.5, 1.5), None),
    # k dt = k / 100 rounds unevenly: np.gradient's non-uniform formula
    "N=100": (100, 1, (0.0, 2.0), None),
    # records 32, 33 | 34 across a block edge
    "MIN_RECORDS": (64, 1, (0.5, 0.5 + 2 / 64), 2),
    # blocks of 8 records: the window starts on a block edge (record 16)
    # and ends inside a block (record 45), then the reverse (5 to 39)
    "edge-start": (32, 1, (0.5, 45 / 32), 8),
    "edge-end": (32, 1, (5 / 32, 39 / 32), 8),
    # records 3 steps apart but for the last, 2 steps after the one before
    "record_every=3": (64, 3, (0.25, 2.0), 5),
}


@pytest.mark.parametrize("case", STREAM_CASES)
@pytest.mark.parametrize("law", ["arctan", "cubic"])
def test_streamed_terms_equal_the_kept_states_bitwise(case, law, monkeypatch):
    n, record_every, window, block = STREAM_CASES[case]
    sc = Scenario(name="stream", grid=Grid(n), t_final=2.0, p_list=(1.5, 2.0, 4.0),
                  g=NONLINEARITIES[law](),
                  a=smooth_indicator_profile(0.7, 1.0, 2.0, 0.05),
                  initial=InitialData(sine_profile(1, amplitude=0.5), zero_function()),
                  record_every=record_every)
    traj, states = run_kept(run_simulation, sc)
    rows = window_rows(traj.times, window)
    steps = np.unique(np.diff(traj.times[rows]))
    assert (len(steps) > 1) == (case in ("N=100", "record_every=3"))
    assert (rows.stop - rows.start == MIN_RECORDS) == (case == "MIN_RECORDS")
    if block:
        monkeypatch.setattr(solver, "RECORD_BLOCK_VALUES", block * sc.grid.n_nodes)
    kept = _kept_terms(sc, states, window)
    assert _streamed_terms(sc, window) == kept
    for p, rep in zip(sc.p_list, kept.values()):
        terms, int_energy, energy_at_s, _ = _multiplier_terms_per_record(
            traj, states, p, window)
        assert (rep["terms"], rep["int_energy"], rep["energy_at_s"]) == (
            terms, int_energy, energy_at_s)

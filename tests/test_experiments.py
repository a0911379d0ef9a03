"""Every experiment kind end to end through `wavelab run`, a suite with a
failing scenario, the one `verify` entry, the layering of
`wavelab.experiments` below the command line and numpy as the one
third-party import."""
import concurrent.futures
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavelab
from wavelab import experiments, solver, verify
from wavelab.cli import ConfigError, main, parse_suite
from wavelab.core import NONLINEARITIES, Grid
from wavelab.energy import decay_fit, observability_ratio, window_rows
from wavelab.experiments import EXPERIMENTS, SPEC_KEYS
from wavelab.solver import run_family

from kept import run_kept

SCENARIO = {"n_cells": "32", "t_final": "4", "p_list": "1.5, 2", "g": "arctan",
            "a": "smooth_indicator(0.7, 1, 2, 0.05)", "amplitude": "0.5"}

#: the keys each case adds to SCENARIO: a case is an experiment kind, or
#: simulate_alphas, simulate with one row per alpha
EXTRA = {
    "simulate": {"co_integrate_w": "true", "fit_window": "1, 4", "window": "0, 2"},
    "simulate_alphas": {"alphas": "1, 4, 16", "fit_window": "1, 4", "window": "0, 2"},
    "aux_equivalence": {},
    "multiplier_report": {"epsilons": "0.15, 0.1, 0.05"},
}


def _suite(case, *scenarios):
    """Suite text of the case's kind with one [scenario NAME] section per
    (NAME, keys), the keys given over those of SCENARIO."""
    text = f"[suite]\nkind = {case.removesuffix('_alphas')}\n"
    for name, keys in scenarios:
        text += f"\n[scenario {name}]\n" + "".join(
            f"{key} = {value}\n" for key, value in {**SCENARIO, **keys}.items())
    return text


def _run(tmp_path, text, *flags, out="out"):
    suite_file = tmp_path / "suite.ini"
    suite_file.write_text(text)
    out_dir = tmp_path / out
    return main(["run", str(suite_file), "--out", str(out_dir), *flags]), out_dir


def _files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv("WAVELAB_OUT", raising=False)


def _check_simulate(summary, csv_header):
    assert csv_header == "t,E_p1.5,E_p2,dEdt_p1.5,dEdt_p2,max_zt,W1p_zt"
    assert set(summary["fits"]) == {"1.5", "2"}
    assert set(summary["observability_ratio"]) == {"1.5", "2"}


def _check_aux(summary, csv_header):
    assert csv_header == "t,E_p1.5,E_p2,dEdt_p1.5,dEdt_p2,max_zt"
    assert list(summary) == ["name", "max_discrepancy", "max_zt", "theta_bounds",
                             "nu_bounds", "theta_inside_nu_bounds"]
    assert 0.0 < summary["max_discrepancy"] < 1e-3
    assert summary["theta_inside_nu_bounds"] is True


def _check_rows(summary, csv_header):
    assert csv_header is None
    assert list(summary) == ["name", "t_final", "n_cells", "rows"]
    assert [row["alpha"] for row in summary["rows"]] == [1.0, 4.0, 16.0]
    for row in summary["rows"]:
        assert list(row) == ["alpha", "fits", "observability_ratio", "c_p"]
        assert set(row["fits"]) == set(row["observability_ratio"]) == {"1.5", "2"}
        assert all(fit["fitted_rate"] > 0.0 for fit in row["fits"].values())
    c_2 = [row["c_p"]["2"] for row in summary["rows"]]
    assert c_2[1] == pytest.approx(4 * c_2[0]) and c_2[2] == pytest.approx(16 * c_2[0])


def _check_multiplier(summary, csv_header):
    assert csv_header == "t,E_p1.5,E_p2,dEdt_p1.5,dEdt_p2,max_zt"
    assert summary["window"] == [0.0, 4.0]
    assert set(summary["multiplier_tables"]) == {"1.5", "2"}


@pytest.mark.parametrize("kind, files, check", [
    ("simulate", ["energies_one.csv", "summary_one.json"], _check_simulate),
    ("aux_equivalence", ["energies_one.csv", "summary_one.json"], _check_aux),
    ("simulate_alphas", ["summary_one.json"], _check_rows),
    ("multiplier_report", ["energies_one.csv", "summary_one.json"],
     _check_multiplier),
])
def test_every_kind_runs_end_to_end(tmp_path, kind, files, check):
    code, out = _run(tmp_path, _suite(kind, ("one", EXTRA[kind])))
    assert code == 0
    assert sorted(_files(out)) == files
    summary = json.loads((out / "summary_one.json").read_text())
    assert summary["name"] == "one"
    csv = out / "energies_one.csv"
    header = csv.read_text().splitlines()[0] if csv.exists() else None
    check(summary, header)


@pytest.mark.parametrize("kind, samplings", [
    ("simulate", 1), ("aux_equivalence", 1), ("simulate_alphas", 1),
    ("multiplier_report", 1),
])
def test_each_scenario_samples_a_once(kind, samplings):
    # Scenario.a_nodes samples a(x) once per scenario; the alphas rows, one
    # scaled scenario per alpha, run as one family and read its samples
    spec = parse_suite(_suite(kind, ("one", EXTRA[kind]))).scenarios[0]
    a = spec.scenario.a
    calls = []

    def value(x):
        calls.append(x)
        return a.value(x)

    counted = replace(spec.scenario, a=replace(a, value=value))
    EXPERIMENTS[kind.removesuffix("_alphas")](replace(spec, scenario=counted))
    assert len(calls) == samplings


@pytest.mark.parametrize("kind", sorted(EXTRA))
def test_parallel_reports_match_serial_bytewise(tmp_path, kind):
    text = _suite(kind, ("one", EXTRA[kind]), ("two", {**EXTRA[kind], "z0": "sine(2)"}))
    serial_code, serial = _run(tmp_path, text, "--jobs", "1", out="serial")
    parallel_code, parallel = _run(tmp_path, text, "--jobs", "2", out="parallel")
    assert serial_code == parallel_code == 0
    assert len(_files(serial)) >= 2
    assert _files(parallel) == _files(serial)


def test_scenario_without_keys_still_runs_in_parallel(tmp_path, monkeypatch):
    # a [scenario NAME] section with no keys parses to raw == {}, which must
    # not send the suite down the serial path
    pools = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    text = ("[suite]\nkind = simulate\n\n[scenario empty]\n\n"
            "[scenario small]\nn_cells = 16\nt_final = 1\n")
    assert [spec.raw for spec in parse_suite(text).scenarios] == [{}, {"n_cells": "16", "t_final": "1"}]
    serial_code, serial = _run(tmp_path, text, "--jobs", "1", out="serial")
    assert pools == []
    parallel_code, parallel = _run(tmp_path, text, "--jobs", "2", out="parallel")
    assert pools == [{"max_workers": 2}]
    assert serial_code == parallel_code == 0
    assert sorted(_files(serial)) == ["energies_empty.csv", "energies_small.csv",
                                      "summary_empty.json", "summary_small.json"]
    assert _files(parallel) == _files(serial)


def _failing_ratio(monkeypatch):
    """observability_ratio raising an error that no summary catches, so a
    scenario with a window ends in a scenario error after its run passed
    the guard; --jobs workers are forked and inherit it."""
    def ratio(traj, p, window):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(experiments, "observability_ratio", ratio)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scenario_error_does_not_end_the_suite(tmp_path, capsys, monkeypatch, jobs):
    _failing_ratio(monkeypatch)
    text = _suite("simulate", ("bad", {"window": "0, 1"}),
                  ("good", {"fit_window": "1, 4"}))
    code, out = _run(tmp_path, text, "--jobs", jobs)
    assert code == 3
    err = capsys.readouterr().err
    assert err == "ERROR bad: RuntimeError: injected failure\n"
    assert sorted(_files(out)) == ["energies_good.csv", "summary_good.json"]


def test_failures_and_errors_are_reported_per_scenario(tmp_path, capsys,
                                                       monkeypatch):
    # the pumped damping update breaks the guard of every damped run; the
    # undamped scenario never changes a node in it and passes
    monkeypatch.setattr(solver, "_implicit_damping_update",
                        lambda u_old, c, g: u_old * (1.0 + c))
    _failing_ratio(monkeypatch)
    text = _suite("simulate", ("pumped", {}),
                  ("bad", {"a": "zero", "window": "0, 1"}),
                  ("good", {"a": "zero"}))
    code, out = _run(tmp_path, text)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("FAIL pumped: E_p")
    assert err[1] == "ERROR bad: RuntimeError: injected failure"
    assert len(err) == 2
    assert sorted(_files(out)) == ["energies_good.csv", "summary_good.json"]


@pytest.mark.parametrize("passed, code", [(False, 1), (True, 0)])
def test_verify_command_calls_run_all_once(monkeypatch, passed, code):
    calls = []

    def run_all(stream=sys.stdout):
        calls.append(stream)
        return [verify.CheckResult(1, "stub", passed, "no check ran")]

    monkeypatch.setattr(verify, "run_all", run_all)
    assert main(["verify"]) == code
    assert len(calls) == 1


def test_verify_check_that_raises_is_a_scenario_error(capsys, monkeypatch):
    def run_all(stream=sys.stdout):
        raise RuntimeError("check blew up")

    monkeypatch.setattr(verify, "run_all", run_all)
    assert main(["verify"]) == 3
    err = capsys.readouterr().err
    assert err == "ERROR verify: RuntimeError: check blew up\n"


def test_check_line_counts_every_check(monkeypatch):
    # the denominator is len(CHECKS), which grows with the checklist
    result = verify.CheckResult(12, "observability ratio uniformity", False, "detail")
    n_checks = len(verify.CHECKS)
    assert result.line == f"[12/{n_checks}] FAIL observability ratio uniformity: detail"
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS + verify.CHECKS[:2])
    assert result.line == f"[12/{n_checks + 2}] FAIL observability ratio uniformity: detail"


@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_monotonicity_check_allows_the_solver_slack(monkeypatch, factor, passed):
    # the check forgives a rise of the guard's own slack, relative to E_p(0):
    # half of it passes and twice it fails, on every law and every p
    e0 = 4.0
    rise = factor * solver.MONOTONICITY_SLACK * e0

    class Run:
        def energy_series(self, p):
            return np.array([e0, e0 + rise, e0])

    monkeypatch.setattr(verify, "run_simulation", lambda sc, rates=True: Run())
    result = verify.check_energy_monotonicity()
    assert result.passed == passed
    beyond = rise - solver.MONOTONICITY_SLACK * e0
    assert result.detail == f"worst rise beyond slack {beyond:.2e} (g=identity, p=1)"


def test_dissipation_identity_reads_the_first_half_of_the_ladder():
    # the dissipation identity reads the T = 4 records of the auxiliary
    # equivalence's T = 8 run; they are a T = 4 run's, bit for bit
    sc = solver.Scenario(name="diss_128", grid=Grid(128), t_final=4.0,
                         p_list=(2.0,), g=NONLINEARITIES["arctan"](),
                         a=verify._localized_damping(), initial=verify._moderate_data())
    short = solver.run_simulation(sc)
    ladder = verify._arctan_ladder(128)["traj"]
    assert ladder.scenario.t_final == 8.0
    rows = window_rows(ladder.times, (0.0, 4.0))
    assert rows == slice(0, len(short.times))
    assert ladder.times[rows].tobytes() == short.times.tobytes()
    for key in ("E_p2", "dEdt_p2"):
        assert ladder.diagnostics[key][rows].tobytes() == short.diagnostics[key].tobytes()


def _loaded_by(modules):
    """The modules that `import <modules>` loads in a fresh interpreter."""
    src = str(Path(wavelab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import json, sys; before = set(sys.modules); "
             f"import {modules}; print(json.dumps(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return json.loads(run.stdout)


def test_experiments_load_without_the_cli():
    loaded = _loaded_by("wavelab.experiments")
    assert "wavelab.experiments" in loaded
    assert "wavelab.cli" not in loaded
    assert "wavelab.verify" not in loaded


@pytest.mark.parametrize("module", ["wavelab.cli", "wavelab.verify"])
def test_the_cli_loads_without_the_process_pool(module):
    # only a suite run with --jobs > 1 needs the pool, and imports it there
    loaded = _loaded_by(module)
    assert "wavelab.cli" in loaded
    assert not any(name.startswith("concurrent") for name in loaded)


def test_numpy_is_the_only_third_party_import():
    # every process imports the package, the command line and the checks;
    # beyond the standard library they must load numpy alone (dunder names
    # are aliases such as multiprocessing's __mp_main__)
    loaded = _loaded_by("wavelab, wavelab.cli, wavelab.verify")
    top = {name.partition(".")[0] for name in loaded}
    third_party = {name for name in top
                   if name not in sys.stdlib_module_names and not name.startswith("__")}
    assert third_party == {"numpy", "wavelab"}


def test_alphas_rows_run_as_one_family(monkeypatch):
    spec = parse_suite(_suite("simulate", ("one", {"alphas": "1, 0, 4"}))).scenarios[0]
    families = []

    def spy(scenario, rows, rates=True):
        families.append((scenario, list(rows)))
        return run_family(scenario, rows, rates=rates)

    monkeypatch.setattr(experiments, "run_family", spy)
    monkeypatch.setattr(experiments, "run_simulation", None)  # no row runs alone
    result = EXPERIMENTS["simulate"](spec)
    (scenario, names), = families
    assert scenario is spec.scenario  # the parsed scenario, its caches built
    assert names == ["one_a1", "one_a0", "one_a4"]
    assert [row["alpha"] for row in result["summary"]["rows"]] == [1.0, 0.0, 4.0]
    assert result["traj"] is None and result["w_traj"] is None


def test_alpha_rows_name_the_rows_the_parser_refuses():
    # one home for the row names: the runner's rows, and the parser's
    # message when two alphas name one row
    sc = parse_suite(_suite("simulate", ("one", {}))).scenarios[0].scenario
    rows = experiments.alpha_rows(sc, (1.0, 0.0, 4.0))
    assert list(rows) == ["one_a1", "one_a0", "one_a4"]
    assert rows["one_a1"] == sc.initial
    with pytest.raises(ConfigError) as err:
        parse_suite(_suite("simulate", ("one", {"alphas": "1, 1.0000001"})))
    assert str(err.value) == ("scenario 'one': key 'alphas': needs one or more "
                              "alphas naming distinct rows, got [one_a1, one_a1]")


def test_each_row_fits_as_its_scenario_alone():
    # a row's fits and ratios are bitwise those of its scaled scenario run
    # by run_simulation
    spec = parse_suite(_suite("simulate_alphas", ("one", EXTRA["simulate_alphas"]))
                       ).scenarios[0]
    rows = EXPERIMENTS["simulate"](spec)["summary"]["rows"]
    for alpha, row in zip(spec.alphas, rows):
        sc = spec.scenario
        alone = replace(sc, name=f"one_a{alpha:g}", initial=sc.initial.scaled(alpha))
        traj = solver.run_simulation(alone)
        for p in sc.p_list:
            fit = decay_fit(traj.times, traj.energy_series(p), spec.fit_window)
            assert row["fits"][f"{p:g}"] == {"fitted_rate": fit.rate, "r2": fit.r2,
                                             "window": [1.0, 4.0]}
            assert row["observability_ratio"][f"{p:g}"] == \
                observability_ratio(traj, p, spec.window)


def test_a_fully_decayed_fit_window_is_an_error_entry_per_row(tmp_path):
    # E_p falls below the fit floor before t = 20 in every row: each row
    # reports its fits as missing, and the scenario still exits 0
    keys = {"n_cells": "64", "t_final": "30", "p_list": "2", "a": "constant(10)",
            "amplitude": "1", "fit_window": "20, 30", "alphas": "1, 4, 16"}
    code, out = _run(tmp_path, _suite("simulate", ("s", keys)))
    assert code == 0
    assert sorted(_files(out)) == ["summary_s.json"]
    rows = json.loads((out / "summary_s.json").read_text())["rows"]
    assert [row["fits"] for row in rows] == [{"2": {"window": [20.0, 30.0], "error": (
        "decay_fit needs >= 10 points above the floor in (20.0, 30.0), got 0")}}] * 3


def test_a_zero_alpha_row_takes_the_common_path(tmp_path):
    # zero data: no record lies above the fit floor, and c_p is 0
    code, out = _run(tmp_path, _suite("simulate", ("s", {"alphas": "1, 0",
                                                          "fit_window": "1, 4"})))
    assert code == 0
    one, zero = json.loads((out / "summary_s.json").read_text())["rows"]
    assert all(fit["fitted_rate"] > 0.0 for fit in one["fits"].values())
    assert all(c_p > 0.0 for c_p in one["c_p"].values())
    assert zero["alpha"] == 0.0
    assert all("error" in fit for fit in zero["fits"].values())
    assert zero["c_p"] == {"1.5": 0.0, "2": 0.0}


ZERO_RATIO = {"window": [0.0, 1.0], "error": "E_p(0.0) = 0.0 is not positive"}


def test_zero_data_under_a_window_is_an_error_entry(tmp_path):
    # E_p(0) = 0 leaves the observability ratio undefined: the alpha = 0 row
    # reports it per p, as a failed fit, and the alpha = 1 row its numbers
    keys = {"t_final": "2", "window": "0, 1", "alphas": "1, 0"}
    code, out = _run(tmp_path, _suite("simulate", ("s", keys)))
    assert code == 0
    one, zero = json.loads((out / "summary_s.json").read_text())["rows"]
    assert all(isinstance(ratio, float) and ratio > 0.0
               for ratio in one["observability_ratio"].values())
    assert zero["observability_ratio"] == {"1.5": ZERO_RATIO, "2": ZERO_RATIO}


def test_zero_amplitude_under_a_window_is_an_error_entry(tmp_path):
    keys = {"t_final": "2", "window": "0, 1", "amplitude": "0"}
    code, out = _run(tmp_path, _suite("simulate", ("s", keys)))
    assert code == 0
    assert sorted(_files(out)) == ["energies_s.csv", "summary_s.json"]
    summary = json.loads((out / "summary_s.json").read_text())
    assert summary["observability_ratio"] == {"1.5": ZERO_RATIO, "2": ZERO_RATIO}


def _aux_spec(n_cells, t_final, splitting="strang", p_list="1.5, 2"):
    keys = {"n_cells": str(n_cells), "t_final": str(t_final),
            "splitting": splitting, "p_list": p_list}
    return parse_suite(_suite("aux_equivalence", ("one", keys))).scenarios[0]


@functools.lru_cache(maxsize=None)
def _aux_reference(n_cells, splitting):
    """The two-pass aux_equivalence over kept states: the dense nonlinear
    run, its recorded theta field and the auxiliary rerun (t_final = 2),
    each run with its kept (rho, xi)."""
    dense = replace(_aux_spec(n_cells, 2, splitting).scenario, record_every=1)
    nl, (rho, xi) = run_kept(solver.run_simulation, dense)
    theta = solver.theta_from_run(dense, rho, xi)
    aux, (aux_rho, aux_xi, _) = run_kept(solver.run_auxiliary, dense, theta)
    return (nl, (rho, xi)), theta, (aux, (aux_rho, aux_xi))


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, None])
@pytest.mark.parametrize("n_cells", [32, 96])
@pytest.mark.parametrize("splitting", ["strang", "lie"])
def test_aux_equivalence_matches_the_pass_over_kept_states(monkeypatch, splitting,
                                                           n_cells, block):
    # 65 and 193 dense records: blocks of 1, 2 and 3 records end on a partial
    # block; the default block (None) holds all 65, or 168 of the 193. At
    # N = 96 the lie substep's midpoint rounds either way of t_n + dt/2.
    spec = _aux_spec(n_cells, 2, splitting)
    (nl, (rho, xi)), theta, (aux, (aux_rho, aux_xi)) = _aux_reference(n_cells, splitting)
    n_records, n_nodes = rho.shape
    assert n_records % 2 and n_records % 3
    if block is not None:
        monkeypatch.setattr(solver, "RECORD_BLOCK_VALUES", block * n_nodes)
    res = EXPERIMENTS["aux_equivalence"](spec)
    summary = res["summary"]
    assert summary["max_discrepancy"] == max(float(np.max(np.abs(rho - aux_rho))),
                                             float(np.max(np.abs(xi - aux_xi))))
    assert summary["theta_bounds"] == list(theta.bounds)
    assert summary["max_zt"] == float(np.max(nl.diagnostics["max_zt"]))
    assert summary["theta_inside_nu_bounds"] is True

    nl_pass, aux_pass = solver.run_auxiliary_rerun(nl.scenario)
    # the nonlinear run keeps its dissipation rates: check 4 and the
    # energies CSV read them
    assert [f"dEdt_p{p:g}" for p in spec.scenario.p_list] == [
        key for key in nl.diagnostics if key.startswith("dEdt_p")]
    for got in (res["traj"], nl_pass):
        _assert_bitwise(got.times, nl.times)
        assert list(got.diagnostics) == list(nl.diagnostics)
        for key, series in nl.diagnostics.items():
            _assert_bitwise(got.diagnostics[key], series)
    # the rerun records every key of run_auxiliary but its dissipation rates
    kept_keys = [key for key in aux.diagnostics if not key.startswith("dEdt_p")]
    assert len(kept_keys) < len(aux.diagnostics)
    assert not [key for key in aux_pass.diagnostics if key.startswith("dEdt_p")]
    assert list(aux_pass.diagnostics) == [*kept_keys, "discrepancy",
                                          "theta_min", "theta_max"]
    for key in kept_keys:
        _assert_bitwise(aux_pass.diagnostics[key], aux.diagnostics[key])
    _assert_bitwise(aux_pass.diagnostics["discrepancy"],
                    np.maximum(np.max(np.abs(rho - aux_rho), axis=1),
                               np.max(np.abs(xi - aux_xi), axis=1)))
    # theta of each record and of its half step, read from the field
    xs, dt = nl.scenario.grid.nodes, nl.scenario.dt
    records = np.array([theta(t, xs) for t in nl.times])
    halves = np.array([theta(t + 0.25 * dt, xs) for t in nl.times[:-1]])
    for key, reduce in (("theta_min", np.minimum), ("theta_max", np.maximum)):
        per_record = reduce.reduce(records, axis=1)
        per_record[:-1] = reduce(per_record[:-1], reduce.reduce(halves, axis=1))
        _assert_bitwise(aux_pass.diagnostics[key], per_record)


def test_aux_equivalence_guards_the_rerun(monkeypatch):
    # a negative theta pumps energy into the rerun alone
    spec = _aux_spec(32, 2)
    nu_ratio = solver.nu_ratio
    monkeypatch.setattr(solver, "nu_ratio", lambda x, g: -nu_ratio(x, g))
    solver.run_simulation(replace(spec.scenario, record_every=1))
    with pytest.raises(solver.EnergyMonotonicityError, match="E_p1.5 increased"):
        EXPERIMENTS["aux_equivalence"](spec)


def test_aux_equivalence_peak_memory_does_not_grow_with_the_run():
    # N = 512: 1025 records at T = 2, 4097 at T = 8. Kept states and theta
    # tables, six (n_records, n_nodes) stacks, would add 75.6 MB at T = 8;
    # only the per-record series grow, by less than a few record blocks.
    peaks = []
    for t_final in (2, 8):
        spec = _aux_spec(512, t_final, p_list="2")
        tracemalloc.start()
        try:
            EXPERIMENTS["aux_equivalence"](spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    n_nodes = spec.scenario.grid.n_nodes
    block = (solver.RECORD_BLOCK_VALUES // n_nodes) * n_nodes * 8
    assert peaks[1] <= peaks[0] + 8 * block


def test_multiplier_report_keeps_no_states():
    # N = 256, T = 6: the states, 1537 records of 257 nodes, would take
    # 6.3 MB; the streamed terms hold about 20 record blocks of 128 KB and
    # the per-record series
    spec = parse_suite(_suite("multiplier_report", ("m", {
        "n_cells": "256", "t_final": "6", "p_list": "1.5, 2, 4"}))).scenarios[0]
    sc = spec.scenario
    states = 2 * len(sc.record_steps) * sc.grid.n_nodes * 8
    tracemalloc.start()
    try:
        EXPERIMENTS["multiplier_report"](spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states


def test_multiplier_tables_keep_their_key_order():
    # summary_<name>.json follows dict order, and the benchmark's reference
    # check compares key sets only: the layout of the report is pinned here
    spec = parse_suite(_suite("multiplier_report", ("m", {
        **EXTRA["multiplier_report"], "p_list": "1.5, 2, 4"}))).scenarios[0]
    summary = experiments.run_one_multiplier_report(spec)["summary"]
    assert list(summary) == ["name", "window", "multiplier_tables"]
    tables = summary["multiplier_tables"]
    assert list(tables) == ["1.5", "2", "4"]
    for table in tables.values():
        assert list(table) == ["regime", "terms", "int_energy", "energy_at_s",
                               "chain_constants", "eta_table"]
        assert list(table["terms"]) == ["S1", "S2", "S3", "S4", "T1", "T2", "T3",
                                        "T4", "T5", "V1", "V2", "V3"]
        assert list(table["chain_constants"]) == ["first_set", "third_multiplier",
                                                  "second_set_eta1"]
        assert list(table["eta_table"]) == ["0.25", "0.5", "1", "2"]
        assert all(list(row) == ["second_set"] for row in table["eta_table"].values())


@pytest.mark.parametrize("kind", EXPERIMENTS)
def test_spec_keys_are_what_each_runner_reads(kind):
    # the parser refuses the others: a key no runner reads would be ignored
    spec = parse_suite(_suite(kind, ("one", EXTRA[kind]))).scenarios[0]
    read = set()

    class Spy:
        def __getattr__(self, name):
            read.add(name)
            return getattr(spec, name)

    EXPERIMENTS[kind](Spy())
    assert read == {"scenario", *SPEC_KEYS[kind]}


@pytest.mark.parametrize("check", ["conservation", "oracle_agreement",
                                   "modified_energy"])
def test_state_checks_keep_no_states(check, monkeypatch):
    # they read the states block by block as the run hands them out
    # and, reading no dE_p/dt, they record none
    run = solver.run_simulation
    consumers = []
    rates_asked = []

    def spy(sc, consume=None, rates=True):
        consumers.append(consume)
        rates_asked.append(rates)
        return run(sc, consume, rates=rates)

    monkeypatch.setattr(verify, "run_simulation", spy)
    assert getattr(verify, f"check_{check}")().passed
    assert len(consumers) == 1 and consumers[0] is not None
    assert rates_asked == [False]

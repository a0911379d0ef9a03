"""Every experiment kind end to end through `wavelab run`, a suite with a
failing scenario, the one `verify` entry and the layering of
`wavelab.experiments` below the command line."""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import wavelab
from wavelab import cli, solver, verify
from wavelab.cli import main, parse_suite
from wavelab.experiments import EXPERIMENTS

SCENARIO = {"n_cells": "32", "t_final": "4", "p_list": "1.5, 2", "g": "arctan",
            "a": "smooth_indicator(0.7, 1, 2, 0.05)", "amplitude": "0.5"}

#: the keys each kind adds to SCENARIO; the sweep runs on its defaults
EXTRA = {
    "simulate": {"co_integrate_w": "true", "fit_window": "1, 4", "window": "0, 2"},
    "aux_equivalence": {},
    "semi_global_sweep": {},
    "multiplier_report": {"epsilons": "0.15, 0.1, 0.05"},
}


def _suite(kind, *scenarios):
    """Suite text with one [scenario NAME] section per (NAME, keys), the
    keys given over those of SCENARIO."""
    text = f"[suite]\nkind = {kind}\n"
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


def _check_sweep(summary, csv_header):
    assert csv_header is None
    assert summary["alphas"] == [1.0, 4.0, 16.0]
    for entry in summary["entries"]:
        assert set(entry["rates"]) == {"1.5", "2"}
        assert all(set(r) == {"rate", "r2", "c_p"} for r in entry["rates"].values())


def _check_multiplier(summary, csv_header):
    assert csv_header == "t,E_p1.5,E_p2,dEdt_p1.5,dEdt_p2,max_zt"
    assert summary["window"] == [0.0, 4.0]
    assert set(summary["multiplier_tables"]) == {"1.5", "2"}


@pytest.mark.parametrize("kind, files, check", [
    ("simulate", ["energies_one.csv", "summary_one.json"], _check_simulate),
    ("aux_equivalence", ["energies_one.csv", "summary_one.json"], _check_aux),
    ("semi_global_sweep", ["summary_one.json"], _check_sweep),
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
    ("simulate", 1), ("aux_equivalence", 1), ("semi_global_sweep", 3),
    ("multiplier_report", 1),
])
def test_each_scenario_samples_a_once(kind, samplings):
    # Scenario.a_nodes samples a(x) once per scenario; the sweep runs one
    # scaled scenario per alpha (1, 4, 16)
    spec = parse_suite(_suite(kind, ("one", EXTRA[kind]))).scenarios[0]
    a = spec.scenario.a
    calls = []

    def value(x):
        calls.append(x)
        return a.value(x)

    counted = replace(spec.scenario, a=replace(a, value=value))
    EXPERIMENTS[kind](replace(spec, scenario=counted))
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

    class SpyPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scenario_error_does_not_end_the_suite(tmp_path, capsys, jobs):
    # a fit window holding 4 records makes decay_fit raise a ValueError
    text = _suite("simulate", ("bad", {"fit_window": "3.9, 4"}),
                  ("good", {"fit_window": "1, 4"}))
    code, out = _run(tmp_path, text, "--jobs", jobs)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR bad: ValueError: decay_fit needs >= 10 points")
    assert "Traceback" not in err
    assert sorted(_files(out)) == ["energies_good.csv", "summary_good.json"]


def test_failures_and_errors_are_reported_per_scenario(tmp_path, capsys,
                                                       monkeypatch):
    # the pumped damping update breaks the guard of every damped run; the
    # undamped scenario never changes a node in it and passes
    monkeypatch.setattr(solver, "_implicit_damping_update",
                        lambda u_old, c, g: u_old * (1.0 + c))
    text = _suite("simulate", ("pumped", {}),
                  ("bad", {"a": "zero", "fit_window": "3.9, 4"}), ("good", {"a": "zero"}))
    code, out = _run(tmp_path, text)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("FAIL pumped: E_p")
    assert err[1].startswith("ERROR bad: ValueError: ")
    assert len(err) == 2
    assert sorted(_files(out)) == ["energies_good.csv", "summary_good.json"]


@pytest.mark.parametrize("passed, code", [(False, 1), (True, 0)])
def test_verify_command_and_kind_share_one_entry(tmp_path, monkeypatch, passed, code):
    calls = []

    def run_all(stream=sys.stdout):
        calls.append(stream)
        return [verify.CheckResult(1, "stub", passed, "no check ran")]

    monkeypatch.setattr(verify, "run_all", run_all)
    assert main(["verify"]) == code
    assert len(calls) == 1
    run_code, out = _run(tmp_path, "[suite]\nkind = verify\n")
    assert run_code == code
    assert len(calls) == 2
    assert not out.exists()


def test_verify_check_that_raises_is_a_scenario_error(tmp_path, capsys, monkeypatch):
    def run_all(stream=sys.stdout):
        raise RuntimeError("check blew up")

    monkeypatch.setattr(verify, "run_all", run_all)
    assert main(["verify"]) == 3
    assert _run(tmp_path, "[suite]\nkind = verify\n")[0] == 3
    err = capsys.readouterr().err
    assert err == "ERROR verify: RuntimeError: check blew up\n" * 2


def test_experiments_load_without_the_cli():
    src = str(Path(wavelab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import json, sys, wavelab.experiments; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wavelab'))))")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    loaded = json.loads(run.stdout)
    assert "wavelab.experiments" in loaded
    assert "wavelab.cli" not in loaded
    assert "wavelab.verify" not in loaded

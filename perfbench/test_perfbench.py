"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q

A small-size pass of each suite workload checks that the workload stresses
the layer it was chosen for, in the shape measured at the seed, and that
tracing changes no output bit. The verify workload runs at full size.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import workloads
import worker
from run import run_child

SELF_TIMES = ("solver.damping_s", "solver.transport_s", "solver.loop_s",
              "solver.aux_s", "solver.theta_build_s", "solver.theta_sample_s",
              "energy.diag_s", "energy.fit_s", "multipliers.terms_s",
              "multipliers.elliptic_s", "oracle.s", "cli.parse_s", "cli.emit_s")
POST_LAYERS = ("multipliers.terms_s", "multipliers.elliptic_s",
               "multipliers.elliptic_calls", "solver.theta_build_s",
               "solver.theta_sample_s", "solver.theta_samples")
LARGEST = {"record-heavy": "energy.diag_s", "step-heavy": "solver.damping_s"}


def _traced_pair(workload, tmp_path, small):
    plain = run_child(workload, 0, 0, tmp_path / "plain", small=small)
    traced = run_child(workload, 0, 0, tmp_path / "traced", trace=1, small=small)
    for res in (plain, traced):
        assert res["failed"] == [], res["failed"]
    assert traced["digest"] == plain["digest"]
    assert traced["restored"]
    return traced["layers"]


@pytest.mark.parametrize("workload", ["record-heavy", "step-heavy", "post-heavy"])
def test_small_pass_stresses_its_layer(workload, tmp_path):
    layers = _traced_pair(workload, tmp_path, small=True)
    assert layers["solver.node_steps"] > 0
    if workload in LARGEST:
        assert max(SELF_TIMES, key=layers.__getitem__) == LARGEST[workload]
        assert all(layers[k] == 0 for k in POST_LAYERS)
    else:
        assert all(layers[k] > 0 for k in POST_LAYERS)


def test_verify_reports_every_check(tmp_path):
    res = run_child("verify", 0, 0, tmp_path, trace=1)
    layers = res["layers"]
    assert res["failed"] == [] and res["ref_dev"] == 0.0 and res["restored"]
    assert layers["verify.checks_passed"] == 13
    assert layers["oracle.s"] > 0
    assert all(v > 0 for k, v in layers.items()
               if k.startswith("verify.") and k.endswith("_s"))


def test_reference_check_catches_a_changed_number():
    ref_dir = workloads.REFERENCE / "record-heavy"
    ref = json.loads((ref_dir / "summary_decay.json").read_text())
    assert workloads.json_dev(ref, ref) == 0.0
    bumped = json.loads(json.dumps(ref))
    bumped["fits"]["2"]["fitted_rate"] *= 1.0 + 1e-7
    assert workloads.json_dev(bumped, ref) > workloads.REF_TOL
    bumped["fits"]["2"]["window"] = [0.0]
    assert workloads.json_dev(bumped, ref) == math.inf

    text = workloads.read_reference(ref_dir / "energies_decay.csv.gz")
    assert workloads.csv_dev(text, text) == 0.0
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-7))
    changed = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    assert workloads.csv_dev(changed, text) > workloads.REF_TOL
    assert workloads.csv_dev("\n".join(lines[:-1]) + "\n", text) == math.inf

    line = workloads.verify_reference()[5]
    assert workloads.line_dev(line, line) == 0.0
    assert workloads.line_dev(line.replace("PASS", "FAIL"), line) == math.inf
    assert workloads.line_dev(line.replace("0.5004", "0.5005"), line) > workloads.REF_TOL


def test_failing_scenario_does_not_end_the_others(tmp_path):
    cli = worker._import_wavelab("record-heavy")
    good = "\n".join(["[suite]", "kind = simulate", "[scenario good]",
                      "n_cells = 32", "t_final = 1", "g = arctan"])
    # a fit window with fewer than 10 records makes decay_fit raise
    bad = good.replace("good", "bad") + "\nrecord_every = 16\nfit_window = 0, 1"
    units = {"bad": cli.parse_suite(bad), "good": cli.parse_suite(good)}
    assert worker.run_suite_units(cli, units, ["bad", "good"], tmp_path) == \
        {"bad": False, "good": True}


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "step-heavy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

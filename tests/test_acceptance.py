"""Acceptance gate: runs every built-in verification check at its stated
tolerance and prints one PASS/FAIL line per criterion (run with -s to see
them as they complete; the lines also appear in captured output on failure).
Each line must also agree with the benchmark's committed `wavelab verify`
reference within the benchmark's tolerance.
"""
import importlib.util
from pathlib import Path

import pytest

from wavelab import verify

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


BENCH = _workloads()
REFERENCE_LINES = BENCH.verify_reference()


@pytest.mark.parametrize("check", verify.CHECKS,
                         ids=[c.__name__.removeprefix("check_")
                              for c in verify.CHECKS])
def test_acceptance_criterion(check):
    result = check()
    print(result.line)
    assert result.passed, result.line
    ref = REFERENCE_LINES[result.index]
    assert BENCH.line_dev(result.line, ref) <= BENCH.REF_TOL, (result.line, ref)

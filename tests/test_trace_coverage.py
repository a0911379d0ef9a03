"""The benchmark's traced run wraps wavelab functions by name; a renamed or
removed function would silently zero its per-layer metric, so this guard
fails instead."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from wavelab import solver

RECORDER = Path(__file__).resolve().parents[1] / "perfbench" / "recorder.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_recorder", RECORDER)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder.SPANS


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _ in _spans()])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"wavelab.{module}"), name, None))


def test_theta_sampling_entry_point_exists():
    assert "__call__" in vars(solver.ThetaField)

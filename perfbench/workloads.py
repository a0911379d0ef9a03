"""Workloads of the wavelab benchmark and the check of their outputs
against the committed reference.

A suite workload runs the scenarios of its committed suite files, each as
its own one-scenario suite through `cli.run_suite`, so that an exception in
one scenario fails that unit and not the rest. The `verify` workload runs
`verify.run_all()`; its units are the thirteen checks.

ref_dev, the deviation of a run's outputs from the reference, is
  - per CSV column: max |x - r| / max(max |r|, ABS_FLOOR),
  - per JSON number and per number in a verify detail line:
    |x - r| / max(|r|, ABS_FLOOR),
and a unit whose deviation exceeds REF_TOL, or whose headers, keys, strings
or row counts differ from the reference, fails.

Nothing here imports wavelab at module level: the worker times that import.
"""
from __future__ import annotations

import configparser
import csv
import dataclasses
import gzip
import io
import json
import math
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SUITES = BENCH / "suites"
REFERENCE = BENCH / "reference"

#: workload name -> committed suite files (empty for `verify`)
WORKLOADS: dict[str, tuple[str, ...]] = {
    "record-heavy": ("record-heavy.ini",),
    "step-heavy": ("step-heavy.ini",),
    "post-heavy": ("post-heavy-aux.ini", "post-heavy-multiplier.ini"),
    "verify": (),
}

#: the small-size smoke pass divides every n_cells by this
SMALL_DIVISOR = 4

REF_TOL = 1e-9
ABS_FLOOR = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def suite_text(file_name: str, small: bool = False) -> str:
    text = (SUITES / file_name).read_text()
    if not small:
        return text
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    for section in cp.sections():
        if "n_cells" in cp[section]:
            cp[section]["n_cells"] = str(int(cp[section]["n_cells"]) // SMALL_DIVISOR)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_units(cli, workload: str, small: bool = False) -> dict:
    """Parse the workload's suites into one-scenario suites, keyed by
    scenario name (names are unique within a workload)."""
    units = {}
    for file_name in WORKLOADS[workload]:
        suite = cli.parse_suite(suite_text(file_name, small))
        for spec in suite.scenarios:
            units[spec.scenario.name] = dataclasses.replace(suite, scenarios=(spec,))
    return units


def node_steps(workload: str) -> int:
    """The workload's exact node-step count, counted once in a traced run."""
    return json.loads((REFERENCE / "node_steps.json").read_text())[workload]


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

def _dev(x: float, r: float, scale: float) -> float:
    if x == r or (math.isnan(x) and math.isnan(r)):
        return 0.0
    return abs(x - r) / max(scale, ABS_FLOOR)


def csv_dev(text: str, ref_text: str) -> float:
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if len(rows) != len(ref) or rows[0] != ref[0]:
        return math.inf
    if any(len(row) != len(ref[0]) for row in rows + ref):
        return math.inf
    worst = 0.0
    for col in range(len(ref[0])):
        xs = [float(row[col]) for row in rows[1:]]
        rs = [float(row[col]) for row in ref[1:]]
        scale = max((abs(r) for r in rs if not math.isnan(r)), default=0.0)
        worst = max([worst] + [_dev(x, r, scale) for x, r in zip(xs, rs)])
    return worst


def json_dev(value, ref) -> float:
    if isinstance(ref, bool) or isinstance(value, bool):
        return 0.0 if value is ref else math.inf
    if isinstance(ref, (int, float)) and isinstance(value, (int, float)):
        return _dev(float(value), float(ref), abs(float(ref)))
    if isinstance(ref, dict) and isinstance(value, dict):
        if value.keys() != ref.keys():
            return math.inf
        return max([0.0] + [json_dev(value[k], ref[k]) for k in ref])
    if isinstance(ref, list) and isinstance(value, list):
        if len(value) != len(ref):
            return math.inf
        return max([0.0] + [json_dev(v, r) for v, r in zip(value, ref)])
    return 0.0 if value == ref else math.inf


def line_dev(line: str, ref_line: str) -> float:
    """Deviation of one verify detail line: its text outside the numbers
    must match exactly, its numbers within the relative tolerance."""
    if _NUMBER.split(line) != _NUMBER.split(ref_line):
        return math.inf
    nums = [float(m) for m in _NUMBER.findall(line)]
    refs = [float(m) for m in _NUMBER.findall(ref_line)]
    return max([0.0] + [_dev(x, r, abs(r)) for x, r in zip(nums, refs)])


def read_reference(path: Path) -> str:
    with gzip.open(path, "rt") as fh:
        return fh.read()


def suite_unit_dev(out_dir: Path, workload: str, name: str) -> float:
    """ref_dev of one scenario's summary JSON and, if the reference has
    one, its energy CSV."""
    ref_dir = REFERENCE / workload
    ref_json = ref_dir / f"summary_{name}.json"
    ref_csv = ref_dir / f"energies_{name}.csv.gz"
    out_json = out_dir / f"summary_{name}.json"
    out_csv = out_dir / f"energies_{name}.csv"
    if not (ref_json.exists() and out_json.exists()) or ref_csv.exists() != out_csv.exists():
        return math.inf
    dev = json_dev(json.loads(out_json.read_text()), json.loads(ref_json.read_text()))
    if ref_csv.exists():
        dev = max(dev, csv_dev(out_csv.read_text(), read_reference(ref_csv)))
    return dev


def verify_reference() -> dict[int, str]:
    path = REFERENCE / "verify" / "verify.txt"
    return parse_verify_lines(path.read_text()) if path.exists() else {}


_CHECK_LINE = re.compile(r"^\[\s*(\d+)/\d+\] (PASS|FAIL) ")


def parse_verify_lines(text: str) -> dict[int, str]:
    """Detail lines printed by verify.run_all, keyed by check index."""
    lines = {}
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            lines[int(m.group(1))] = line
    return lines

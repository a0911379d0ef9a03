"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --rep I --out DIR
                                [--trace 0|1] [--setup-only] [--small]

Imports wavelab from the checkout's `src`, parses the workload's suites,
runs its units in the order drawn from (seed, rep), writes the reports to
DIR, checks them against the committed reference and prints one JSON line.
Times are reported both raw and scaled to reference CPU speed (see
speedometer.py); numpy is imported before the clock starts, so that the
speedometer can run while wavelab is imported.
With --trace 1 the run is traced (see recorder.py) and the line carries the
per-layer metrics; --setup-only stops after parsing; --small divides every
grid size by workloads.SMALL_DIVISOR and skips the reference check.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from speedometer import Speedometer


def _import_wavelab(workload: str):
    sys.path.insert(0, str(workloads.ROOT / "src"))
    if workload == "verify":
        from wavelab import verify as module
    else:
        from wavelab import cli as module
    src = (workloads.ROOT / "src").resolve()
    if not Path(module.__file__).resolve().is_relative_to(src):
        raise ImportError(f"wavelab was imported from {module.__file__}, not {src}")
    return module


def run_suite_units(cli, units: dict, order: list[str], out: Path) -> dict[str, bool]:
    ran = {}
    for name in order:
        try:
            ran[name] = cli.run_suite(units[name], output_dir=str(out), jobs=1) == 0
        except Exception:  # one failing scenario must not end the others
            traceback.print_exc(file=sys.stderr)
            ran[name] = False
    return ran


def run_verify(verify, rng: random.Random, out: Path) -> dict[int, bool]:
    """Run verify.run_all() with its checks in a seeded order; a check that
    raised or never ran counts as failed."""
    checks = list(verify.CHECKS)
    rng.shuffle(checks)
    saved, verify.CHECKS = verify.CHECKS, tuple(checks)
    buf = io.StringIO()
    try:
        verify.run_all(stream=buf)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        verify.CHECKS = saved
    lines = workloads.parse_verify_lines(buf.getvalue())
    (out / "verify.txt").write_text("".join(lines[i] + "\n" for i in sorted(lines)))
    return {i: i in lines and lines[i].split("] ", 1)[1].startswith("PASS ")
            for i in range(1, len(saved) + 1)}


def reference_devs(workload: str, out: Path, units) -> dict:
    if workload == "verify":
        ref = workloads.verify_reference()
        got = workloads.parse_verify_lines((out / "verify.txt").read_text())
        return {i: workloads.line_dev(got[i], ref[i]) if i in got and i in ref
                else math.inf for i in units}
    return {name: workloads.suite_unit_dev(out, workload, name) for name in units}


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    with Speedometer() as speed:
        t0 = perf_counter()
        module = _import_wavelab(args.workload)
        recorder = None
        if args.trace:
            from recorder import Recorder
            recorder = Recorder()
            recorder.install()
        units = {}
        if args.workload != "verify":
            units = workloads.parse_units(module, args.workload, args.small)
        t1 = perf_counter()
        if args.setup_only:
            print(json.dumps({"setup_s": speed.scaled(t0, t1),
                              "setup_raw_s": t1 - t0 - speed.probe_time(t0, t1)}))
            return 0

        args.out.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{args.seed}:{args.rep}")
        t2 = perf_counter()
        if args.workload == "verify":
            passed = run_verify(module, rng, args.out)
        else:
            order = sorted(units)
            rng.shuffle(order)
            passed = run_suite_units(module, units, order, args.out)
        t3 = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": speed.scaled(t0, t1),
              "setup_raw_s": t1 - t0 - speed.probe_time(t0, t1),
              "wall_s": speed.scaled(t2, t3),
              "wall_raw_s": t3 - t2 - speed.probe_time(t2, t3),
              "peak_rss_mb": peak_rss_mb, "digest": digest(args.out)}
    devs = {} if args.small else reference_devs(args.workload, args.out, passed)
    failed = [str(u) for u, ok in passed.items()
              if not ok or devs.get(u, 0.0) > workloads.REF_TOL]
    result.update(units=len(passed), failed=failed,
                  ref_dev=max(devs.values(), default=0.0))
    if recorder is not None:
        result["restored"] = recorder.uninstall()
        from recorder import check_names
        from wavelab import verify
        layers = recorder.metrics(check_names(verify))
        layers["verify.checks_passed"] = (sum(passed.values())
                                          if args.workload == "verify" else 0)
        result["layers"] = layers
        result["spans"] = recorder.spans()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

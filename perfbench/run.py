"""The wavelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; wavelab is imported from its `src`.
Workloads (see BENCHMARK.json for why each was chosen): record-heavy,
step-heavy, post-heavy and verify. Each repetition runs in a fresh process
(perfbench/worker.py) with one BLAS/OpenMP thread, `WAVELAB_OUT` unset, jobs
= 1 and its reports written to a temporary directory under `.perfbench_tmp`.
Repetitions start while they are predicted to end within S seconds, and at
least one runs. The seed fixes the order in which each repetition runs its
units; the inputs themselves are the committed suites.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
  wall_s            time to run the workload's units and write their reports
  node_steps_per_s  the workload's stored node-step count / wall_s
  setup_s           import of wavelab plus parsing the suites, in a fresh
                    process (SETUP_PROBES extra processes plus every rep)
  peak_rss_mb       ru_maxrss of the repetition's process
and prints failed_frac, ref_dev and the raw wall and setup times beside
them. wall_s and setup_s are scaled to reference CPU speed, which takes out
the slowdown other tenants of the machine cause (see speedometer.py).

--trace 1 alternates untraced and traced repetitions, checks that both write
bit-identical reports and that the recorder restored every binding, and
reports the per-layer metrics (medians over the traced repetitions; span
times are raw and include the speedometer's probes, about 2%) with
trace.overhead_s = median traced wall_s - median untraced wall_s.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 only if every unit passed, its
outputs matched the reference and, traced, the outputs were bit-identical.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class ChildError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WAVELAB_OUT", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, rep: int, out: Path, trace: int = 0,
              setup_only: bool = False, small: bool = False) -> dict:
    cmd = [sys.executable, str(workloads.BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--out", str(out),
           "--trace", str(trace)]
    cmd += ["--setup-only"] * setup_only + ["--small"] * small
    proc = subprocess.run(cmd, cwd=workloads.ROOT, env=_child_env(), text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _timed_reps(seconds: float, run_one) -> list:
    """Call run_one(rep) while the next call is predicted to end within
    `seconds`; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(run_one(len(results)))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return results


def measure(workload: str, seed: int, seconds: float, trace: int, tmp: Path) -> dict:
    reps: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    setups_raw: list[float] = []
    if trace:
        def pair(i: int) -> None:
            sides = [0, 1] if i % 2 == 0 else [1, 0]
            got = {t: run_child(workload, seed, i, tmp / f"r{i}t{t}", t) for t in sides}
            reps.append(got[0])
            traced.append(got[1])
        _timed_reps(seconds, pair)
    else:
        for i in range(SETUP_PROBES):
            probe = run_child(workload, seed, i, tmp / f"p{i}", setup_only=True)
            setups.append(probe["setup_s"])
            setups_raw.append(probe["setup_raw_s"])
        reps = _timed_reps(seconds, lambda i: run_child(workload, seed, i, tmp / f"r{i}"))

    everything = reps + traced
    attempted = sum(r["units"] for r in everything)
    failed = sum(len(r["failed"]) for r in everything)
    identical = all(u["digest"] == t["digest"] for u, t in zip(reps, traced))
    restored = all(t["restored"] for t in traced)
    wall = statistics.median(r["wall_s"] for r in reps)
    summary = {
        "correct": failed == 0 and identical and restored,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "ref_dev": max(r["ref_dev"] for r in everything),
        "reps": len(reps),
        "raw": {"wall_raw_s": statistics.median(r["wall_raw_s"] for r in reps),
                "setup_raw_s": statistics.median(
                    setups_raw + [r["setup_raw_s"] for r in reps])},
    }
    if trace:
        layers = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - wall
        summary["metrics"] = layers
        summary["spans"] = traced[len(traced) // 2]["spans"]
        summary["identical"] = identical
        summary["restored"] = restored
    else:
        summary["metrics"] = {
            "wall_s": wall,
            "node_steps_per_s": workloads.node_steps(workload) / wall,
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
    return summary


def report(workload: str, summary: dict, units: dict[str, str], trace: int) -> None:
    print(f"workload {workload}: {summary['reps']} repetition(s), "
          f"{summary['attempted']} units attempted, {summary['failed']} failed")
    if trace:
        print(f"  traced outputs bit-identical: {summary['identical']}, "
              f"bindings restored: {summary['restored']}")
        for span in summary["spans"]:
            print(f"  span {span['name']:<32} calls {span['calls']:>8d}  "
                  f"total {span['total_s']:9.4f} s  self {span['self_s']:9.4f} s")
    shown = [(name, value, units[name]) for name, value in summary["metrics"].items()]
    if not trace:
        shown += [("failed_frac", summary["failed_frac"], "1"),
                  ("ref_dev", summary["ref_dev"], "1")]
        shown += [(name, value, "s") for name, value in summary["raw"].items()]
    for name, value, unit in shown:
        print(f"  {name:<36} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (workloads.ROOT / "src" / "wavelab" / "__init__.py").is_file():
        print(f"no wavelab source under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = declared_metrics(args.trace)
    tmp_root = workloads.ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            summary = measure(name, args.seed, args.seconds, args.trace, tmp / name)
            if summary["metrics"].keys() != units.keys():
                raise ChildError(f"metrics {sorted(summary['metrics'])} do not match "
                                 f"BENCHMARK.json {sorted(units)}")
            report(name, summary, units, args.trace)
            results[name] = {
                "correct": summary["correct"], "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in summary["metrics"].items()}}
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp_root.is_dir() and not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

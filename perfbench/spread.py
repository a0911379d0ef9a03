"""Run the benchmark once per seed on each workload and summarize the runs.

    python3 perfbench/spread.py [--seeds 1-10] [--out FILE] [WORKLOAD ...]

For every end-to-end metric prints the median, the quartiles of the runs
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the metric's bound in BENCHMARK.json. With --out, also
makes one traced run per workload and writes both, with the interpreter and
numpy versions, as JSON; perfbench/baseline.json was made this way.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

import workloads


def run(name: str, seed: int, seconds: int, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=workloads.ROOT, capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    summary = {}
    ok = True
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(first, last + 1):
            code, result = run(name, seed, spec["run_seconds"], 0)
            ok = ok and code == 0 and result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        summary[name] = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "runs": vals}
            print(f"  {name} {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {(q3 - q1) / median:.3f} "
                  f"(bound {metric['bound']})", flush=True)
    if args.out:
        layers = {}
        for name in args.workloads:
            code, result = run(name, first, spec["run_seconds"], 1)
            ok = ok and code == 0 and result["correct"]
            layers[name] = {k: v["value"] for k, v in result["metrics"].items()}
        machine = (f"{os.cpu_count()} CPUs, {platform.machine()}, Python "
                   f"{platform.python_version()}, numpy {numpy.__version__}")
        with open(args.out, "w") as fh:
            json.dump({"machine": machine, "end_to_end": summary, "per_layer": layers},
                      fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

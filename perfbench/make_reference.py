"""Regenerate the committed reference outputs and node-step counts.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once untraced, for its reports, and once traced, for its
node-step count, each in a fresh worker process, and stores the reports
under perfbench/reference/<workload>/ (energy CSVs gzipped) and the counts
in perfbench/reference/node_steps.json. Regenerate only when a change is
meant to alter the outputs, and say so with the change.
"""
from __future__ import annotations

import gzip
import json
import shutil
import sys

import workloads
from run import run_child


def main(names: list[str]) -> int:
    tmp = workloads.ROOT / ".perfbench_tmp" / "reference"
    counts_path = workloads.REFERENCE / "node_steps.json"
    counts = json.loads(counts_path.read_text()) if counts_path.exists() else {}
    try:
        for name in names or list(workloads.WORKLOADS):
            plain = run_child(name, 0, 0, tmp / name / "plain")
            traced = run_child(name, 0, 0, tmp / name / "traced", trace=1)
            if plain["digest"] != traced["digest"] or not traced["restored"]:
                print(f"{name}: traced run differs from the untraced one", file=sys.stderr)
                return 1
            counts[name] = traced["layers"]["solver.node_steps"]
            ref_dir = workloads.REFERENCE / name
            shutil.rmtree(ref_dir, ignore_errors=True)
            ref_dir.mkdir(parents=True)
            for path in sorted((tmp / name / "plain").iterdir()):
                if path.suffix == ".csv":
                    with open(ref_dir / (path.name + ".gz"), "wb") as raw, \
                            gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
                        fh.write(path.read_bytes())
                else:
                    shutil.copyfile(path, ref_dir / path.name)
            print(f"{name}: {len(list(ref_dir.iterdir()))} files, "
                  f"{counts[name]} node-steps")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    counts_path.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

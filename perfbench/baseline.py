#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 5 --workload braid-orbit

For every workload and end-to-end metric it prints the median of the
runs, the quartiles and the spread (quartile distance over the median)
next to the metric's bound from BENCHMARK.json.  With ``--out`` it also
makes one traced run per workload and writes everything, with the git
commit, the Python version and the machine, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "platform": platform.platform(),
            "machine": platform.machine(), "cpus": os.cpu_count()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)

    report = {"machine": _machine(), "run_seconds": spec["run_seconds"], "seeds": list(seeds),
              "workloads": {}}
    for workload in workloads:
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                      "bound": bound, "unit": runs[0]["metrics"][name]["unit"],
                                      "values": values}
            flag = "ok" if spread <= bound / 3 else "WIDE"
            print(f"{workload:16} {name:12} median {median:.6g} spread {spread:.3f} "
                  f"values {' '.join(f'{v:.4g}' for v in values)} "
                  f"(bound {bound}) {flag}", flush=True)
        print(f"{workload:16} correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        if args.out:
            entry["trace"] = _run(workload, seeds[0], spec["run_seconds"], 1)
            trace_file = ROOT / ".perfbench_out" / f"trace-{workload}-seed{seeds[0]}.json"
            with open(trace_file, encoding="utf-8") as handle:
                entry["layers"] = json.load(handle)["layers"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

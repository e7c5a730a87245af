#!/usr/bin/env python3
"""Benchmark of the daha engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep-identity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

Each workload runs in its own single-threaded worker process; the worker
builds the engine from ``src/`` of this checkout.  With ``--trace 0`` the
run measures the end-to-end metrics: set-up time (median of several
set-ups in the worker), then a closed loop that repeats one seeded plan
of ops until ``--seconds`` seconds of op time have passed.  Times are
reported in reference seconds (see calibration.py).  With ``--trace 1``
it measures the per-layer metrics on one repetition of the same plan:
once untraced, once with layer spans, and twice under cProfile, whose
counts must repeat exactly.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

# op_tail_s: a percentile inside the slowest group of ops, so that it does
# not straddle two groups (suite-replay's slowest suite is 10% of its ops;
# on complete-orders the 90th falls between the slowest H_generic order
# and the next, and moved by 16% from seed to seed)
TAIL_PERCENTILE = {"suite-replay": 95, "deep-identity": 90, "braid-orbit": 90, "complete-orders": 95}
RUN_LIMIT_S = 170.0  # one workload's run, its worker processes included
PROFILED_MODULES = ("coeffring", "ncpoly", "rewrite", "exprs", "algebras", "braid",
                    "certificates", "suites", "fractions", "json")
CALL_COUNTS = {
    "coeffring.mul_calls": "coeffring.__mul__",
    "coeffring.add_calls": "coeffring.__add__",
    "ncpoly.mul_calls": "ncpoly.__mul__",
    "rewrite.normal_form_calls": "rewrite.normal_form",
    "rewrite.apply_step_calls": "rewrite.apply_step",
}


class BenchError(Exception):
    pass


def _load_contract() -> tuple:
    """Workload names, and the unit of each end-to-end and per-layer metric."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _spawn(args: list, deadline: float) -> dict:
    """Run a worker to its end; return the JSON it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit of the run") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _percentile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _outcome(payloads: list) -> dict:
    records = [r for p in payloads for r in p["records"]]
    wrong = [r for r in records if (r["error"] or "").startswith("known answer")]
    final = [p["final_check"] for p in payloads if p.get("final_check")]
    failed = [r for r in records if r["error"]]
    for r in failed[:5]:
        print(f"FAILED {r['kind']} {r['label']}: {r['error']}")
    for problem in final:
        print(f"FAILED final check: {problem}")
    return {"correct": not wrong and not final, "attempted": max(len(records), 1),
            "failed": len(failed) + len(final)}


def _plan_seconds(records: list, field: str) -> float:
    """One repetition of the plan: the sum over its ops of the median
    of ``field`` over the repetitions."""
    times: dict = {}
    for r in records:
        times.setdefault((r["kind"], r["index"]), []).append(r[field])
    return sum(statistics.median(values) for values in times.values())


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """The end-to-end metrics of one run."""
    payload = _spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)], deadline)
    records = payload["records"]
    ops = [r["ref_seconds"] for r in records if r["kind"] == "op"]
    replays = [r["ref_seconds"] for r in records if r["kind"] == "replay"]
    pct = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(payload["setup_seconds"]),
        "wall_s": _plan_seconds(records, "ref_seconds"),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": _percentile(ops, pct),
        "peak_rss_mb": payload["peak_rss_mb"],
    }
    raw_ops = [r["seconds"] for r in records if r["kind"] == "op"]
    print(f"# raw wall_s {_plan_seconds(records, 'seconds'):.6g} op_p50_s {statistics.median(raw_ops):.6g} "
          f"op_tail_s {_percentile(raw_ops, pct):.6g}")
    outcome = _outcome([payload])
    repeats = 1 + max(r["repetition"] for r in records)
    print(f"# {workload} seed={seed}: the plan was issued {repeats} times: "
          f"{len(ops)} ops and {len(replays)} replays")
    print(f"# op_tail_s is p{pct}; {sum(1 for v in ops if v > metrics['op_tail_s'])} ops beyond it")
    extra = {"failed_frac": outcome["failed"] / outcome["attempted"]}
    if replays:
        extra["replay_p50_s"] = statistics.median(replays)
        extra["replay_tail_s"] = _percentile(replays, pct)
        extra["cert_bytes"] = sum(r["result"]["bytes"] for r in records
                                  if r["kind"] == "replay" and r["repetition"] == 0 and r["result"])
    first = [r for r in records if r["repetition"] == 0 and r["result"]]
    if workload == "complete-orders":
        extra["refused_frac"] = sum(1 for r in first if r["result"]["refused"]) / len(first)
    if workload == "braid-orbit":
        extra["repeat_share"] = sum(1 for r in first if not r["first"]) / len(first)
    for name, value in extra.items():
        print(f"# {name} {value:.6g}")
    return {**outcome, "metrics": metrics}


def _span_layers(spans: list) -> dict:
    """Per-layer totals from one spans pass (names as in README.md)."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        add(f"{name}_s", dur)
        for key, value in s.get("counts", {}).items():
            layer = name.split(".")[0]
            add(f"{layer}.{key}", value)
    if "certificates.replay_steps" in out and out.get("certificates.replay_s"):
        out["certificates.replay_steps_per_s"] = out["certificates.replay_steps"] / out["certificates.replay_s"]
    acts = [s for s in spans if s["name"].startswith("braid.act_")]
    if acts:
        out["braid.repeat_share"] = sum(1 for s in acts if s["name"] == "braid.act_repeat") / len(acts)
    return out


def _profile_layers(prof: dict) -> dict:
    """Per-layer metrics from one cProfile pass."""
    layers = {f"{module}.self_s": prof["self_s"].get(module, 0.0) for module in PROFILED_MODULES}
    layers["fractions.calls"] = prof["calls"].get("fractions", 0)
    for metric, function in CALL_COUNTS.items():
        layers[metric] = prof["functions"].get(function, {}).get("calls", 0)
    layers["rewrite.normal_form_s"] = prof["functions"].get("rewrite.normal_form", {}).get("cum_s", 0.0)
    return layers


def _counts(payload: dict) -> dict:
    """Every per-layer value of a traced pass that is not a time."""
    layers = {**_span_layers(payload["spans"]), **_profile_layers(payload["profile"])}
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    counts["ops"] = len(payload["records"])
    return counts


def trace(workload: str, seed: int, deadline: float, per_layer: dict) -> dict:
    """The per-layer metrics of one traced run."""
    base = ["--workload", workload, "--seed", str(seed), "--once"]
    plain = _spawn(base, deadline)
    spans = _spawn(base + ["--spans"], deadline)
    profiled = [_spawn(base + ["--spans", "--profile"], deadline) for _ in range(2)]

    def wall(payload):
        return sum(r["ref_seconds"] for r in payload["records"])

    layers = {**_span_layers(spans["spans"]), **_profile_layers(profiled[0]["profile"])}
    layers["trace.overhead_frac"] = wall(profiled[0]) / wall(plain) - 1
    layers["trace.span_overhead_frac"] = wall(spans) / wall(plain) - 1

    first, second = (_counts(p) for p in profiled)
    unstable = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for key in unstable:
        print(f"# count does not repeat: {key} {first.get(key)} vs {second.get(key)}")
    print(f"# {workload} seed={seed}: traced {len(spans['records'])} ops; "
          f"{len(first) - len(unstable)} counts repeat exactly, {len(unstable)} do not")
    for key in sorted(layers):
        print(f"# {key} {layers[key]:.6g}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "layers": layers, "spans": spans["spans"],
                   "profile": profiled[0]["profile"], "counts": first,
                   "unstable_counts": unstable}, handle)
    print(f"# spans written to {path.relative_to(ROOT)}")

    metrics = {name: layers[name] for name in per_layer if name in layers and name not in unstable}
    outcome = _outcome([plain, spans, *profiled])
    return {**outcome, "metrics": metrics}


def main() -> int:
    workloads, end_to_end, per_layer = _load_contract()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "daha" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'daha'}", file=sys.stderr)
        return 2
    results = {}
    for workload in ([args.workload] if args.workload else workloads):
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            if args.trace:
                result = trace(workload, args.seed, deadline, per_layer)
            else:
                result = measure(workload, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        units = per_layer if args.trace else end_to_end
        result["metrics"] = {name: {"value": value, "unit": units[name]}
                             for name, value in result["metrics"].items() if name in units}
        for name, entry in result["metrics"].items():
            print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
        results[workload] = result
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run one workload in this process and print its raw measurements as JSON.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON line
with the set-up times and every op record.

Modes:
  --seconds S     set up SETUP_SAMPLES times, then a closed loop: repeat
                  the seeded plan until S seconds of op time have passed
  --once          set up once, then one repetition of the seeded plan,
                  optionally with --spans (layer spans) and --profile
                  (cProfile)
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import itertools
import json
import os
import pstats
import random
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import (  # noqa: E402
    CALIBRATE_EVERY_S,
    IMPORT_REF_S,
    calibrate,
    calibrate_import,
    to_reference,
)
from workloads import WORKLOADS, NullTracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
OP_LIMIT_S = 60.0  # an op or a known-answer check running longer fails
SETUP_SAMPLES = 15  # set-ups timed in one untraced run; the median is reported


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


class Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter() - self.tracer.t0
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter() - self.tracer.t0
        self.tracer.stack.pop()
        return False

    def count(self, key, value):
        self.record.setdefault("counts", {})[key] = value


class Tracer:
    """Keeps spans in memory: name, start, end, parent span and op id."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []
        self.op = 0  # 0 is set-up

    def span(self, name):
        record = {"id": len(self.spans) + 1, "name": name, "op": self.op,
                  "parent": self.stack[-1] if self.stack else None}
        self.spans.append(record)
        return Span(self, record)


def _timed(fn, tracer, limit: float, profile=None):
    """Run ``fn(tracer)`` under the per-op time limit.

    Returns (seconds, result, error); an op that raises or overruns the
    limit has ``error`` set and counts as failed.
    """
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        if profile is not None:
            profile.enable()
        try:
            result = fn(tracer)
        finally:
            if profile is not None:
                profile.disable()
        return time.perf_counter() - start, result, None
    except OpTimeout:
        return time.perf_counter() - start, None, f"exceeded the {limit:g} s op limit"
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _profile_summary(profile) -> dict:
    """Per-module self time, call counts, and per-function totals of one
    cProfile pass, for the engine's modules, ``fractions`` and ``json``."""
    self_s, calls, functions = {}, {}, {}
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _callers) in pstats.Stats(profile).stats.items():
        path = Path(filename)
        if path.parent.name == "daha":
            module = path.stem
        elif path.name == "fractions.py":
            module = "fractions"
        elif "json" in path.parts:
            module = "json"
        else:
            continue
        self_s[module] = self_s.get(module, 0.0) + tottime
        calls[module] = calls.get(module, 0) + ncalls
        entry = functions.setdefault(f"{module}.{func}", {"cum_s": 0.0, "calls": 0})
        entry["cum_s"] += cumtime
        entry["calls"] += ncalls
    return {"self_s": self_s, "calls": calls, "functions": functions}


def set_up(name: str, workdir: str, tracer, samples: int):
    """Import the engine afresh and set the workload up, ``samples`` times.

    Returns the last workload and each set-up's time in reference
    seconds.  The engine's modules are dropped from ``sys.modules`` before
    each set-up, so that it imports and initialises them as a new process
    would; the standard library stays imported (this process imported the
    engine once already).  The import is scaled by ``calibrate_import``
    and the workload's own set-up by ``calibrate``, each taken before and
    after."""
    times = []
    before = (calibrate_import(), calibrate())
    for _ in range(samples):
        for module in [m for m in sys.modules if m in ("daha", "workloads") or m.startswith("daha.")]:
            del sys.modules[module]
        start = time.perf_counter()
        workloads = importlib.import_module("workloads")
        imported = time.perf_counter()
        workload = workloads.WORKLOADS[name](workdir)
        workload.setup(tracer)
        built = time.perf_counter()
        after = (calibrate_import(), calibrate())
        times.append(to_reference(imported - start, (before[0] + after[0]) / 2, IMPORT_REF_S)
                     + to_reference(built - imported, (before[1] + after[1]) / 2))
        before = after
    return workload, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--once", action="store_true")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = Tracer() if args.spans else NullTracer()
    workdir = str(OUT_DIR / f"{args.workload}-{os.getpid()}")
    try:
        workload, setups = set_up(args.workload, workdir, tracer, 1 if args.once else SETUP_SAMPLES)
        run(args, workload, tracer, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(args, workload, tracer, setups):
    rng = random.Random(args.seed)
    profile = cProfile.Profile() if args.profile else None
    records, checks = [], []
    hard_stop = time.monotonic() + 3 * args.seconds + OP_LIMIT_S
    measured = 0.0
    calibrations = [calibrate()]
    last_calibration = time.monotonic()
    repetitions = workload.repetitions(rng)
    for repetition in itertools.count():
        if args.once and repetition:
            break
        if not args.once and (measured >= args.seconds or time.monotonic() > hard_stop):
            break
        ops = next(repetitions)
        try:
            for index, op in enumerate(ops):
                if not args.once and time.monotonic() > hard_stop:
                    break
                if time.monotonic() - last_calibration >= CALIBRATE_EVERY_S:
                    calibrations.append(calibrate())
                    last_calibration = time.monotonic()
                tracer.op = len(records) + 1
                seconds, result, error = _timed(op.fn, tracer, OP_LIMIT_S, profile)
                measured += seconds
                records.append({"kind": op.kind, "label": op.label, "index": index,
                                "repetition": repetition, "seconds": seconds, "error": error,
                                "calibration": len(calibrations) - 1,
                                **op.meta, "result": _public(result)})
                if error is None:
                    checks.append((len(records) - 1, op, result))
        finally:
            ops.close()
        if repetition == 0:
            # the plan's own footprint: later repetitions add the results
            # kept for the known-answer checks, and their number varies
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repetitions.close()
    calibrations.append(calibrate())
    for record in records:
        around = calibrations[record["calibration"]] + calibrations[record["calibration"] + 1]
        record["ref_seconds"] = to_reference(record["seconds"], around / 2)

    # known answers, outside the timed region
    for index, op, result in checks:
        seconds, problem, error = _timed(lambda _tr: workload.check(op, result), None, OP_LIMIT_S)
        if error is not None or problem is not None:
            records[index]["error"] = f"known answer: {error or problem}"
    final = getattr(workload, "final_check", None)
    final_problem = None
    if final is not None:
        _s, final_problem, error = _timed(lambda _tr: final(), None, OP_LIMIT_S)
        final_problem = final_problem or error

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "records": records,
        "setup_seconds": setups,
        "final_check": final_problem,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.spans:
        out["spans"] = tracer.spans
    if profile is not None:
        out["profile"] = _profile_summary(profile)
    print(json.dumps(out), flush=True)


def _public(result):
    """The JSON-safe part of an op result (engine objects stay behind)."""
    if not isinstance(result, dict):
        return None
    return {k: v for k, v in result.items() if isinstance(v, (int, float, str, bool, type(None)))}


if __name__ == "__main__":
    raise SystemExit(main())

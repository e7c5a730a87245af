#!/usr/bin/env python3
"""Run every verification suite, archive results, and replay all certificates.

This is the one-shot reproduction entry point: it leaves a directory of
result JSON files plus one certificate per check, then re-validates every
certificate from scratch (parsing only the JSON, never reusing the live
systems).  Exit status 0 means every check passed and every certificate
replayed clean.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from daha import SUITE_NAMES, CertificateError, read_certificate, replay, run_suite
from daha.cli import _degree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=_degree, default=10)
    parser.add_argument("--out", type=Path, default=Path("verification"))
    parser.add_argument(
        "--verbose-cert",
        action="store_true",
        help="record intermediate states in every certificate",
    )
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    failed = []
    for name in SUITE_NAMES:
        if name == "all":
            continue  # the individual suites cover everything it re-runs
        stem = name.replace(".", "_")
        result = run_suite(
            name,
            degree=args.degree,
            output=args.out / f"{stem}.json",
            verbose_cert=args.verbose_cert,
        )
        good, total = result.counts()
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {name}: {good}/{total}")
        if not result.passed:
            failed.append(name)
            for check in result.checks:
                if not check.passed:
                    print(f"    {check.line()}")

    certs = sorted(args.out.glob("*-certs/*.json"))
    bad_certs = steps = 0
    for path in certs:
        try:
            outcome = replay(read_certificate(path))
            ok, message = outcome.ok, outcome.message
            steps += outcome.steps_applied
        except (CertificateError, OSError) as exc:
            ok, message = False, str(exc)
        if not ok:
            bad_certs += 1
            print(f"INVALID certificate {path}: {message}")
    print(f"replayed {len(certs)} certificates, {bad_certs} invalid, {steps} steps")

    if failed or bad_certs:
        print(f"FAILURES: suites={failed or 'none'} bad_certs={bad_certs}")
        return 1
    print("all suites verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

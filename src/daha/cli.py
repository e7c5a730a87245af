"""Command-line surface: reduce, check-equal, complete, braid-act,
suite, replay.

Exit status is 0 exactly when every verdict came out as expected
(reduction commands always succeed unless they error; check-equal
expects proved-equal; suite expects each check's own expectation;
replay expects valid certificates).  Usage errors and engine errors
exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from . import __version__
from .algebras import PRESET_NAMES, preset, presentation_spec
from .braid import b3_act, b3_normal_form
from .certificates import certificate_to_json, read_certificate, replay, write_json
from .errors import DahaError
from .suites import SUITE_NAMES, run_suite


def _degree(text: str) -> int:
    try:
        degree = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if degree < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {degree}")
    return degree


def _parse_order(text: Optional[str]):
    if text is None:
        return None
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _open(args):
    """The command's algebra, completed to its degree, and the completion report."""
    alg = preset(args.algebra, _parse_order(args.order))
    return alg, alg.complete(args.degree)


def _cmd_reduce(args) -> int:
    alg, _ = _open(args)
    element = alg.parse(args.expr)
    normal, cert = alg.system.reduce_with_certificate(element)
    print(f"algebra: {alg.name} (completed to degree {alg.system.confluence_degree})")
    print(f"input:   {element.render()}")
    print(f"normal:  {normal.render()}")
    print(f"steps:   {len(cert.steps)}")
    if args.json:
        write_json(certificate_to_json(cert, states=args.verbose_cert), args.json)
        print(f"certificate: {args.json}")
    return 0


def _cmd_check_equal(args) -> int:
    alg, _ = _open(args)
    lhs = alg.parse(args.lhs)
    rhs = alg.parse(args.rhs)
    outcome = alg.check_equal(lhs, rhs)
    print(f"algebra: {alg.name} (completed to degree {alg.system.confluence_degree})")
    print(f"verdict: {outcome.summary()}")
    if args.json:
        write_json(certificate_to_json(outcome.certificate, states=args.verbose_cert), args.json)
        print(f"certificate: {args.json}")
    return 0 if outcome.equal else 1


def _cmd_complete(args) -> int:
    alg, report = _open(args)
    print(f"algebra: {alg.name}")
    print(report.summary())
    rules = alg.system.sorted_rules()
    print(f"active rules ({len(rules)}):")
    for rule in rules:
        print(f"  [{rule.id}] {rule.render()}")
    if args.json:
        payload = {
            "algebra": alg.system.describe(),
            **dataclasses.asdict(report),
            "rules": [
                {"id": rule.id, "lhs": rule.text[0], "rhs": rule.text[1]} for rule in rules
            ],
        }
        write_json(payload, args.json)
        print(f"report: {args.json}")
    return 0


def _cmd_braid_act(args) -> int:
    word = b3_normal_form(args.word)
    alg, _ = _open(args)
    element = alg.parse(args.expr)
    result = b3_act(word, element, alg)
    print(f"algebra: {alg.name} (completed to degree {alg.system.confluence_degree})")
    print(f"word:    {word}")
    print(f"input:   {element.render()}")
    print(f"result:  {result.render()}")
    if args.json:
        payload = {
            "algebra": alg.name,
            "word": word.letters(),
            "input": element.render(),
            "result": result.render(),
        }
        write_json(payload, args.json)
        print(f"report: {args.json}")
    return 0


def _cmd_suite(args) -> int:
    result = run_suite(
        args.name,
        degree=args.degree,
        output=args.json,
        override=presentation_spec(args.algebra),
        order=_parse_order(args.order),
        verbose_cert=args.verbose_cert,
    )
    for check in result.checks:
        print(check.line())
    good, total = result.counts()
    state = "PASS" if result.passed else "FAIL"
    print(f"suite {result.suite}: {state} ({good}/{total} checks, degree {result.degree})")
    if args.json:
        print(f"results: {args.json}")
    return 0 if result.passed else 1


def _cmd_replay(args) -> int:
    code = 0
    for path in args.paths:
        try:
            outcome = replay(read_certificate(path))
            ok, message = outcome.ok, outcome.message
        except DahaError as exc:
            ok, message = False, str(exc)
        except OSError as exc:
            # an unreadable path is an input error (exit 2); the paths after it still replay
            print(f"error: {exc}", file=sys.stderr)
            code = 2
            continue
        if not ok:
            code = code or 1
        state = "valid" if ok else "invalid"
        print(f"{path}: {state} ({message})")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daha",
        description="Exact rewriting calculator for rank-one double affine Hecke algebras.",
    )
    parser.add_argument("--version", action="version", version=f"daha {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra_default="UDAHA_model"):
        p.add_argument(
            "--algebra",
            default=algebra_default,
            help=f"preset ({', '.join(PRESET_NAMES)}) or presentation file",
        )
        p.add_argument("--degree", type=_degree, default=10, help="completion degree (default 10)")
        p.add_argument(
            "--order",
            default=None,
            help="term-order precedence as a comma-separated generator list",
        )
        p.add_argument("--json", default=None, help="write JSON output to this path")

    p = sub.add_parser("reduce", help="reduce an expression to normal form")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check-equal", help="decide equality of two expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    common(p)
    p.set_defaults(func=_cmd_check_equal)

    p = sub.add_parser("complete", help="run truncated completion and show the rules")
    common(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("braid-act", help="apply a braid word to an expression")
    p.add_argument("word", help="letters over b, B, c, C plus macros a, A")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=_cmd_braid_act)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name", choices=SUITE_NAMES)
    common(p)
    p.set_defaults(func=_cmd_suite)

    for name in ("reduce", "check-equal", "suite"):  # the commands that write certificates
        sub.choices[name].add_argument("--verbose-cert", action="store_true",
                                       help="include intermediate states in certificates")

    p = sub.add_parser("replay", help="replay reduction certificates")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DahaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

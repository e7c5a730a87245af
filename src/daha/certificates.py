"""Serialization and replay of reduction certificates.

A certificate carries its own context: the algebra description, the
term order, a snapshot of the rule set, and the rendered initial element.
Replay therefore needs nothing from the producing session.  It builds the
ring, alphabet and validated rules of each distinct snapshot (the JSON text
of algebra, order and rules) once per process, in a small LRU that never
keeps a failed build, with every check run as on a fresh build.  Each
certificate then pays only for its own part: it parses its initial element,
hashes that text as read (every writer writes the canonical rendering, so
the element is never rendered again), applies every recorded step in place
to one term map through the reduction's own kernel (copy-on-write, see
:func:`daha.ncpoly.add_product`), in time linear in the number of steps,
and renders and hashes the final element.  Replay deliberately does not
re-run completion: it validates the reduction trace, not the provenance of
the rules.

The optional `states` list (the rendered element after every step) is a
function of the certificate: the writer derives it by the same walk over
the recorded steps that replay makes, and replay checks it step by step.

Tampering surfaces as one of: a hash mismatch, a wrong final rendering,
or a failing step, reported with its 1-based index: an unknown rule id,
an absent word, a rule that does not match its recorded word and
position, an exponent out of range, or a state unlike the recorded one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .coeffring import BaseRing, ParamRing
from .errors import CertificateError, DahaError, ExponentRangeError
from .exprs import parse_expr
from .ncpoly import Alphabet, TermOrder, fnv1a64
from .rewrite import (
    ReductionCertificate,
    ReductionStep,
    RewriteRule,
    as_ncpoly,
    make_rule,
    step_in_place,
)

FORMAT_NAME = "daha-reduction-certificate"
FORMAT_VERSION = 1


def certificate_to_json(cert: ReductionCertificate, states: bool = False) -> dict:
    """The JSON document of `cert`.  Its `states` are written back as they
    were read; a certificate without them gets them derived by the replay
    walk when `states` is set."""
    alphabet = Alphabet(tuple(cert.algebra["generators"]))
    data = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "algebra": cert.algebra,
        "order": list(cert.order),
        "rules": [
            {"id": rule_id, "lhs": lhs, "rhs": rhs}
            for rule_id, lhs, rhs in cert.rules
        ],
        "initial": cert.initial,
        "initial_hash": cert.initial_hash,
        "steps": [
            {"rule": step.rule_id, "position": step.position, "word": alphabet.render_word(step.word)}
            for step in cert.steps
        ],
        "final": cert.final,
        "final_hash": cert.final_hash,
        "confluence_degree": cert.confluence_degree,
    }
    if cert.states is not None:
        data["states"] = list(cert.states)
    elif states:
        ring, alphabet, rules, terms = _start(cert)
        data["states"] = [
            as_ncpoly(alphabet, ring, terms).render() for _ in _steps(cert, rules, alphabet, terms)
        ]
    return data


def _typed(value, kind: type, what: str):
    """`value` if it is an instance of `kind` (a bool is no int)."""
    if isinstance(value, kind) and isinstance(value, bool) == (kind is bool):
        return value
    raise CertificateError(f"malformed certificate: {what} is not of type {kind.__name__}")


def certificate_from_json(data: dict) -> ReductionCertificate:
    if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
        raise CertificateError("not a reduction certificate")
    if data.get("version") != FORMAT_VERSION:
        raise CertificateError(f"unsupported version {data.get('version')!r}")
    try:
        generators = _typed(data["algebra"]["generators"], list, "generators")
        alphabet = Alphabet(tuple(_typed(name, str, "a generator") for name in generators))
        steps = tuple(
            ReductionStep(
                _typed(step["rule"], int, "a step rule"),
                _typed(step["position"], int, "a step position"),
                alphabet.parse_word(_typed(step["word"], str, "a step word")),
            )
            for step in data["steps"]
        )
        states = data.get("states")
        return ReductionCertificate(
            algebra=data["algebra"],
            order=tuple(
                _typed(name, str, "an order entry") for name in _typed(data["order"], list, "order")),
            rules=tuple(
                (
                    _typed(entry["id"], int, "a rule id"),
                    _typed(entry["lhs"], str, "a rule lhs"),
                    _typed(entry["rhs"], str, "a rule rhs"),
                )
                for entry in data["rules"]
            ),
            initial=_typed(data["initial"], str, "initial"),
            initial_hash=data["initial_hash"],
            steps=steps,
            final=_typed(data["final"], str, "final"),
            final_hash=data["final_hash"],
            confluence_degree=_typed(data["confluence_degree"], int, "confluence_degree"),
            states=None if states is None else tuple(
                _typed(state, str, "a state") for state in _typed(states, list, "states")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc


def write_json(payload: dict, path) -> None:
    """Write indented JSON with a trailing newline, as every output file is."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def read_certificate(path) -> ReductionCertificate:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise CertificateError(f"not valid JSON: {exc}") from exc
    return certificate_from_json(data)


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    message: str
    steps_applied: int


def replay(cert: ReductionCertificate) -> ReplayResult:
    """Re-run a certificate from scratch and verify both hashes.

    Never raises for tampered content; the failure reason comes back in
    the result so batch callers can report it.
    """
    try:
        ring, alphabet, rules, terms = _start(cert)
        if cert.states is not None and len(cert.states) != len(cert.steps):
            raise CertificateError("state list does not match the step count")
        for index in _steps(cert, rules, alphabet, terms):
            if cert.states is not None and (
                as_ncpoly(alphabet, ring, terms).render() != cert.states[index - 1]
            ):
                raise CertificateError(f"step {index}: state mismatch")

        final = as_ncpoly(alphabet, ring, terms).render()
        if fnv1a64(final) != cert.final_hash:
            raise CertificateError("final hash mismatch")
        if final != cert.final:
            raise CertificateError("final element does not match its rendering")
    except DahaError as exc:
        return ReplayResult(False, str(exc), 0)
    return ReplayResult(True, "replayed clean", len(cert.steps))


@lru_cache(maxsize=8)
def _snapshot(text: str) -> tuple:
    """The ring, alphabet and validated rules of one snapshot, built from the
    JSON text of its `[algebra, order, rules]` and nothing else, so replay
    builds each distinct snapshot once; a failing build is never cached.
    The text keeps key order: a two-key object in `params` unpacks in it."""
    algebra, precedence, rule_texts = json.loads(text)
    try:
        base = BaseRing.from_description(_typed(algebra["base"], str, "the base ring"))
        ring = ParamRing(base, [
            (_typed(name, str, "a parameter"), _typed(flag, bool, "a parameter flag"))
            for name, flag in algebra["params"]])
        generators = algebra["generators"]
        alphabet = Alphabet(tuple(_typed(name, str, "a generator") for name in generators))
        order = TermOrder(alphabet, precedence)
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad algebra description: {exc}") from exc

    rules: dict[int, RewriteRule] = {}
    for rule_id, lhs_text, rhs_text in rule_texts:
        if rule_id in rules:
            raise CertificateError(f"duplicate rule id {rule_id}")
        try:
            lhs = alphabet.parse_word(lhs_text)
            rhs = parse_expr(rhs_text, alphabet, ring)
        except (DahaError, ValueError) as exc:
            raise CertificateError(f"bad rule {rule_id}: {exc}") from exc
        rules[rule_id] = make_rule(order, rule_id, lhs, rhs)
    return ring, alphabet, MappingProxyType(rules)


def _start(cert: ReductionCertificate) -> tuple:
    """The snapshot's ring, alphabet and rules, and the initial term map.  The
    hash is taken over the initial text as read, after the parse, so a text
    that does not parse is named first and the element is never rendered."""
    try:
        ring, alphabet, rules = _snapshot(json.dumps([cert.algebra, cert.order, cert.rules]))
    except (TypeError, ValueError, RecursionError) as exc:  # no JSON text, or too deep for one
        raise CertificateError(f"bad algebra description: {exc}") from exc

    try:
        initial = parse_expr(cert.initial, alphabet, ring)
    except (DahaError, ValueError) as exc:
        raise CertificateError(f"bad initial element: {exc}") from exc
    if fnv1a64(cert.initial) != cert.initial_hash:
        raise CertificateError("initial hash mismatch")
    return ring, alphabet, rules, dict(initial.terms)


def _steps(cert: ReductionCertificate, rules, alphabet: Alphabet, terms: dict):
    """Apply the recorded steps to `terms` in place, yielding each 1-based index."""
    for index, step in enumerate(cert.steps, start=1):
        try:
            step_in_place(terms, step, rules, alphabet)
        except (CertificateError, ExponentRangeError) as exc:
            raise CertificateError(f"step {index}: {exc}") from None
        yield index

"""Serialization and replay of reduction certificates.

A certificate carries its own context: the algebra description, the term
order, a snapshot of the rule set, and the rendered initial element, so
replay needs nothing from the producing session.  The ring, alphabet and
validated rules of each distinct snapshot (the JSON text of algebra, order
and rules) are built once per process, in a small LRU that never keeps a
failed build.  Each certificate then pays only for its own part: it reads
its initial element with :func:`read_element`, the reader of the canonical
rendering (which also reads rule right-hand sides, and shares no code with
the expression grammar), hashes that text as read, applies every recorded
step in place to one term map through the reduction's own kernel
(copy-on-write, see :func:`daha.ncpoly.add_product`), and renders and
hashes the final element.  Replay does not re-run completion: it validates
the reduction trace, not the provenance of the rules.  The optional `states`
(the rendered element after every step) are derived by the writer by the
same walk over the steps, and replay checks each one.

Tampering surfaces as text that does not read, a hash mismatch, a wrong
final rendering, or a failing step, reported with its 1-based index: an
unknown rule id, an absent word, a rule that does not match its recorded
word and position, an exponent out of range, or a state unlike the
recorded one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from types import MappingProxyType

from .coeffring import MAX_DIGITS, BaseRing, LaurentPoly, ParamRing, too_long
from .errors import CertificateError, DahaError, ExponentRangeError
from .ncpoly import MAX_DEGREE, MAX_TERMS, Alphabet, NCPoly, TermOrder, fnv1a64
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


_SIGN = re.compile(r" ([-+]) ")

#: a factor of a rendered coefficient: a rational, or a name with an optional exponent
_FACTOR = re.compile(
    rf"(\d{{1,{MAX_DIGITS}}})(?:/(\d{{1,{MAX_DIGITS}}}))?"
    rf"|([A-Za-z_]\w*)(?:\^(-?\d{{1,{MAX_DIGITS}}}))?", re.ASCII)


def _summands(text: str):
    """The (sign, text) summands of a rendered sum, each group of parentheses whole."""
    pieces = _SIGN.split(text)
    if len(pieces) > 2 * MAX_TERMS:
        raise CertificateError(f"more than {MAX_TERMS} terms")
    negative = pieces[0][:1] == "-"
    pieces[:1] = ["-" if negative else "+", pieces[0][negative:]]  # signs at even indices
    start = balance = 0
    for i in range(1, len(pieces), 2):
        balance += pieces[i].count("(") - pieces[i].count(")")
        if not balance:
            yield pieces[start], pieces[i] if i == start + 1 else " ".join(pieces[start + 1:i + 1])
            start = i + 1
    if balance:
        raise CertificateError(f"unbalanced parentheses in {pieces[start + 1]!r}")


def read_element(text: str, alphabet: Alphabet, ring: ParamRing) -> dict:
    """The term map of `text` in the shape `NCPoly.render` writes: terms of a coefficient
    and generator names, repeated words added up.  A coefficient is a product of one
    rational at most, `s` and parameter powers, led or not by a group (a sum of coefficients
    in parentheses, two deep at most).  Other text, or text beyond the parser's budgets,
    raises :class:`CertificateError`; the grammar reads what this accepts alike."""
    gens, base, seen = {name: i for i, name in enumerate(alphabet.symbols)}, ring.base, {}

    def bounded(value: LaurentPoly) -> LaurentPoly:
        if too_long(value):
            raise CertificateError(f"scalar exceeds {MAX_DIGITS} digits")
        return value

    def factor(text: str) -> tuple:
        """Whether `text` is a rational, and its value."""
        m = _FACTOR.fullmatch(text)
        if m is None or m[2] and not int(m[2]):
            raise CertificateError(f"cannot read {text!r}")
        num, den, name, exponent = m.groups()
        if num:
            return True, ring.scalar(Fraction(int(num), int(den or 1)))
        if name in ring.params and name not in gens:
            return False, ring.param(name, int(exponent or 1))
        if name == "s" and exponent is None and base.n is not None and name not in gens:
            return False, ring.scalar(base.generator())
        raise CertificateError(f"unknown symbol {text!r}")

    def coefficient(sign: str, text: str, depth: int) -> LaurentPoly:
        key = (sign, text, depth)
        if key in seen:
            return seen[key]
        if text[:1] == "(":
            end = text.rfind(")") + 1
            if depth == 2 or text[end:end + 1] not in ("", "*"):
                raise CertificateError(f"cannot read {text!r}")
            value = bounded(sum((coefficient(*s, depth + 1) for s in _summands(text[1:end - 1])), ring.zero()))
            if end < len(text):
                value = bounded(value * coefficient("+", text[end + 1:], 2))
        else:  # from the right, so an unknown name is met before a misplaced one
            parsed = [seen.get(f) or seen.setdefault(f, factor(f)) for f in reversed(text.split("*"))]
            if sum(number for number, _ in parsed) > 1:
                raise CertificateError(f"cannot read {text!r}")
            value = reduce(LaurentPoly.__mul__, [x for _, x in parsed])
        value = seen[key] = -value if sign == "-" else value
        return value

    terms = {}
    for sign, body in _summands(text):
        names = body.split("*")  # a group ends in ")", so no group part reads as a letter
        cut = len(names)
        while cut and names[cut - 1] in gens:
            cut -= 1
        if len(names) - cut > MAX_DEGREE:
            raise CertificateError(f"word degree exceeds {MAX_DEGREE} in term {body!r}")
        try:
            c = coefficient(sign, "*".join(names[:cut]) if cut else "1", 0)
        except DahaError as exc:
            raise CertificateError(f"{exc} in term {body!r}") from None
        word = tuple([gens[name] for name in names[cut:]])
        terms[word] = bounded(terms[word] + c) if word in terms else c  # partial sums too
    return {word: c for word, c in terms.items() if c}


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
            rhs = NCPoly(alphabet, ring, read_element(rhs_text, alphabet, ring))
        except (DahaError, ValueError) as exc:
            raise CertificateError(f"bad rule {rule_id}: {exc}") from exc
        rules[rule_id] = make_rule(order, rule_id, lhs, rhs)
    return ring, alphabet, MappingProxyType(rules)


def _start(cert: ReductionCertificate) -> tuple:
    """The snapshot's ring, alphabet and rules, and the initial term map.  The hash is
    of the initial text as read, taken after reading it, so text that does not read is named first."""
    try:
        ring, alphabet, rules = _snapshot(json.dumps([cert.algebra, cert.order, cert.rules]))
    except (TypeError, ValueError, RecursionError) as exc:  # no JSON text, or too deep for one
        raise CertificateError(f"bad algebra description: {exc}") from exc

    try:
        initial = read_element(cert.initial, alphabet, ring)
    except CertificateError as exc:
        raise CertificateError(f"bad initial element: {exc}") from exc
    if fnv1a64(cert.initial) != cert.initial_hash:
        raise CertificateError("initial hash mismatch")
    return ring, alphabet, rules, initial


def _steps(cert: ReductionCertificate, rules, alphabet: Alphabet, terms: dict):
    """Apply the recorded steps to `terms` in place, yielding each 1-based index."""
    for index, step in enumerate(cert.steps, start=1):
        try:
            step_in_place(terms, step, rules, alphabet)
        except (CertificateError, ExponentRangeError) as exc:
            raise CertificateError(f"step {index}: {exc}") from None
        yield index

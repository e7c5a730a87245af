"""The four benchmark workloads: seeded inputs, the ops, and their known answers.

Each workload draws one plan of inputs from a ``random.Random`` seeded by
the caller and hands the engine only what a user would type: expression
text, braid words, generator precedences.  The plan is then issued over
and over, each repetition from the same starting state, so that every
op is timed several times and its best time can be kept: on a shared
machine, interference only ever slows an op down.

Every op returns a result that :meth:`check` compares, after the timed
loop, with an answer that does not come from the engine: the pinned
verdicts of the paper's statements, the hash of the zero element, the
identity ``w^-1 * w = 1`` of the braid group, the pinned values of
Lemma 3.7 and the pinned set of precedences that completion refuses.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

from daha import (
    SUITE_NAMES,
    BraidWord,
    OrientationError,
    b3_act,
    b3_to_map,
    certificate_from_json,
    certificate_to_json,
    preset,
    replay,
    run_suite,
)

# fnv1a64 of the rendering "0": the final hash of every reduction to zero
ZERO_HASH = "af63ad4c86019caf"


@dataclass
class Op:
    """One call the closed loop issues; ``fn(tracer)`` returns its result.

    ``kind`` is "op" for the operations the latency metrics describe and
    "replay" for certificate replays, which are reported on their own.
    """

    kind: str
    label: str
    fn: Callable
    meta: dict = field(default_factory=dict)


def _fresh_dir(root, name: str):
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _read_and_replay(tr, path: str) -> dict:
    with tr.span("certificates.decode"):
        with open(path, "rb") as handle:
            raw = handle.read()
        cert = certificate_from_json(json.loads(raw))
    with tr.span("certificates.replay") as span:
        outcome = replay(cert)
        span.count("replay_steps", outcome.steps_applied)
    return {"ok": outcome.ok, "message": outcome.message, "steps": outcome.steps_applied,
            "final_hash": cert.final_hash, "bytes": len(raw)}


# -- suite-replay ----------------------------------------------------------------

SUITE_DEGREE = 10
# (checks, certificates) per suite at degree 10, pinned when this benchmark
# was defined; every check must also meet its own pinned expectation
SUITE_SHAPE = {
    "lemma2.3": (16, 16),
    "lemma3.6": (10, 9),
    "lemma3.7": (4, 4),
    "lemma3.9": (6, 6),
    "lemma4.2": (44, 43),
    "lemma4.3": (10, 10),
    "thm5.1": (7, 7),
    "thm5.2": (3, 3),
    "thm2.4": (18, 18),
    "aw-template": (18, 18),
}


class SuiteReplay:
    """What ``scripts/verify_all.py`` does: every suite, then every replay."""

    name = "suite-replay"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, tr):
        pass  # each run_suite builds and completes its own algebras

    def repetitions(self, rng):
        for index in itertools.count():
            yield self._pass(index)

    def _pass(self, index: int):
        out = _fresh_dir(self.workdir, f"pass{index}")
        try:
            for name in SUITE_NAMES:
                if name == "all":
                    continue  # the individual suites cover what it re-runs
                yield Op("op", name, lambda tr, name=name: self._suite(tr, name, out),
                         {"suite": name})
            for stem in sorted(os.listdir(out)):
                cert_dir = os.path.join(out, stem)
                if not stem.endswith("-certs"):
                    continue
                for filename in sorted(os.listdir(cert_dir)):
                    path = os.path.join(cert_dir, filename)
                    yield Op("replay", f"{stem}/{filename}",
                             lambda tr, path=path: _read_and_replay(tr, path))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _suite(self, tr, name: str, out: str) -> dict:
        stem = name.replace(".", "_")
        with tr.span(f"suites.{stem}"):
            result = run_suite(name, degree=SUITE_DEGREE,
                               output=os.path.join(out, f"{stem}.json"))
        cert_dir = os.path.join(out, f"{stem}-certs")
        files = os.listdir(cert_dir) if os.path.isdir(cert_dir) else []
        return {
            "suite": name,
            "passed": [c.passed for c in result.checks],
            "failing": [c.line() for c in result.checks if not c.passed],
            "certs": len(files),
            "cert_bytes": sum(os.path.getsize(os.path.join(cert_dir, f)) for f in files),
        }

    def check(self, op: Op, result: dict) -> str | None:
        if op.kind == "replay":
            return None if result["ok"] else f"replay invalid: {result['message']}"
        checks, certs = SUITE_SHAPE[result["suite"]]
        if result["failing"]:
            return "; ".join(result["failing"])
        if len(result["passed"]) != checks or result["certs"] != certs:
            return (f"{len(result['passed'])} checks and {result['certs']} certificates, "
                    f"pinned {checks} and {certs}")
        return None


# -- deep-identity -----------------------------------------------------------------

DEEP_DEGREE = 12
_XYZ_TEXT = {
    "x": "(V0*T1 + inv(V0*T1))",
    "y": "(V1*T1 + inv(V1*T1))",
    "z": "(T0*T1 + inv(T0*T1))",
}
# R_A3 of Theorem 5.2 in UDAHA_model, written out from the paper
_CORE = "(Q^-1*T1 + Q*inv(T1))"
_R_TEXT = {
    "z": f"cV0*cV1 + cT0*{_CORE}",
    "x": f"cV1*cT0 + cV0*{_CORE}",
    "y": f"cT0*cV0 + cV1*{_CORE}",
}
_CYCLIC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))


def identity_query(triple: tuple, prefix: str, suffix: str) -> tuple:
    """Theorem 5.2 for a cyclic triple A1, A2, A3, multiplied on the left
    by the x, y, z factors in ``prefix`` and on the right by ``suffix``."""
    a1, a2, a3 = triple
    x1, x2, x3 = _XYZ_TEXT[a1], _XYZ_TEXT[a2], _XYZ_TEXT[a3]
    lhs = f"(Q*{x1}*{x2} - Q^-1*{x2}*{x1} + (Q^2 - Q^-2)*{x3})"
    rhs = f"((Q - Q^-1)*({_R_TEXT[a3]}))"

    def wrap(core):
        return "*".join([_XYZ_TEXT[c] for c in prefix] + [core] + [_XYZ_TEXT[c] for c in suffix])

    return wrap(lhs), wrap(rhs), f"{prefix}[{a1}{a2}]{suffix}"


def identity_plan(rng) -> list:
    """Fifteen queries with three and four factors, in seeded order.

    The cost of a query depends on its wrapping factors, on how they
    split between left and right, and on the triple, so the set is a
    fixed balanced design and the seed draws only the order.  With one
    extra factor: each of x, y, z on each side.  With two: each ordered
    pair (i, j) of x, y, z once, with triple i + j and split i + 2j
    (mod 3), so that every triple meets every split once.  Drawing the
    queries at random instead moved op_tail_s by up to 22% from seed to
    seed.
    """
    queries = []
    for i, letter in enumerate("xyz"):
        queries.append(identity_query(_CYCLIC[i], letter, ""))
        queries.append(identity_query(_CYCLIC[(i + 1) % 3], "", letter))
    for (i, a), (j, b) in itertools.product(enumerate("xyz"), repeat=2):
        before = (i + 2 * j) % 3
        queries.append(identity_query(_CYCLIC[(i + j) % 3], (a + b)[:before], (a + b)[before:]))
    rng.shuffle(queries)
    return queries


class DeepIdentity:
    """Large instances of Theorem 5.2, checked with a certificate and replayed."""

    name = "deep-identity"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, tr):
        with tr.span("algebras.preset"):
            self.algebra = preset("UDAHA_model")
        with tr.span("rewrite.complete") as span:
            report = self.algebra.complete(DEEP_DEGREE)
            span.count("rules", len(self.algebra.system.rules))
            span.count("passes", report.passes)
            span.count("ambiguities_checked", report.ambiguities_checked)

    def repetitions(self, rng):
        queries = identity_plan(rng)
        for index in itertools.count():
            yield self._repetition(index, queries)

    def _repetition(self, index: int, queries):
        out = _fresh_dir(self.workdir, f"rep{index}")
        try:
            for number, (lhs, rhs, shape) in enumerate(queries):
                path = os.path.join(out, f"q{number}.json")
                factors = len(shape) - 2
                meta = {"factors": factors, "degree": 2 * factors, "shape": shape}
                yield Op("op", shape, lambda tr, a=lhs, b=rhs, p=path: self._query(tr, a, b, p), meta)
                yield Op("replay", shape, lambda tr, p=path: _read_and_replay(tr, p), meta)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _query(self, tr, lhs_text: str, rhs_text: str, path: str) -> dict:
        with tr.span("exprs.parse") as span:
            lhs = self.algebra.parse(lhs_text)
            rhs = self.algebra.parse(rhs_text)
            span.count("input_terms", len(lhs.terms) + len(rhs.terms))
        with tr.span("rewrite.check") as span:
            verdict = self.algebra.check_equal(lhs, rhs)
            span.count("steps", len(verdict.certificate.steps))
        with tr.span("certificates.encode") as span:
            text = json.dumps(certificate_to_json(verdict.certificate), indent=2) + "\n"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            span.count("cert_bytes", len(text.encode()))
        return {
            "verdict": verdict.verdict,
            "residual_terms": len(verdict.residual.terms),
            "final_hash": verdict.certificate.final_hash,
            "input_terms": len(lhs.terms) + len(rhs.terms),
            "steps": len(verdict.certificate.steps),
            "cert_bytes": len(text.encode()),
        }

    def check(self, op: Op, result: dict) -> str | None:
        if op.kind == "replay":
            if not result["ok"]:
                return f"replay invalid: {result['message']}"
        elif result["verdict"] != "proved-equal" or result["residual_terms"]:
            return f"verdict {result['verdict']}, residual of {result['residual_terms']} terms"
        if result["final_hash"] != ZERO_HASH:
            return f"final hash {result['final_hash']} is not the hash of 0"
        return None


# -- braid-orbit ---------------------------------------------------------------------

BRAID_DEGREE = 10
BRAID_MAX_SYLLABLES = 4
BRAID_A_POWERS = (-1, 0, 1)


def braid_normal_forms() -> list:
    """Every B3 normal form a^m s1..sk with 1 <= k <= 4 and |m| <= 1."""
    tails = []
    for k in range(1, BRAID_MAX_SYLLABLES + 1):
        for first in "bc":
            kinds = ["b" if (i % 2 == 0) == (first == "b") else "c" for i in range(k)]
            for powers in itertools.product(("b", "bb"), repeat=kinds.count("b")):
                chosen = iter(powers)
                tails.append(tuple(next(chosen) if kind == "b" else "c" for kind in kinds))
    return [BraidWord(m, tail) for tail in tails for m in BRAID_A_POWERS]


class BraidOrbit:
    """``b3_act`` on x, y, z for seeded B3 normal forms, with repeats."""

    name = "braid-orbit"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _fresh_algebra(self, tr):
        with tr.span("algebras.preset"):
            algebra = preset("UDAHA_model")
        with tr.span("rewrite.complete") as span:
            report = algebra.complete(BRAID_DEGREE)
            span.count("rules", len(algebra.system.rules))
            span.count("passes", report.passes)
            span.count("ambiguities_checked", report.ambiguities_checked)
        with tr.span("exprs.parse"):
            xyz = {name: algebra.parse(text) for name, text in _XYZ_TEXT.items()}
        with tr.span("braid.init"):
            b3_to_map("", algebra)  # builds the per-algebra action
        return algebra, xyz

    def setup(self, tr):
        self.algebra, self.xyz = self._fresh_algebra(tr)

    def repetitions(self, rng):
        """Every normal form acts on each of x, y, z, in seeded order.

        The first act by a word composes its map and is always on x; the
        acts on y and z repeat the word and hit the map cache.  A
        repetition starts from a fresh algebra, so that its first acts
        miss the cache again."""
        words = braid_normal_forms()
        slots = [w for w in words for _ in "xyz"]
        rng.shuffle(slots)
        later = {w: rng.sample("yz", 2) for w in words}
        plan, seen = [], set()
        for w in slots:
            first = w not in seen
            seen.add(w)
            plan.append((w, "x" if first else later[w].pop(), first))
        for index in itertools.count():
            if index:
                self.algebra, self.xyz = self._fresh_algebra(_NULL)
            yield self._repetition(plan)

    def _repetition(self, plan):
        algebra, xyz = self.algebra, self.xyz
        for w, target, first in plan:
            text = w.letters()
            meta = {"syllables": len(w.tail), "a_power": w.a_power, "first": first,
                    "word": text, "target": target}
            yield Op("op", f"{text}.{target}",
                     lambda tr, t=text, p=target, f=first: self._act(tr, algebra, xyz, t, p, f),
                     meta)

    def _act(self, tr, algebra, xyz, text: str, target: str, first: bool) -> dict:
        with tr.span("braid.act_first" if first else "braid.act_repeat") as span:
            image = b3_act(text, xyz[target], algebra)
            span.count("result_terms", len(image.terms))
        return {"algebra": algebra, "word": text, "target": target, "image": image}

    def check(self, op: Op, result: dict) -> str | None:
        """Lemma 4.2: undoing w one letter at a time gives back the source.

        For w = a^m s1..sk the image is a^m(s1(..sk(p))), so a^-m comes
        off first, then s1^-1, .., sk^-1, each a single-letter act."""
        algebra = result["algebra"]
        word = BraidWord.parse(result["word"])
        back = result["image"]
        if word.a_power:
            back = b3_act(("A" if word.a_power > 0 else "a") * abs(word.a_power), back, algebra)
        for syllable in word.tail:
            back = b3_act(syllable.upper(), back, algebra)
        verdict = algebra.check_equal(back, algebra.parse(_XYZ_TEXT[result["target"]]))
        if not verdict.equal:
            return f"{word} then its inverse moves {result['target']}: {verdict.verdict}"
        return None

    def final_check(self) -> str | None:
        """Theorem 5.1: b cycles x -> y -> z -> x and c swaps x and y."""
        algebra, xyz = self._fresh_algebra(_NULL)
        images = (("b", "x", "y"), ("b", "y", "z"), ("b", "z", "x"), ("c", "x", "y"), ("c", "y", "x"))
        for letter, source, target in images:
            if not algebra.check_equal(b3_act(letter, xyz[source], algebra), xyz[target]).equal:
                return f"Theorem 5.1: {letter} does not send {source} to {target}"
        return None


# -- complete-orders -----------------------------------------------------------------

COMPLETE_DEGREE = 5
COMPLETE_PRESETS = ("H_generic", "UDAHA_model")
# completion must refuse exactly these precedences on both presets: a
# derived relation's leading coefficient (a trace such as l0 + l0^-1) is
# not a unit, so it cannot be oriented
REFUSED_ORDERS = frozenset({"T1V0T0V1", "V0T0T1V1", "V0T1T0V1", "V1T0T1V0", "V1T1T0V0"})
# Lemma 3.7: the four rotations of V0*T0*V1*T1 reduce to q^-1 (Q^-1)
LEMMA_3_7 = ("V0*T0*V1*T1", "T0*V1*T1*V0", "V1*T1*V0*T0", "T1*V0*T0*V1")
PRODUCT_VALUE = {"H_generic": "q^-1", "UDAHA_model": "Q^-1"}


class CompleteOrders:
    """Critical-pair completion of both presets under every precedence."""

    name = "complete-orders"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, tr):
        pass  # each op builds its own preset

    def repetitions(self, rng):
        plan = [
            (name, perm)
            for name in COMPLETE_PRESETS
            for perm in itertools.permutations(("T0", "T1", "V0", "V1"))
        ]
        rng.shuffle(plan)
        while True:
            yield (Op("op", f"{name}/{''.join(perm)}",
                      lambda tr, n=name, p=perm: self._complete(tr, n, p),
                      {"preset": name, "order": "".join(perm)})
                   for name, perm in plan)

    def _complete(self, tr, name: str, perm: tuple) -> dict:
        with tr.span("algebras.preset"):
            algebra = preset(name, order=perm)
        with tr.span("rewrite.complete") as span:
            try:
                report = algebra.complete(COMPLETE_DEGREE)
            except OrientationError as exc:
                span.count("refused", 1)
                return {"order": "".join(perm), "refused": str(exc)}
            span.count("rules", len(algebra.system.rules))
            span.count("passes", report.passes)
            span.count("ambiguities_checked", report.ambiguities_checked)
        return {"order": "".join(perm), "refused": None, "algebra": algebra,
                "rules": len(algebra.system.rules), "passes": report.passes,
                "ambiguities_checked": report.ambiguities_checked}

    def check(self, op: Op, result: dict) -> str | None:
        pinned = result["order"] in REFUSED_ORDERS
        if result["refused"] is not None:
            return None if pinned else f"refused: {result['refused']}"
        if pinned:
            return "completed under an order pinned as refused"
        algebra = result["algebra"]
        value = algebra.parse(PRODUCT_VALUE[algebra.name])
        for text in LEMMA_3_7:
            if not algebra.check_equal(algebra.parse(text), value).equal:
                return f"Lemma 3.7: {text} does not reduce to {PRODUCT_VALUE[algebra.name]}"
        control = algebra.check_equal(algebra.parse("T0*T1"), algebra.parse("T1*T0"))
        if control.verdict != "distinct-at-degree":
            return f"T0*T1 vs T1*T0 came out {control.verdict}"
        return None


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, key, value):
        pass


class NullTracer:
    """Tracer used when tracing is off: spans cost one call and record nothing."""

    _span = _NullSpan()

    def span(self, name):
        return self._span


_NULL = NullTracer()

WORKLOADS = {cls.name: cls for cls in (SuiteReplay, DeepIdentity, BraidOrbit, CompleteOrders)}

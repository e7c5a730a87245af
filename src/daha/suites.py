"""Named verification suites over the shipped presentations.

Each suite is a fixed list of equality checks run through the rewrite
engine; a suite passes iff every check's verdict matches its expected
verdict (proved-equal, or distinct-at-degree for negative controls).
Results serialize to JSON along with one replayable reduction
certificate per check; apart from the wall-time fields the output is
deterministic.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from .algebras import (
    PRESET_NAMES,
    AlgebraPresentation,
    aw_form_extract,
    aw_rhs,
    braid_b_map,
    braid_c_map,
    build_xyz,
    compose_maps,
    cyclic_triples,
    four_cycle,
    from_presentation,
    map_power,
    presentation_spec,
    q_symbol,
    semilinear_apply,
    specialize_presentation,
    trace_symbol,
    verify_map,
)
from .braid import b3_act, b3_to_map, syllable_maps
from .certificates import certificate_to_json, write_json
from .coeffring import (
    RATIONALS,
    BaseRing,
    ParamRing,
    divide_exact,
    monomial_inverse,
)
from .errors import DahaError, PresentationError
from .exprs import PresentationSpec
from .ncpoly import NCPoly
from .rewrite import ReductionCertificate

RESULTS_FORMAT = "daha-suite-results"
RESULTS_VERSION = 1


@dataclass
class CheckResult:
    name: str
    algebra: str
    expected: str
    verdict: str
    seconds: float
    cert: Optional[ReductionCertificate] = field(default=None, repr=False)
    certificate: Optional[str] = None  # file name, when certificates are written

    @property
    def passed(self) -> bool:
        return self.verdict == self.expected

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        return f"{mark} {self.name}: {self.verdict}"


@dataclass
class SuiteResult:
    suite: str
    degree: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def counts(self) -> tuple:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks)

    def to_json(self) -> dict:
        return {
            "format": RESULTS_FORMAT,
            "version": RESULTS_VERSION,
            "suite": self.suite,
            "degree": self.degree,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "algebra": c.algebra,
                    "expected": c.expected,
                    "verdict": c.verdict,
                    "seconds": round(c.seconds, 6),
                    "certificate": c.certificate,
                }
                for c in self.checks
            ],
        }


#: Theorem 2.4's specializations of H_generic: tag -> (base ring, value of q)
SPECIALIZATIONS = {
    "H_q1": (RATIONALS, 1),
    "H_q-1": (RATIONALS, -1),
    "H_qs": (BaseRing.cyclotomic(4), BaseRing.cyclotomic(4).generator()),
}


class Workspace:
    """Completed algebras shared across the checks of one run.

    `override` swaps a presentation in for the preset of the same name
    (an unrecognized name replaces UDAHA_model, so a deliberately broken
    variant exercises the main suites as a negative control).  `order`
    applies to each algebra whose generators it permutes, and must
    permute those of at least one.
    """

    def __init__(
        self,
        degree: int = 10,
        override: Optional[PresentationSpec] = None,
        order: Optional[tuple] = None,
    ):
        self.degree = degree
        self.order = None if order is None else tuple(order)
        self._cache: dict = {}
        self._specs = {name: presentation_spec(name) for name in PRESET_NAMES}
        if override is not None:
            target = override.name if override.name in PRESET_NAMES else "UDAHA_model"
            self._specs[target] = override
        if self.order is not None and not any(map(self._order_for, self._specs.values())):
            raise PresentationError("precedence must permute the alphabet")

    def _order_for(self, spec: PresentationSpec) -> Optional[tuple]:
        """The run's order, if it permutes the generators of `spec`."""
        if self.order is not None and sorted(self.order) == sorted(spec.generators):
            return self.order
        return None

    def algebra(self, name: str) -> AlgebraPresentation:
        if name in self._cache:
            return self._cache[name]
        spec = self._specs[name]
        alg = from_presentation(spec, self._order_for(spec))
        alg.complete(self.degree)
        self._cache[name] = alg
        return alg

    def specialized(self, tag: str) -> AlgebraPresentation:
        """H_generic as in use, at the q and over the base of SPECIALIZATIONS[tag],
        keeping its other parameters; built anew on each call."""
        source = self.algebra("H_generic")
        base, value = SPECIALIZATIONS[tag]
        q = q_symbol(source)
        kept = [(n, f) for n, f in zip(source.ring.params, source.ring.invertible) if n != q]
        ring = ParamRing(base, kept)
        alg = specialize_presentation(source, {q: ring.scalar(value)}, ring, tag)
        alg.complete(self.degree)
        return alg


class _Collector:
    def __init__(self):
        self.checks: list = []

    def _add(self, name, algebra_name, expected, verdict, seconds, cert):
        self.checks.append(
            CheckResult(name, algebra_name, expected, verdict, seconds, cert)
        )

    def check(self, name, algebra, lhs, rhs=None, expected="proved-equal"):
        start = time.perf_counter()
        try:
            outcome = algebra.check_equal(lhs, rhs)
            verdict, cert = outcome.verdict, outcome.certificate
        except (DahaError, ValueError) as exc:
            verdict, cert = f"error: {exc}", None
        self._add(
            name, algebra.name, expected, verdict, time.perf_counter() - start, cert
        )

    def record(self, name, algebra_name, outcome, expected="proved-equal"):
        """File an EqualityVerdict computed elsewhere."""
        self._add(name, algebra_name, expected, outcome.verdict, 0.0, outcome.certificate)

    def structural(self, name, algebra_name, ok: bool):
        verdict = "proved-equal" if ok else "structural-mismatch"
        self._add(name, algebra_name, "proved-equal", verdict, 0.0, None)

    def error(self, name, algebra_name, exc):
        self._add(name, algebra_name, "proved-equal", f"error: {exc}", 0.0, None)


# -- the individual suites -------------------------------------------------


def _suite_lemma2_3(col: _Collector, ws: Workspace):
    for alg_name in ("H_generic", "UDAHA_model"):
        alg = ws.algebra(alg_name)
        for gen_name in ("T0", "T1", "V0", "V1"):
            g = alg.gen(gen_name)
            gi = alg.inv_word(alg.alphabet.word(gen_name))
            col.check(f"lemma2.3/{alg_name}/{gen_name}/left", alg, gi * g, alg.one())
            col.check(f"lemma2.3/{alg_name}/{gen_name}/right", alg, g * gi, alg.one())


def _suite_lemma3_6(col: _Collector, ws: Workspace):
    alg = ws.algebra("UDAHA_model")
    cycle = four_cycle(alg)
    for i, (_, outcome) in enumerate(verify_map(cycle, alg), 1):
        col.record(f"lemma3.6/well-defined/axiom{i}", alg.name, outcome)
    fourth = map_power(cycle, 4)
    for gen_name in alg.alphabet.symbols:
        col.check(f"lemma3.6/power4/{gen_name}", alg, fourth.images[gen_name], alg.gen(gen_name))
    identity = {name: name for name in alg.ring.params}
    col.structural("lemma3.6/power4/params", alg.name, dict(fourth.param_map) == identity)


def _suite_lemma3_7(col: _Collector, ws: Workspace):
    alg = ws.algebra("UDAHA_model")
    # the expected value is pinned to the literal parameter Q, not read
    # off the presentation, so a corrupted axiom cannot self-certify
    expected = alg.scalar(alg.param("Q", -1))
    words = ("V0*T0*V1*T1", "T0*V1*T1*V0", "V1*T1*V0*T0", "T1*V0*T0*V1")
    for text in words:
        word = alg.alphabet.parse_word(text)
        mono = NCPoly.monomial(alg.alphabet, alg.ring, word)
        col.check(f"lemma3.7/{text.replace('*', '')}", alg, mono, expected)


def _suite_lemma3_9(col: _Collector, ws: Workspace):
    cp = ws.algebra("CentralPair")
    uv = cp.alphabet.word("u", "v")
    vu = cp.alphabet.word("v", "u")
    w_uv = NCPoly.monomial(cp.alphabet, cp.ring, uv) + cp.inv_word(uv)
    w_vu = NCPoly.monomial(cp.alphabet, cp.ring, vu) + cp.inv_word(vu)
    col.check("lemma3.9/CentralPair/uv-equals-vu", cp, w_uv, w_vu)
    for gen_name in ("u", "v"):
        g = cp.gen(gen_name)
        col.check(f"lemma3.9/CentralPair/commutes-{gen_name}", cp, g * w_uv, w_uv * g)
    alg = ws.algebra("UDAHA_model")
    t1 = alg.gen("T1")
    for name, elem in build_xyz(alg).items():
        col.check(f"lemma3.9/UDAHA_model/T1-commutes-{name}", alg, t1 * elem, elem * t1)


def _suite_lemma4_2(col: _Collector, ws: Workspace):
    """b^3 = c^2 = a on the generator images, and b^-1 = a^-1 b^2 and
    c^-1 = a^-1 c as two-sided inverses."""
    alg = ws.algebra("UDAHA_model")
    maps = syllable_maps(alg)
    b, c, a = maps["b"], maps["c"], maps["a"]
    for phi in (b, c, a):
        for i, (_, outcome) in enumerate(verify_map(phi, alg), 1):
            col.record(f"lemma4.2/well-defined/{phi.name}/axiom{i}", alg.name, outcome)
    b_cubed = map_power(b, 3, name="b^3")
    c_squared = map_power(c, 2, name="c^2")
    gens = alg.alphabet.symbols
    for left, right in ((b_cubed, c_squared), (b_cubed, a), (c_squared, a)):
        for g in gens:
            col.check(f"lemma4.2/agree/{left.name}={right.name}/{g}", alg,
                      left.images[g], right.images[g])
    for phi, inv_word in ((b, "Abb"), (c, "Ac")):
        phi_inv = b3_to_map(inv_word, alg)
        for left, right, tag in ((phi, phi_inv, f"{phi.name}*({inv_word})"),
                                 (phi_inv, phi, f"({inv_word})*{phi.name}")):
            composed = compose_maps(left, right)
            for g in gens:
                col.check(f"lemma4.2/inverse/{tag}/{g}", alg, composed.images[g], alg.gen(g))
    identity = {name: name for name in alg.ring.params}
    col.structural("lemma4.2/param-actions-trivial", alg.name,
                   b_cubed.param_map == a.param_map == c_squared.param_map == identity)


#: Lemma 4.3's action of b and c on the trace symbols, keyed by generator
#: names; every other parameter, q among them, stays fixed.  Pinned apart
#: from MAP_TABLES, which builds the maps tested.
LEMMA4_3_TABLES = {
    "b": {"V0": "V1", "T0": "V0", "V1": "T0", "T1": "T1"},
    "c": {"V0": "V1", "V1": "V0", "T0": "T0", "T1": "T1"},
}


def _suite_lemma4_3(col: _Collector, ws: Workspace):
    alg = ws.algebra("UDAHA_model")
    for phi in (braid_b_map(alg), braid_c_map(alg)):
        table = {trace_symbol(alg, gen_name): trace_symbol(alg, image)
                 for gen_name, image in LEMMA4_3_TABLES[phi.name].items()}
        for src in alg.ring.params:
            image = semilinear_apply(phi, alg.scalar(alg.param(src)))
            expected = alg.scalar(alg.param(table.get(src, src)))
            col.check(f"lemma4.3/{phi.name}/{src}", alg, image, expected)


def _suite_thm5_1(col: _Collector, ws: Workspace):
    alg = ws.algebra("UDAHA_model")
    x, y, z = build_xyz(alg).values()
    col.check("thm5.1/b/x-to-y", alg, b3_act("b", x, alg), y)
    col.check("thm5.1/b/y-to-z", alg, b3_act("b", y, alg), z)
    col.check("thm5.1/b/z-to-x", alg, b3_act("b", z, alg), x)
    col.check("thm5.1/c/x-to-y", alg, b3_act("c", x, alg), y)
    col.check("thm5.1/c/y-to-x", alg, b3_act("c", y, alg), x)
    z_prime = b3_act("c", z, alg)
    qv = alg.param("Q")
    big_q, small_q = alg.scalar(qv), alg.scalar(monomial_inverse(qv))
    rhs = aw_rhs(alg, "z", q=qv)
    col.check("thm5.1/equation-Qz", alg, big_q * z + small_q * z_prime + x * y, rhs)
    col.check("thm5.1/equation-Qzprime", alg, small_q * z + big_q * z_prime + y * x, rhs)


def _cleared_relations(alg: AlgebraPresentation, qv):
    """Theorem 5.2 with q - q^-1 cleared from the denominators: for each
    cyclic triple, (target, product, e3, spread, rhs) with the relation
    product + spread*e3 = rhs, where product = q*e1*e2 - q^-1*e2*e1 and
    spread = q^2 - q^-2."""
    qi = monomial_inverse(qv)
    spread = qv * qv - qi * qi
    for _, _, target, e1, e2, e3 in cyclic_triples(build_xyz(alg)):
        product = alg.scalar(qv) * e1 * e2 - alg.scalar(qi) * e2 * e1
        yield target, product, e3, spread, aw_rhs(alg, target, q=qv).scale(qv - qi)


def _suite_thm5_2(col: _Collector, ws: Workspace):
    alg = ws.algebra("UDAHA_model")
    for target, product, e3, spread, rhs in _cleared_relations(alg, alg.param("Q")):
        col.check(f"thm5.2/relation-{target}", alg, product + e3.scale(spread), rhs)


def _suite_thm2_4(col: _Collector, ws: Workspace):
    generic = ws.algebra("H_generic")
    t1 = generic.gen("T1")
    for name, elem in build_xyz(generic).items():
        col.check(f"thm2.4/i/T1-commutes-{name}", generic, t1 * elem, elem * t1)

    for tag in ("H_q1", "H_q-1"):
        try:
            spec = ws.specialized(tag)
            elems = build_xyz(spec)
        except DahaError as exc:
            col.error(f"thm2.4/ii/{tag}/setup", tag, exc)
            continue
        for a1, a2, _, e1, e2, _ in cyclic_triples(elems):
            col.check(f"thm2.4/ii/{tag}/{a1}{a2}-commute", spec, e1 * e2, e2 * e1)

    try:
        spec4 = ws.specialized("H_qs")
        s_xyz = build_xyz(spec4)
    except DahaError as exc:
        col.error("thm2.4/iii/setup", "H_qs", exc)
    else:
        s = spec4.ring.scalar(SPECIALIZATIONS["H_qs"][1])
        for a1, a2, target, e1, e2, _ in cyclic_triples(s_xyz):
            col.check(
                f"thm2.4/iii/{a1}{a2}-anticommutator",
                spec4,
                e1 * e2 + e2 * e1,
                aw_rhs(spec4, target, q=s).scale(2),
            )

    for target, product, e3, spread, rhs in _cleared_relations(generic, generic.param("q")):
        col.check(f"thm2.4/iv/relation-{target}", generic, product + e3.scale(spread), rhs)
        name = f"thm2.4/iv/division-{target}"
        try:
            residual = generic.nf(rhs - product)
            quotient = NCPoly.from_terms(
                generic.alphabet,
                generic.ring,
                {w: divide_exact(c, spread) for w, c in residual.terms.items()},
            )
            col.check(name, generic, quotient, e3)
        except DahaError as exc:
            col.error(name, generic.name, exc)


def _suite_aw_template(col: _Collector, ws: Workspace):
    alg = ws.algebra("UDAHA_model")
    try:
        form = aw_form_extract(alg)
    except DahaError as exc:
        col.error("aw-template/extract", alg.name, exc)
        return
    qv = alg.param("Q")
    qi = monomial_inverse(qv)
    expected_g = -(qv * qv - qi * qi)
    xyz = build_xyz(alg)
    t1_word = alg.alphabet.word("T1")
    for rel in form:
        col.check(
            f"aw-template/{rel.name}/g-value",
            alg,
            alg.scalar(rel.g),
            alg.scalar(expected_g),
        )
        restricted = NCPoly.from_terms(
            alg.alphabet,
            alg.ring,
            {w: c for w, c in rel.h.terms.items() if w in ((), t1_word)},
        )
        col.check(f"aw-template/{rel.name}/h-support", alg, rel.h, restricted)
        col.record(f"aw-template/{rel.name}/identity", alg.name, rel.verdict)
        for name, elem in xyz.items():
            col.check(
                f"aw-template/{rel.name}/h-commutes-{name}",
                alg,
                rel.h * elem,
                elem * rel.h,
            )


def _suite_all(col: _Collector, ws: Workspace):
    for name in SUITE_NAMES[:-1]:
        _run_named(name, col, ws)
    alg = ws.algebra("UDAHA_model")
    col.check(
        "all/negative-control/T0T1-vs-T1T0",
        alg,
        alg.gen("T0") * alg.gen("T1"),
        alg.gen("T1") * alg.gen("T0"),
        expected="distinct-at-degree",
    )


_SUITES = {
    "lemma2.3": _suite_lemma2_3,
    "lemma3.6": _suite_lemma3_6,
    "lemma3.7": _suite_lemma3_7,
    "lemma3.9": _suite_lemma3_9,
    "lemma4.2": _suite_lemma4_2,
    "lemma4.3": _suite_lemma4_3,
    "thm5.1": _suite_thm5_1,
    "thm5.2": _suite_thm5_2,
    "thm2.4": _suite_thm2_4,
    "aw-template": _suite_aw_template,
    "all": _suite_all,
}
SUITE_NAMES = tuple(_SUITES)


def _run_named(name: str, col: _Collector, ws: Workspace):
    # a ValueError here is typically an override algebra missing the
    # parameter or generator a check is stated in terms of
    try:
        _SUITES[name](col, ws)
    except (DahaError, ValueError) as exc:
        col.error(f"{name}/setup", "-", exc)


def _certificate_filename(check_name: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", check_name)
    return f"{slug}.json"


def run_suite(
    name: str,
    degree: int = 10,
    output: Optional[str] = None,
    override: Optional[PresentationSpec] = None,
    order: Optional[tuple] = None,
    verbose_cert: bool = False,
) -> SuiteResult:
    """Run a named suite, optionally writing results JSON plus one
    certificate file per check into `<output-stem>-certs/`."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    ws = Workspace(degree=degree, override=override, order=order)
    col = _Collector()
    _run_named(name, col, ws)
    result = SuiteResult(name, degree, tuple(col.checks))
    if output is not None:
        cert_dir = os.path.splitext(output)[0] + "-certs"
        os.makedirs(cert_dir, exist_ok=True)
        for check in result.checks:
            if check.cert is not None:
                check.certificate = _certificate_filename(check.name)
                write_json(certificate_to_json(check.cert, states=verbose_cert),
                           os.path.join(cert_dir, check.certificate))
        write_json(result.to_json(), output)
    return result

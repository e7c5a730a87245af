"""Shared fixtures and random-element helpers.

Completed presentations are the expensive objects in this test suite, so
each preset is completed once per session and shared read-only.  Tests
that need to mutate a presentation (add axioms, re-complete at a lower
degree) must build their own instance.
"""

import os
import random
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from daha import (
    AlgebraPresentation,
    AlphabetMismatchError,
    LaurentPoly,
    NCPoly,
    ParseError,
    RewriteSystem,
    UnsupportedPresetError,
    monomial_inverse,
    preset,
    specialize,
)
from daha.algebras import q_symbol, trace_symbol
from daha.rewrite import as_ncpoly, substitute

DATA_DIR = Path(__file__).parent / "data"

# Tests with no @settings of their own take their example count from the
# profile named by HYPOTHESIS_PROFILE: "tier1" by default, or "thorough"
# with twenty times the examples.
settings.register_profile("tier1", max_examples=100, deadline=None)
settings.register_profile("thorough", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# Degree 10 covers every identity exercised below; completion past degree 7
# adds no rules for these presets, so this is cheap.
COMPLETION_DEGREE = 10


def completed(name: str) -> AlgebraPresentation:
    alg = preset(name)
    alg.complete(COMPLETION_DEGREE)
    return alg


@pytest.fixture(scope="session")
def udaha() -> AlgebraPresentation:
    return completed("UDAHA_model")


@pytest.fixture(scope="session")
def generic() -> AlgebraPresentation:
    return completed("H_generic")


@pytest.fixture(scope="session")
def central() -> AlgebraPresentation:
    return completed("CentralPair")


@pytest.fixture()
def data_dir() -> Path:
    return DATA_DIR


# -- small helpers over the engine ----------------------------------------------

def inv_element(alg: AlgebraPresentation, m: NCPoly) -> NCPoly:
    """Inverse of a standard monomial: a one-term element whose coefficient is a unit."""
    if len(m.terms) != 1:
        raise UnsupportedPresetError("only standard monomials have syntactic inverses")
    ((word, coeff),) = m.terms.items()
    return alg.inv_word(word) * monomial_inverse(coeff)


def word_compare(u, v, order) -> int:
    """Compare two words under `order` (-1, 0 or +1) after checking their letters."""
    n = len(order.alphabet)
    if any(not (0 <= g < n) for g in u + v):
        raise AlphabetMismatchError("word does not fit the order's alphabet")
    return order.compare(u, v)


_REFERENCE_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^/()])|(?P<stray>\S)"
)


def reference_tokenize(text: str) -> list:
    """The tokens of `text` as (kind, text, pos) tuples, closed by an
    ("end", "", len(text)) token: a lexer that reads each match's group
    and position, the oracle for `exprs.tokenize`."""
    out = []
    for m in _REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "op":
            kind = m.group()
        elif kind == "stray":
            raise ParseError(f"stray character {m.group()!r}", m.start())
        out.append((kind, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


def laurent_poly(ring, terms: dict) -> LaurentPoly:
    """A coefficient of `ring` from an exponent-vector map, each vector
    checked by `ring.pack`, zero coefficients dropped."""
    out = {}
    for exps, coeff in terms.items():
        key = ring.pack(exps)
        coeff = ring.base.element(coeff)
        if coeff:
            out[key] = coeff
    return LaurentPoly(ring, out)


def ncpolys(alphabet, ring):
    """Elements of the first four letters of `alphabet` with several terms,
    negative exponents on the invertible parameters and Fraction scalars."""
    rationals = st.one_of(
        st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    )
    scalars = st.tuples(rationals, rationals) if ring.base.n == 4 else rationals
    exponents = st.tuples(*(st.integers(-3 if inv else 0, 3) for inv in ring.invertible))
    coeffs = st.dictionaries(exponents, scalars, max_size=3).map(partial(laurent_poly, ring))
    words = st.lists(st.integers(0, 3), max_size=5).map(tuple)
    return st.dictionaries(words, coeffs, max_size=6).map(
        lambda terms: NCPoly.from_terms(alphabet, ring, terms)
    )


def exponent_terms(c: LaurentPoly) -> dict:
    """The term map of a coefficient keyed by exponent vectors."""
    return {c.ring.unpack(key): x for key, x in c.terms.items()}


def specialize_ncpoly(p: NCPoly, assignment: dict, target: AlgebraPresentation) -> NCPoly:
    """Push an element along a parameter specialization; generators map
    to the target generators of the same name."""
    out = {}
    for word, coeff in p.terms.items():
        moved = tuple(target.alphabet.index(p.alphabet.symbols[g]) for g in word)
        value = specialize(coeff, assignment, target.ring)
        if not value.is_zero():
            out[moved] = value
    return NCPoly(target.alphabet, target.ring, out)


def surjection_assignment(source: AlgebraPresentation, target: AlgebraPresentation) -> dict:
    """The parameter assignment realizing source -> target on traces and
    on the q symbol (for UDAHA_model -> H_generic: cTi -> ki+ki^-1,
    cVi -> li+li^-1, Q -> q)."""
    assignment = {}
    for gen_name in source.alphabet.symbols:
        assignment[trace_symbol(source, gen_name)] = target.trace(gen_name)
    assignment[q_symbol(source)] = target.ring.param(q_symbol(target))
    return assignment


# -- tuple-exponent reference for the coefficient kernel ---------------------------

class TupleLaurent:
    """A Laurent polynomial keyed by plain exponent tuples, with unbounded
    exponents: the reference that packed-key arithmetic must agree with."""

    def __init__(self, ring, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return TupleLaurent(self.ring, out)

    def __neg__(self):
        return TupleLaurent(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
                if not out[e]:
                    del out[e]
        return TupleLaurent(self.ring, out)

    def __pow__(self, k: int):
        result = TupleLaurent(self.ring, {(0,) * len(self.ring.params): self.ring.base.one()})
        for _ in range(k):
            result = result * self
        return result

    def inverse(self):
        ((e, c),) = self.terms.items()
        return TupleLaurent(self.ring, {tuple(-x for x in e): self.ring.base.inv(c)})

    def in_range(self, limit: int) -> bool:
        return all(-limit <= x < limit for e in self.terms for x in e)

    def render(self) -> str:
        """The packed kernel's text form, from tuple exponents sorted directly."""
        if not self.terms:
            return "0"
        base, parts = self.ring.base, []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            sign = "-" if base.is_negative(c) else "+"
            syms = [n if x == 1 else f"{n}^{x}" for n, x in zip(self.ring.params, e) if x]
            coeff = base.render(-c if sign == "-" else c, as_factor=bool(syms))
            body = "*".join(([] if syms and coeff == "1" else [coeff]) + syms)
            parts.append((sign, body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} ({body})" if body.startswith("-") else f" {sign} {body}"
        return text


# -- deterministic random elements -------------------------------------------

def random_coeff(alg: AlgebraPresentation, rng: random.Random):
    c = alg.ring.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
    if rng.random() < 0.5:
        return c
    name = rng.choice(alg.ring.params)
    power = rng.choice([1, -1]) if alg.ring.is_invertible(name) else 1
    return c * alg.ring.param(name, power)


def random_word(alg: AlgebraPresentation, rng: random.Random, max_len: int = 4):
    n = len(alg.alphabet)
    return tuple(rng.randrange(n) for _ in range(rng.randrange(max_len + 1)))


def random_element(
    alg: AlgebraPresentation,
    rng: random.Random,
    max_terms: int = 3,
    max_len: int = 4,
) -> NCPoly:
    p = alg.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        p = p + NCPoly.monomial(
            alg.alphabet, alg.ring, random_word(alg, rng, max_len), random_coeff(alg, rng)
        )
    return p


# -- random-strategy oracle ------------------------------------------------------

def normal_form_random(system: RewriteSystem, p: NCPoly, rng: random.Random) -> NCPoly:
    """Reduce `p` by rewriting a random redex of a random word until none is left.

    Agrees with ``system.nf`` once the system is confluent at the element's
    degree, so comparing the two checks strategy independence.
    """
    terms = dict(p.terms)
    candidates = list(terms)  # every reducible word of `terms` is listed here
    while candidates:
        i = rng.randrange(len(candidates))
        candidates[i], candidates[-1] = candidates[-1], candidates[i]
        word = candidates.pop()
        if word not in terms:
            continue
        redexes = [
            (rule, pos)
            for rule in system.rules.values()
            for pos in range(len(word) - len(rule.lhs) + 1)
            if word[pos : pos + len(rule.lhs)] == rule.lhs
        ]
        if redexes:
            rule, pos = rng.choice(redexes)
            candidates.extend(substitute(terms, word, pos, rule, terms.pop(word)))
    return as_ncpoly(p.alphabet, p.ring, terms)

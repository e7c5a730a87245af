"""Shared fixtures and random-element helpers.

Completed presentations are the expensive objects in this test suite, so
each preset is completed once per session and shared read-only.  Tests
that need to mutate a presentation (add axioms, re-complete at a lower
degree) must build their own instance.
"""

import random
from pathlib import Path

import pytest

from daha import (
    AlgebraPresentation,
    AlphabetMismatchError,
    NCPoly,
    RewriteSystem,
    UnsupportedPresetError,
    monomial_inverse,
    preset,
)
from daha.rewrite import substitute

DATA_DIR = Path(__file__).parent / "data"

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
    return NCPoly(p.alphabet, p.ring, terms)

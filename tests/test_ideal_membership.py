"""An ideal-membership oracle that shares no code with the engine.

For a homogeneous presentation over Q, the relations of degree at most D
are exactly the span of the products u*f*v of degree at most D, with f a
defining relation and u, v words.  The oracle decides membership in that
span by exact `Fraction` elimination and compares the answer with
`check_equal` after completion to degree D, under every precedence of the
generators.  Homogeneity is what makes truncated completion exact here:
an ambiguity above D only yields relations above D, so a
`distinct-at-degree` verdict at degree D is decisive.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from daha import RATIONALS, Alphabet, NCPoly, ParamRing, RewriteSystem, TermOrder

NAMES = ("x", "y", "z")
RING = ParamRing(RATIONALS, [])
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def words(n_gens: int, length: int):
    return itertools.product(range(n_gens), repeat=length)


def subtract(target: dict, c, row: dict) -> None:
    """`target -= c * row` in place, keeping no zero entries."""
    for w, x in row.items():
        s = target.get(w, 0) - c * x
        if s:
            target[w] = s
        else:
            target.pop(w, None)


def difference(p: dict, r: dict) -> dict:
    out = dict(p)
    subtract(out, 1, r)
    return out


def reduce_by(vector: dict, basis: dict) -> dict:
    """`vector` minus the multiples of the echelon `basis` ({pivot: row},
    each row 1 at its pivot and 0 at every other pivot) that clear its pivots."""
    vector = dict(vector)
    for pivot, row in basis.items():
        c = vector.get(pivot)
        if c:
            subtract(vector, c, row)
    return vector


def ideal_slice(relations: list, n_gens: int, degree: int) -> dict:
    """A reduced echelon basis of span{u*f*v : |u| + deg f + |v| <= degree}."""
    basis: dict = {}
    for f in relations:
        d = len(next(iter(f)))
        for outer in range(degree - d + 1):
            for left in range(outer + 1):
                for u in words(n_gens, left):
                    for v in words(n_gens, outer - left):
                        row = reduce_by({u + w + v: c for w, c in f.items()}, basis)
                        if not row:
                            continue
                        pivot = next(iter(row))
                        scale = row[pivot]
                        row = {w: x / scale for w, x in row.items()}
                        for other in basis.values():
                            c = other.get(pivot)
                            if c:
                                subtract(other, c, row)
                        basis[pivot] = row
    return basis


@st.composite
def homogeneous_presentations(draw):
    """Generators, 2-3 homogeneous relations of degree 2-3 (nonzero, as
    {word: Fraction}), a completion degree D <= 4 and two elements p, r of
    degree at most D; p - r is a combination of one or two products u*f*v
    plus, half of the time, one more term."""
    n_gens = draw(st.integers(2, 3))
    relations = []
    for _ in range(draw(st.integers(2, 3))):
        d = draw(st.integers(2, 3))
        support = draw(st.lists(st.sampled_from(list(words(n_gens, d))), min_size=1,
                                max_size=3, unique=True))
        relations.append({w: draw(COEFFS) for w in support})
    degree = draw(st.integers(3, 4))
    letter = st.integers(0, n_gens - 1)
    word = st.lists(letter, max_size=degree).map(tuple)
    r = draw(st.dictionaries(word, COEFFS, max_size=3))
    p = dict(r)
    for _ in range(draw(st.integers(1, 2))):
        f = draw(st.sampled_from(relations))
        room = degree - len(next(iter(f)))
        u = tuple(draw(st.lists(letter, max_size=room)))
        v = tuple(draw(st.lists(letter, max_size=room - len(u))))
        subtract(p, draw(COEFFS), {u + w + v: x for w, x in f.items()})
    if draw(st.booleans()):
        subtract(p, 1, {draw(word): draw(COEFFS)})
    return n_gens, relations, degree, p, r


def engine_verdict(n_gens, relations, degree, precedence, p, r):
    """`check_equal(p, r)` after completing the relations, each oriented
    by its leading word under `precedence`, to `degree`."""
    ab = Alphabet(NAMES[:n_gens])
    order = TermOrder(ab, [NAMES[g] for g in precedence])
    system = RewriteSystem(ab, RING, order)
    for f in relations:
        lhs = max(f, key=order.key)
        rhs = {w: -c / f[lhs] for w, c in f.items() if w != lhs}
        system.add_rule(lhs, NCPoly.from_terms(ab, RING, rhs))
    system.complete_to_degree(degree)
    verdict = system.check_equal(NCPoly.from_terms(ab, RING, p), NCPoly.from_terms(ab, RING, r))
    residual = {}
    for w, c in verdict.residual.terms.items():
        (residual[w],) = c.terms.values()  # a constant: the ring has no parameters
    return verdict.verdict, residual


@settings(max_examples=30, deadline=None)
@given(homogeneous_presentations())
def test_check_equal_agrees_with_ideal_membership(case):
    n_gens, relations, degree, p, r = case
    basis = ideal_slice(relations, n_gens, degree)
    diff = difference(p, r)
    member = not reduce_by(diff, basis)
    expected = "proved-equal" if member else "distinct-at-degree"
    for precedence in itertools.permutations(range(n_gens)):
        verdict, residual = engine_verdict(n_gens, relations, degree, precedence, p, r)
        assert verdict == expected, (precedence, verdict)
        # the residual is congruent to p - r: they differ by a relation
        assert not reduce_by(difference(diff, residual), basis)


def test_membership_oracle_on_a_known_slice():
    # x*y = y*x in two generators: every word of degree <= 3 equals its
    # sorted rearrangement, and distinct sorted words stay independent
    basis = ideal_slice([{(0, 1): Fraction(1), (1, 0): Fraction(-1)}], 2, 3)
    assert not reduce_by({(0, 1, 1): Fraction(1), (1, 1, 0): Fraction(-1)}, basis)
    assert not reduce_by({(1, 0, 1): Fraction(2), (0, 1, 1): Fraction(-2)}, basis)
    assert reduce_by({(0, 0, 1): Fraction(1), (0, 1, 1): Fraction(-1)}, basis)
    assert reduce_by({(0, 1): Fraction(1)}, basis)
    # one relation in degree 2, and 8 words less 4 commutative monomials in degree 3
    assert len(basis) == 1 + 4

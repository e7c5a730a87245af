"""Free-algebra elements: alphabets, term orders, arithmetic, hashing."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daha import (
    RATIONALS,
    Alphabet,
    AlphabetMismatchError,
    IncompatibleRingError,
    NCPoly,
    ParamRing,
    TermOrder,
    ZeroPolynomialError,
    fnv1a64,
)

from conftest import laurent_poly, word_compare

AB = Alphabet(("T0", "T1", "V0", "V1"))
UR = ParamRing(
    RATIONALS,
    [("cT0", False), ("cT1", False), ("cV0", False), ("cV1", False), ("Q", True)],
)

SETTINGS = {"max_examples": 80, "deadline": None}


def mono(word, coeff=1):
    return NCPoly.monomial(AB, UR, AB.word(*word.split()) if word else (), coeff)


# -- alphabets ----------------------------------------------------------------

def test_alphabet_basics():
    assert len(AB) == 4
    assert AB.index("V0") == 2
    assert AB.word("V0", "T0", "V1", "T1") == (2, 0, 3, 1)
    assert AB.render_word(()) == "1"
    assert AB.render_word((2, 0)) == "V0*T0"


def test_alphabet_parse_word():
    assert AB.parse_word("1") == ()
    assert AB.parse_word(" V0 * T0 ") == (2, 0)
    assert AB.parse_word("T1*T1*T1") == (1, 1, 1)
    with pytest.raises(ValueError):
        AB.parse_word("V0*X")


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "b c"))
    with pytest.raises(ValueError):
        AB.index("X")


# -- term orders ----------------------------------------------------------------

def test_deglex_degree_dominates():
    order = TermOrder(AB)
    long = AB.word("T0", "T0", "T0")
    short = AB.word("V1", "V1")
    assert order.compare(short, long) == -1
    assert order.compare(long, short) == 1
    assert order.compare(long, long) == 0


def test_deglex_ties_broken_by_precedence():
    order = TermOrder(AB)  # default precedence T0 < T1 < V0 < V1
    assert order.compare(AB.word("T0", "V1"), AB.word("T1", "T0")) == -1
    flipped = TermOrder(AB, ("V1", "V0", "T1", "T0"))
    assert flipped.compare(AB.word("T0", "V1"), AB.word("T1", "T0")) == 1


def test_order_key_agrees_with_compare():
    order = TermOrder(AB)
    u, v = AB.word("V0", "T0"), AB.word("T0", "V0")
    assert (order.key(u) > order.key(v)) == (order.compare(u, v) == 1)


def test_precedence_must_be_a_permutation():
    with pytest.raises(ValueError):
        TermOrder(AB, ("T0", "T1", "V0"))
    with pytest.raises(ValueError):
        TermOrder(AB, ("T0", "T1", "V0", "V0"))


def test_word_compare_checks_letters():
    order = TermOrder(AB)
    with pytest.raises(AlphabetMismatchError):
        word_compare((0, 9), (0,), order)


# -- polynomial arithmetic -------------------------------------------------------

words = st.lists(st.integers(0, 3), max_size=4).map(tuple)
polys = st.dictionaries(words, st.integers(-3, 3), max_size=4).map(
    lambda t: NCPoly.from_terms(AB, UR, t)
)


@given(polys, polys, polys)
@settings(**SETTINGS)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == NCPoly.zero(AB, UR)


@given(polys)
@settings(**SETTINGS)
def test_unit_and_scale(p):
    assert mono("") * p == p == p * mono("")
    assert p.scale(3) == p + p + p
    assert p.scale(UR.param("Q")) == UR.param("Q") * p


# multi-term coefficients in cT0 and the invertible Q, negative powers of Q included
laurent = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-2, 2)).map(lambda e: (e[0], 0, 0, 0, e[1])),
    st.integers(-3, 3).filter(bool) | st.fractions(-2, 2, max_denominator=3).filter(bool),
    min_size=1, max_size=3,
).map(partial(laurent_poly, UR))
laurent_polys = st.dictionaries(words, laurent, max_size=4).map(
    lambda t: NCPoly.from_terms(AB, UR, t)
)

C = UR.param("Q", -1) + 2 * UR.param("cT0")


def copies(p):
    """The term map of `p` down to each coefficient's own term map."""
    return {w: dict(c.terms) for w, c in p.terms.items()}


@given(laurent_polys, laurent_polys)
# T0*T1 cancels: (C*T0 - T0*T1) * (T1 + C) = C^2*T0 - T0*T1*T1
@example(mono("T0", C) - mono("T0 T1"), mono("T1") + C)
@settings(**SETTINGS)
def test_product_matches_term_by_term_reference(a, b):
    before = copies(a), copies(b)
    reference = NCPoly.zero(AB, UR)
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            reference = reference + NCPoly.monomial(AB, UR, w1 + w2, c1 * c2)
    assert a * b == reference  # a cancelled word is absent from both
    assert (copies(a), copies(b)) == before


def test_noncommutative():
    assert mono("T0") * mono("T1") != mono("T1") * mono("T0")
    assert (mono("T0") * mono("T1")).terms == {(0, 1): UR.one()}


def test_scalar_mixing():
    p = mono("V0") + 1
    assert p - 1 == mono("V0")
    assert Fraction(1, 2) * p == p.scale(Fraction(1, 2))
    assert 2 - p == mono("V0", -1) + 1


def test_degree_support_leading_term():
    p = mono("V0 T0") - mono("T1") + 2
    assert p.degree() == 2
    assert set(p.support()) == {(2, 0), (1,), ()}
    w, c = p.leading_term(TermOrder(AB))
    assert AB.render_word(w) == "V0*T0"
    assert c == UR.one()
    # under the flipped precedence a different degree-2 word would win,
    # but there is only one, so the leading term is stable here
    with pytest.raises(ZeroPolynomialError):
        NCPoly.zero(AB, UR).leading_term(TermOrder(AB))


def test_from_terms_validates_letters():
    with pytest.raises(AlphabetMismatchError):
        NCPoly.from_terms(AB, UR, {(0, 4): 1})


def test_monomial_zero_coefficient_collapses():
    assert NCPoly.monomial(AB, UR, (0,), 0).is_zero()


def test_incompatible_operands():
    other_ab = Alphabet(("u", "v"))
    other = NCPoly.monomial(other_ab, UR, (0,))
    with pytest.raises(AlphabetMismatchError):
        mono("T0") + other
    thin = ParamRing(RATIONALS, [("Q", True)])
    with pytest.raises(IncompatibleRingError):
        mono("T0") + NCPoly.monomial(AB, thin, (0,))


# -- rendering and hashing --------------------------------------------------------

def test_render_goldens():
    q = UR.param("Q")
    assert (mono("T0 T1") - 1).render() == "T0*T1 - 1"
    assert mono("V0", q ** -1).render() == "Q^-1*V0"
    assert mono("T1", q - q ** -1).render() == "(Q - Q^-1)*T1"
    assert (mono("T1 T0") + mono("T0 T1")).render() == "T1*T0 + T0*T1"
    assert NCPoly.zero(AB, UR).render() == "0"
    assert mono("V1", -2).render() == "-2*V1"


def test_fnv1a64_reference_vectors():
    # published FNV-1a test vectors, and the hash of the zero element
    assert fnv1a64("") == "cbf29ce484222325"
    assert fnv1a64("a") == "af63dc4c8601ec8c"
    assert fnv1a64("0") == "af63ad4c86019caf"


def byte_loop_fnv1a64(text: str) -> str:
    """FNV-1a one byte at a time, masked after every byte."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def test_fnv1a64_matches_the_byte_loop_at_every_length_mod_4():
    # one to four UTF-8 bytes a character, so the byte counts cover every residue
    text = "(Q - Q^-1)*T1 - é·ŝ€𝔮 + 2*s"
    lengths = set()
    for end in range(len(text) + 1):
        prefix = text[:end]
        lengths.add(len(prefix.encode("utf-8")) % 4)
        assert fnv1a64(prefix) == byte_loop_fnv1a64(prefix), prefix
    assert lengths == {0, 1, 2, 3}


def test_canonical_hash_ignores_construction_order():
    p = mono("T0") + mono("V1 T1") - 2
    q = -2 + (mono("V1 T1") + mono("T0"))
    assert p == q
    assert p.render() == q.render()
    assert fnv1a64(p.render()) != fnv1a64((p + 1).render())

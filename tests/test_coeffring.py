"""Coefficient arithmetic: base fields, Laurent polynomials, exact division."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daha import (
    RATIONALS,
    BaseRing,
    ExactDivisionError,
    ExponentRangeError,
    IncompatibleRingError,
    LaurentPoly,
    NotAUnitError,
    ParamRing,
    UnitViolationError,
    divide_exact,
    NCPoly,
    monomial_inverse,
    parse_expr,
    preset,
    specialize,
)
from daha.coeffring import EXPONENT_LIMIT, Cyclo

from conftest import TupleLaurent, exponent_terms, laurent_poly

UR = ParamRing(
    RATIONALS,
    [("cT0", False), ("cT1", False), ("cV0", False), ("cV1", False), ("Q", True)],
)

SETTINGS = {"max_examples": 80, "deadline": None}


# -- base rings ---------------------------------------------------------------

def test_rationals_basics():
    r = BaseRing.rationals()
    assert r.one() == Fraction(1)
    assert r.from_fraction(0) == Fraction(0)
    assert r.from_fraction(Fraction(1, 2)) + r.from_fraction(Fraction(1, 3)) == Fraction(5, 6)
    assert r.from_fraction(Fraction(2, 3)) * r.from_fraction(Fraction(3, 4)) == Fraction(1, 2)
    assert r.inv(Fraction(-4)) == Fraction(-1, 4)
    assert r.is_negative(Fraction(-1, 7))
    assert not r.is_negative(Fraction(0))


def test_rationals_have_no_generator():
    with pytest.raises(ValueError):
        BaseRing.rationals().generator()


def test_base_ring_validation():
    for n in (0, 3, 8):
        with pytest.raises(ValueError):
            BaseRing.cyclotomic(n)
    for text in ("rationals(3)", "integers", "cyclotomic(3)"):
        with pytest.raises(ValueError):
            BaseRing.from_description(text)
    assert BaseRing.rationals() == RATIONALS != BaseRing.cyclotomic(1)
    # a coefficient pair is an element of cyclotomic(4) only
    for base in (RATIONALS, BaseRing.cyclotomic(1), BaseRing.cyclotomic(2)):
        with pytest.raises(TypeError):
            ParamRing(base, []).scalar((1, 2))
    assert BaseRing.cyclotomic(4).element((1, Fraction(4, 2))) == (1, 2)


def test_base_ring_index_is_an_int():
    # True == 1 and 4.0 == 4, but neither describes itself as a ring that loads back
    for n in (True, False, 1.0, 4.0):
        with pytest.raises(ValueError):
            BaseRing(n)


def test_from_description_round_trip():
    for r in (BaseRing.rationals(), BaseRing.cyclotomic(1),
              BaseRing.cyclotomic(2), BaseRing.cyclotomic(4)):
        assert BaseRing.from_description(r.describe()) == r
    with pytest.raises(ValueError):
        BaseRing.from_description("gaussian")


def test_cyclotomic_four_is_the_gaussian_field():
    r = BaseRing.cyclotomic(4)
    s = r.generator()
    assert s * s == r.from_fraction(-1)
    assert r.inv(s) == -s
    # (1 + s)(1 - s) = 2
    one = r.one()
    assert (one + s) * (one - s) == r.from_fraction(2)
    w = r.from_fraction(Fraction(1, 2)) + s
    assert w * r.inv(w) == one


def test_cyclotomic_degree_one_quotients():
    assert BaseRing.cyclotomic(1).generator() == 1
    assert BaseRing.cyclotomic(2).generator() == -1


@pytest.mark.parametrize("n, value, text", [(1, 1, "3/2*u - q^-1"), (2, -1, "-1/2*u + q^-1")],
                         ids=["cyc1", "cyc2"])
def test_s_is_a_rational_over_the_degree_one_quotients(n, value, text):
    # Q[s]/(s - 1) and Q[s]/(s + 1) are Q: s parses to the rational 1 or -1,
    # and every scalar of the ring is an int or a Fraction
    ring = ParamRing(BaseRing.cyclotomic(n), [("q", True)])
    alphabet = preset("CentralPair").alphabet
    s = parse_expr("s", alphabet, ring).terms[()]
    assert s.terms == {ring.bias: value} and exact_types(s) == [int]
    p = parse_expr("(s + 1/2)*u - s*q^-1", alphabet, ring)
    assert exact_types(p) == [Fraction, int]
    assert p.render() == text
    assert ring.base.inv(ring.base.generator()) == value


def test_cyclotomic_render():
    r = BaseRing.cyclotomic(4)
    s = r.generator()
    assert r.render(s) == "s"
    assert r.render(-s) == "-s"
    assert r.render(r.one() + s) == "1 + s"
    assert r.render(r.one() + s, as_factor=True) == "(1 + s)"
    assert r.render(r.from_fraction(2) - s * r.from_fraction(3)) == "2 - 3*s"
    # mixed elements have no distinguished sign to pull out
    assert not r.is_negative(-r.one() + s)


def test_coerce():
    cyc = BaseRing.cyclotomic(4)
    assert cyc.coerce(RATIONALS, Fraction(1, 3)) == (Fraction(1, 3), Fraction(0))
    with pytest.raises(IncompatibleRingError):
        RATIONALS.coerce(cyc, cyc.one())


# -- parameter rings ----------------------------------------------------------

def test_param_ring_validation():
    with pytest.raises(ValueError):
        ParamRing(RATIONALS, [("q", True), ("q", False)])
    with pytest.raises(ValueError):
        ParamRing(RATIONALS, [("not a name", True)])
    with pytest.raises(ValueError):
        UR.index("missing")
    assert UR.is_invertible("Q")
    assert not UR.is_invertible("cT0")


def test_negative_exponent_on_plain_symbol():
    with pytest.raises(NotAUnitError):
        UR.param("cT0", -1)
    with pytest.raises(NotAUnitError):
        laurent_poly(UR, {(0, 0, -1, 0, 0): 1})
    assert UR.param("Q", -3).is_unit()


def test_poly_constructor_drops_zeros():
    p = laurent_poly(UR, {(1, 0, 0, 0, 0): 2, (0, 1, 0, 0, 0): 0})
    assert p == 2 * UR.param("cT0")
    with pytest.raises(IncompatibleRingError):
        laurent_poly(UR, {(1, 0): 1})


def test_scalar_and_equality_with_numbers():
    assert UR.scalar(Fraction(3, 2)) == Fraction(3, 2)
    assert UR.scalar(0).is_zero()
    assert UR.one() == 1
    assert UR.param("Q") != UR.one()


# -- Laurent polynomial arithmetic ---------------------------------------------

exponents = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.integers(0, 2), st.integers(-2, 2),
)
coeffs = st.integers(-3, 3)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(partial(laurent_poly, UR))


@given(polys, polys, polys)
@settings(**SETTINGS)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == UR.zero()
    assert a * UR.one() == a
    # this ring is commutative even though the algebra built over it is not
    assert a * b == b * a


@given(polys)
@settings(**SETTINGS)
def test_pow_matches_repeated_product(p):
    assert p ** 0 == UR.one()
    assert p ** 3 == p * p * p


def test_negative_power_requires_a_unit():
    q = UR.param("Q")
    assert (2 * q) ** -2 == Fraction(1, 4) * UR.param("Q", -2)
    with pytest.raises(NotAUnitError):
        (q + 1) ** -1


def test_is_unit():
    assert UR.param("Q", -1).is_unit()
    assert UR.scalar(5).is_unit()
    assert not (UR.param("cT0") * UR.param("Q", -2)).is_unit()
    assert not (UR.param("Q") + 1).is_unit()
    assert not UR.zero().is_unit()


def test_monomial_inverse():
    q = UR.param("Q")
    assert monomial_inverse(q) == UR.param("Q", -1)
    assert monomial_inverse(-2 * q ** 2) == Fraction(-1, 2) * UR.param("Q", -2)
    with pytest.raises(NotAUnitError):
        monomial_inverse(q + 1)
    with pytest.raises(NotAUnitError):
        monomial_inverse(UR.param("cV1"))
    with pytest.raises(NotAUnitError):
        monomial_inverse(UR.zero())


def test_mixed_ring_arithmetic_rejected():
    other = ParamRing(RATIONALS, [("Q", True)])
    with pytest.raises(IncompatibleRingError):
        UR.param("Q") + other.param("Q")


def test_render_goldens():
    q = UR.param("Q")
    assert (q - q ** -1).render() == "Q - Q^-1"
    assert (q - q ** -1).render(as_factor=True) == "(Q - Q^-1)"
    assert (1 - UR.param("cT0") * q ** -1).render() == "-cT0*Q^-1 + 1"
    assert (-2 * q).render(as_factor=True) == "(-2*Q)"
    assert UR.zero().render() == "0"
    assert UR.param("cT0", 2).render() == "cT0^2"
    assert (Fraction(1, 2) * UR.param("cV0") * q).render() == "1/2*cV0*Q"


# -- specialization -------------------------------------------------------------

TARGET = ParamRing(
    RATIONALS,
    [("cT0", False), ("cT1", False), ("cV0", False), ("cV1", False)],
)


def test_specialize_numeric():
    q = UR.param("Q")
    image = specialize(q - q ** -1, {"Q": TARGET.scalar(2)}, TARGET)
    assert image == Fraction(3, 2)
    kept = specialize(UR.param("cT0") * q, {"Q": TARGET.scalar(-1)}, TARGET)
    assert kept == -TARGET.param("cT0")


def test_specialize_to_unit_monomial():
    target = ParamRing(RATIONALS, [("t", True)])
    source = ParamRing(RATIONALS, [("Q", True)])
    image = specialize(
        source.param("Q", -2) + 1, {"Q": target.param("t")}, target
    )
    assert image == target.param("t", -2) + 1


def test_specialize_unit_violations():
    with pytest.raises(UnitViolationError):
        specialize(UR.param("Q"), {"Q": TARGET.scalar(0)}, TARGET)
    with pytest.raises(UnitViolationError):
        specialize(UR.param("Q"), {"Q": TARGET.param("cT0")}, TARGET)
    # retaining an invertible symbol in a ring where it is plain
    weak = ParamRing(RATIONALS, [("Q", False)])
    src = ParamRing(RATIONALS, [("Q", True)])
    with pytest.raises(UnitViolationError):
        specialize(src.param("Q"), {}, weak)


def test_specialize_ring_mismatches():
    other = ParamRing(RATIONALS, [("x", False)])
    with pytest.raises(IncompatibleRingError):
        specialize(UR.param("Q"), {"Q": other.param("x")}, TARGET)
    with pytest.raises(ValueError):
        specialize(UR.param("Q"), {"nope": TARGET.scalar(1)}, TARGET)


def test_specialize_into_cyclotomic():
    src = ParamRing(RATIONALS, [("q", True)])
    cyc = ParamRing(BaseRing.cyclotomic(4), [])
    s = cyc.scalar(cyc.base.generator())
    image = specialize(src.param("q", 2) + 1, {"q": s}, cyc)
    assert image.is_zero()  # s^2 = -1


# -- exact division -------------------------------------------------------------

def test_divide_exact_basics():
    q = UR.param("Q")
    assert divide_exact(UR.one(), q) == q ** -1
    assert divide_exact(q ** 2 - q ** -2, q - q ** -1) == q + q ** -1
    num = UR.param("cT0") * (q ** 3 + 2)
    assert divide_exact(num, q ** 3 + 2) == UR.param("cT0")


def test_divide_exact_failures():
    q = UR.param("Q")
    with pytest.raises(ExactDivisionError):
        divide_exact(q + 1, q - 1)
    with pytest.raises(ExactDivisionError):
        divide_exact(UR.one(), UR.param("cT0"))  # quotient leaves the ring
    with pytest.raises(ExactDivisionError):
        divide_exact(q, UR.zero())
    other = ParamRing(RATIONALS, [("Q", True)])
    with pytest.raises(IncompatibleRingError):
        divide_exact(q, other.param("Q"))


def test_divide_exact_edge_cases():
    q = UR.param("Q")
    # the quotient Q^(2^30) exists but lies outside the exponent range
    with pytest.raises(ExponentRangeError):
        divide_exact(UR.param("Q", EXPONENT_LIMIT - 1), UR.param("Q", -1))
    with pytest.raises(ExactDivisionError, match="quotient leaves the ring"):
        divide_exact(UR.one(), UR.param("cT0"))
    # not exact in two invertible parameters: the division stops with an error
    two = ParamRing(RATIONALS, [("a", True), ("b", True)])
    a, b = two.param("a"), two.param("b")
    with pytest.raises(ExactDivisionError, match="remainder is nonzero"):
        divide_exact(a * a + b, a - b * b + 1)
    with pytest.raises(ExactDivisionError, match="remainder is nonzero"):
        divide_exact(a ** -3 + b ** 2, a * b - 1)
    assert divide_exact((a ** -2 - b) * (a - b ** -1), a - b ** -1) == a ** -2 - b
    assert divide_exact(UR.zero(), q + 1) == UR.zero()
    # over cyclotomic(4) the first subtraction reaches q^2, absent from the
    # remainder: (q + s)*(q^2 - s*q + 1) = q^3 + 2*q + s, as s^2 = -1
    cyc = ParamRing(BaseRing.cyclotomic(4), [("q", True)])
    s, x = cyc.scalar(cyc.base.generator()), cyc.param("q")
    divisor = x * x - s * x + 1
    assert (x + s) * divisor == x ** 3 + 2 * x + s
    assert divide_exact(x ** 3 + 2 * x + s, divisor) == x + s
    with pytest.raises(ExactDivisionError, match="remainder is nonzero"):
        divide_exact(x ** 3 + s, divisor)


def test_divide_exact_random_products():
    rng = random.Random(20260814)
    names = UR.params
    for _ in range(60):
        def rand_poly():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exps = tuple(
                    rng.randrange(-2, 3) if UR.is_invertible(n) else rng.randrange(3)
                    for n in names
                )
                terms[exps] = rng.randrange(-4, 5)
            return laurent_poly(UR, terms)

        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        assert divide_exact(a * b, b) == a


def test_ring_union():
    # operands combine when their rings are equal, not only when identical
    q = UR.param("Q")
    twin = ParamRing(RATIONALS, list(zip(UR.params, UR.invertible)))
    assert q + UR.one() + twin.param("cV1") == UR.param("Q") + 1 + UR.param("cV1")
    other = ParamRing(RATIONALS, [("Q", True)])
    with pytest.raises(IncompatibleRingError):
        q * other.param("Q")


# -- int-first scalars ------------------------------------------------------------

def rationals_in(value):
    """Every rational stored in a scalar, LaurentPoly or NCPoly, read off
    the term maps (cyclotomic scalars unpacked)."""
    if isinstance(value, (NCPoly, LaurentPoly)):
        for c in value.terms.values():
            yield from rationals_in(c)
    elif isinstance(value, tuple):
        for x in value:
            yield from rationals_in(x)
    else:
        yield value


def exact_types(value) -> list:
    types = [type(x) for x in rationals_in(value)]
    assert set(types) <= {int, Fraction}, types  # never a float
    return types


def test_division_makes_fractions_and_nothing_else():
    q = UR.param("Q")
    cyc = BaseRing.cyclotomic(4)
    s = cyc.generator()

    assert RATIONALS.inv(4) == Fraction(1, 4) and exact_types(RATIONALS.inv(4)) == [Fraction]
    assert RATIONALS.inv(Fraction(-1, 3)) == -3
    assert exact_types(RATIONALS.inv(Fraction(-1, 3))) == [int]
    assert cyc.inv(cyc.from_fraction(2)) == (Fraction(1, 2), 0)
    assert exact_types(cyc.inv(cyc.from_fraction(2))) == [Fraction, int]
    assert cyc.inv(s) == (0, -1) and exact_types(cyc.inv(s)) == [int, int]
    assert cyc.inv(cyc.one() + s) == (Fraction(1, 2), Fraction(-1, 2))
    assert exact_types(cyc.inv(cyc.one() + s)) == [Fraction, Fraction]

    inverse = monomial_inverse(2 * q)
    assert exponent_terms(inverse) == {(0, 0, 0, 0, -1): Fraction(1, 2)}
    assert exact_types(inverse) == [Fraction]

    udaha = preset("UDAHA_model")
    parsed = udaha.parse("(2*Q)^-1")
    assert exponent_terms(parsed.terms[()]) == {(0, 0, 0, 0, -1): Fraction(1, 2)}
    assert exact_types(parsed) == [Fraction]

    # a non-unit integer leading coefficient: the quotient is whole again
    factor = 2 * q + 4
    quotient = divide_exact((3 * q - 1) * factor, factor)
    assert quotient == 3 * q - 1
    assert exact_types(quotient) == [int, int]
    assert exact_types(divide_exact(q + 1, 2 * q + 2)) == [Fraction]

    src = ParamRing(RATIONALS, [("q", True)])
    target = ParamRing(cyc, [])
    image = specialize(2 * src.param("q") + Fraction(1, 2), {"q": target.scalar(s)}, target)
    assert exponent_terms(image) == {(): (Fraction(1, 2), 2)}
    assert exact_types(image) == [Fraction, int]

    half, two = udaha.parse("1/2"), udaha.parse("4/2")
    assert exponent_terms(half.terms[()]) == {(0,) * 5: Fraction(1, 2)}
    assert exact_types(half) == [Fraction]
    assert exponent_terms(two.terms[()]) == {(0,) * 5: 2}
    assert exact_types(two) == [int]


UDAHA_RING = preset("UDAHA_model").ring
rational_values = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
)


def all_fraction(p: LaurentPoly) -> LaurentPoly:
    """`p` with every rational of every coefficient stored as a Fraction."""
    def convert(c):
        return Cyclo(map(Fraction, c)) if isinstance(c, tuple) else Fraction(c)

    return LaurentPoly(p.ring, {e: convert(c) for e, c in p.terms.items()})


@pytest.mark.parametrize("n", [None, 1, 2, 4], ids=["rationals", "cyc1", "cyc2", "cyc4"])
def test_int_first_matches_all_fraction(n):
    base = RATIONALS if n is None else BaseRing.cyclotomic(n)
    ring = ParamRing(base, list(zip(UDAHA_RING.params, UDAHA_RING.invertible)))
    width = len(ring.params)
    scalars = st.tuples(rational_values, rational_values) if n == 4 else rational_values
    exponents = st.tuples(*(st.integers(-3 if inv else 0, 3) for inv in ring.invertible))
    polys = st.dictionaries(exponents, scalars, max_size=4).map(partial(laurent_poly, ring))
    units = st.builds(
        lambda c, k: laurent_poly(ring, {(0,) * (width - 1) + (k,): c}),
        scalars.filter(lambda c: base.element(c)),
        st.integers(-3, 3),
    )

    @given(polys, polys, units, st.integers(-2, 3), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def agree(a, b, u, k, m):
        A, B, U = all_fraction(a), all_fraction(b), all_fraction(u)
        pairs = [(a, A), (a + b, A + B), (a - b, A - B), (a * b, A * B),
                 (-a, -A), (a ** m, A ** m), (u ** k, U ** k)]
        if b:
            pairs.append((divide_exact(a * b, b), divide_exact(A * B, B)))
            assert pairs[-1][0] == a
        for got, want in pairs:
            assert got.terms == want.terms
            assert got.render() == want.render()
            exact_types(got)

    agree()


# -- packed exponent keys against tuple exponents -----------------------------------

L = EXPONENT_LIMIT
EDGE_RING = ParamRing(RATIONALS, [("a", True), ("b", False), ("c", True)])
EDGES = [L // 2, L - 2, L - 1]


def edge_exponent(invertible: bool):
    small = st.integers(-3 if invertible else 0, 3)
    edges = EDGES + [-e - 1 for e in EDGES] if invertible else EDGES
    return st.one_of(small, st.sampled_from(edges))


edge_vectors = st.tuples(*(edge_exponent(flag) for flag in EDGE_RING.invertible))
edge_terms = st.dictionaries(edge_vectors, st.integers(-3, 3), max_size=3)
edge_units = st.builds(
    lambda c, e: {e: c},
    st.sampled_from([-2, -1, 1, 3]),
    st.tuples(edge_exponent(True), st.just(0), edge_exponent(True)),
)


@given(edge_terms, edge_terms, edge_units, st.integers(0, 3), st.integers(-2, 2))
@example({(L - 1, 0, 0): 1}, {(1, 0, 0): 1}, {(0, 0, 1): 1}, 1, 1)  # over the top slot
@example({(0, 0, -L): 1}, {(0, 0, -1): 1}, {(0, 0, -L): 1}, 1, -1)  # under the lowest slot
@example({(0, L - 1, 1): 1}, {(-L, 1, -2): 1}, {(-L, 0, 0): 1}, 2, 1)  # borrows below a guard
@example({(1 - L, 0, L - 2): 2}, {(-1, L - 1, 1): -1}, {(L - 1, 0, 1 - L): 1}, 1, -2)  # at the edges
@settings(max_examples=200, deadline=None)
def test_packed_kernel_matches_tuple_exponents(ta, tb, tu, m, k):
    # a result inside the range agrees with the reference term for term and in
    # text; one outside it raises, whatever borrows and carries the keys make
    a, b, u = (laurent_poly(EDGE_RING, t) for t in (ta, tb, tu))
    A, B, U = (TupleLaurent(EDGE_RING, t) for t in (ta, tb, tu))
    assert exponent_terms(a) == A.terms and a.render() == A.render()
    cases = [
        (lambda: a + b, A + B), (lambda: a - b, A - B), (lambda: -a, -A),
        (lambda: a * b, A * B), (lambda: a ** m, A ** m),
        (lambda: monomial_inverse(u), U.inverse()),
        (lambda: u ** k, U ** k if k >= 0 else U.inverse() ** -k),
    ]
    for kernel, want in cases:
        if want.in_range(L):
            got = kernel()
            assert exponent_terms(got) == want.terms
            assert got.render() == want.render()
        else:
            with pytest.raises(ExponentRangeError):
                kernel()


@pytest.mark.parametrize("exps", [(L, 0, 0), (-L - 1, 0, 0), (0, L, 0), (0, 0, 2**40)])
def test_poly_refuses_exponents_out_of_range(exps):
    with pytest.raises(ExponentRangeError):
        laurent_poly(EDGE_RING, {exps: 1})
    name = EDGE_RING.params[next(i for i, e in enumerate(exps) if e)]
    with pytest.raises(ExponentRangeError):
        EDGE_RING.param(name, sum(exps))

"""The certificate reader of the canonical rendering, against the expression
parser: it reads every rendering back to its element, and whatever text it
accepts, the parser reads to the same element.

The Hypothesis tests here take their example count from the profile named by
HYPOTHESIS_PROFILE (see conftest.py).
"""

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from daha import (
    Alphabet,
    BaseRing,
    CertificateError,
    NCPoly,
    ParamRing,
    ParseError,
    certificates,
    exprs,
    parse_expr,
    preset,
)
from daha.certificates import read_element

from conftest import ncpolys

AB = Alphabet(("T0", "T1", "V0", "V1"))
UDAHA_RING = preset("UDAHA_model").ring
RINGS = {
    "rationals": UDAHA_RING,
    **{f"cyc{n}": ParamRing(BaseRing.cyclotomic(n), list(zip(UDAHA_RING.params, UDAHA_RING.invertible)))
       for n in (1, 2, 4)},
}
CYC4 = RINGS["cyc4"]
LIMIT = 2**30 - 1  # the largest exponent magnitude both signs reach


def by_parser(text: str, ring) -> dict:
    return parse_expr(text, AB, ring).terms


@pytest.mark.parametrize("name", RINGS)
def test_reading_a_rendering_gives_back_its_terms(name):
    ring = RINGS[name]

    @given(ncpolys(AB, ring))
    def round_trip(p):
        assert read_element(p.render(), AB, ring) == p.terms

    round_trip()


@pytest.mark.parametrize("text, ring", [
    ("(s*Q + (-1 + s))", CYC4),  # a mixed constant after a term, in a group
    ("(1 + s)*T0 + 2 - s", CYC4),  # a bare mixed constant ends the sum
    ("((1 + s)*Q + 2)*V0 + (-1 + s)*Q*T1 - s*T0", CYC4),
    ("-2/3*s*cT0*Q^-1*T0*T1 + 1/2", CYC4),
    ("-cT1^2*Q^-2*V0*V1 + (Q - Q^-1)*T1", UDAHA_RING),
    ("0", UDAHA_RING),
], ids=["group-mixed-constant", "bare-mixed-constant", "nested-groups", "fraction-s", "powers", "zero"])
def test_reader_agrees_with_the_parser_on_rendered_shapes(text, ring):
    terms = read_element(text, AB, ring)
    assert terms == by_parser(text, ring)
    assert NCPoly(AB, ring, terms).render() == text


@pytest.mark.parametrize("name", RINGS)
def test_extreme_exponents_round_trip(name):
    ring = RINGS[name]
    coeff = ring.param("Q", LIMIT) + ring.param("Q", -LIMIT) * ring.param("cT0", LIMIT)
    p = NCPoly(AB, ring, {(0, 1): coeff, (): ring.param("Q", -LIMIT)})
    assert read_element(p.render(), AB, ring) == p.terms


def test_mixed_cyclotomic_constant_after_a_term_is_read():
    s = CYC4.scalar(CYC4.base.generator())
    p = NCPoly.from_terms(AB, CYC4, {(): CYC4.param("Q") * s + s - CYC4.scalar(1)})
    assert p.render() == "(s*Q + (-1 + s))"
    assert read_element(p.render(), AB, CYC4) == p.terms


@pytest.mark.parametrize("text, message", [
    ("T0*" * 1000 + "T1", "word degree exceeds 1000 in term"),
    ("9" * 4301 + "*T0", "cannot read"),
    ("0" * 4300 + "1*T0", "cannot read"),  # a literal's digits, not its value
    ("9" * 4300 + "*T0 + " + "9" * 4300 + "*T0", "scalar exceeds 4300 digits"),
    ("(" + "9" * 4300 + " + " + "9" * 4300 + ")*1/2*T0", "scalar exceeds 4300 digits"),
    ("(" + "9" * 4300 + "*Q + 1)*" + "9" * 4300 + "*T0", "scalar exceeds 4300 digits"),
    (f"Q^{LIMIT + 1}*T0", "parameter exponent outside"),
    (f"Q^{LIMIT}*Q*T0", "parameter exponent outside"),
    (f"Q^-{LIMIT + 1}*Q^-1*T0", "parameter exponent outside"),
    ("cT0^-1*T0", "negative exponent on plain symbol 'cT0'"),
    ("s*T0", "unknown symbol 's'"),  # over the rationals
    ("1/0*T0", "cannot read '1/0'"),
    ("T0 + ", "cannot read ''"),
    ("(Q + 1*T0", "unbalanced parentheses in '(Q'"),
], ids=[
    "degree", "literal-digits", "literal-leading-zeros", "sum-digits", "group-sum-digits",
    "group-times-literal-digits", "exponent-range", "product-range", "negative-product-range",
    "plain-negative", "s-over-rationals", "zero-denominator", "empty-term", "unbalanced",
])
def test_reader_refuses_what_the_parser_refuses(text, message):
    with pytest.raises(CertificateError) as info:
        read_element(text, AB, UDAHA_RING)
    assert message in str(info.value)
    with pytest.raises(ParseError):
        by_parser(text, UDAHA_RING)


@pytest.mark.parametrize("text, message", [
    ("T0*2*T1", "unknown symbol 'T0'"),
    ("2*3*T0", "cannot read '2*3'"),
    ("T0+T1", "cannot read 'T0+T1'"),
    ("Q*(Q + 1)*T0", "cannot read '(Q + 1)'"),
    ("(Q + 1)^2*T0", "cannot read '(Q + 1)^2'"),
    ("(((1 + s)*Q + 2)*cT0 + 1)*T0", "cannot read '(1 + s)*Q'"),
], ids=["letter-before-scalar", "second-literal", "tight-sum", "inner-group", "group-power",
        "three-deep"])
def test_reader_refuses_shapes_no_rendering_has(text, message):
    # text the grammar reads, but the renderer never writes
    by_parser(text, CYC4)
    with pytest.raises(CertificateError) as info:
        read_element(text, AB, CYC4)
    assert message in str(info.value)


def test_sum_term_budget(monkeypatch):
    monkeypatch.setattr(certificates, "MAX_TERMS", 4)
    assert len(read_element("T0 + T1 + V0 + V1", AB, UDAHA_RING)) == 4
    with pytest.raises(CertificateError, match="more than 4 terms"):
        read_element("T0 + T1 + V0 + V1 + 1", AB, UDAHA_RING)
    with pytest.raises(CertificateError, match="more than 4 terms"):
        read_element("(1 + Q + Q^2 + Q^3 + Q^4)*T0", AB, UDAHA_RING)


def test_deep_nesting_is_refused_without_recursion():
    with pytest.raises(CertificateError, match="cannot read"):
        read_element("(" * 5000 + "1" + ")" * 5000, AB, CYC4)


#: pieces an edit inserts or writes over: the characters and names of renderings
EDIT_PIECES = [
    "(", ")", " ", "+", "-", "*", "^", "/", "0", "1", "2", "9", "s", "Q", "cT0", "T0", "V1",
    " + ", " - ", "^-", "*s", "(1 + s)", "W0", "inv", "é", "٣", " ",
]

edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**6),
              st.integers(1, 3), st.sampled_from(EDIT_PIECES)),
    min_size=1, max_size=4,
)


def edited(text: str, changes) -> str:
    for kind, where, size, piece in changes:
        at = where % (len(text) + 1)
        if kind == "insert":
            text = text[:at] + piece + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + size:]
        else:
            text = text[:at] + piece + text[at + size:]
    return text


@pytest.mark.parametrize("name", ["rationals", "cyc4"])
def test_reader_never_accepts_text_with_another_value(name):
    ring = RINGS[name]

    @given(ncpolys(AB, ring), edits)
    def sound(p, changes):
        text = edited(p.render(), changes)
        try:
            terms = read_element(text, AB, ring)
        except CertificateError:
            return
        assert terms == by_parser(text, ring), text  # a ParseError here fails too

    sound()


def test_certificates_has_no_reference_to_exprs():
    # the checker's trusted base: replay reads text with its own reader
    assert "exprs" not in inspect.getsource(certificates)
    for value in vars(certificates).values():
        assert value is not exprs
        assert getattr(value, "__module__", None) != exprs.__name__

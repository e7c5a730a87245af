"""Expression grammar and the presentation file format."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daha import coeffring, exprs
from daha import (
    RATIONALS,
    Alphabet,
    BaseRing,
    NCPoly,
    ParamRing,
    ParseError,
    PresentationError,
    load_presentation,
    monomial_inverse,
    parse_expr,
    preset,
)

from conftest import exponent_terms, ncpolys, reference_tokenize

AB = Alphabet(("T0", "T1", "V0", "V1"))
UR = ParamRing(
    RATIONALS,
    [("cT0", False), ("cT1", False), ("cV0", False), ("cV1", False), ("Q", True)],
)


# -- parsing ------------------------------------------------------------------

def poly(terms):
    """The element of the free algebra over AB and UR with these terms."""
    return NCPoly.from_terms(AB, UR, terms)


def test_golden_ast():
    assert parse_expr("T0 + 2*V1", AB, UR) == poly({(0,): 1, (3,): 2})


def test_precedence():
    # ^ binds tighter than *, which binds tighter than + and -
    assert parse_expr("1 + Q*T0^2", AB, UR) == poly({(): 1, (0, 0): UR.param("Q")})
    assert parse_expr("2*T0^2", AB, UR) == poly({(0, 0): 2})
    assert parse_expr("(2*T0)^2", AB, UR) == poly({(0, 0): 4})
    # + and - associate to the left
    assert parse_expr("T0 - T1 + V0", AB, UR) == poly({(0,): 1, (1,): -1, (2,): 1})
    # ^ binds a signed integer literal, not a general expression
    assert parse_expr("Q^-1", AB, UR) == poly({(): UR.param("Q", -1)})


def test_unary_minus_and_fractions():
    assert parse_expr("-T0 + 3/4", AB, UR) == poly({(0,): -1, (): Fraction(3, 4)})
    assert parse_expr("-(T0 - 6/8)", AB, UR) == poly({(0,): -1, (): Fraction(3, 4)})
    with pytest.raises(ParseError) as info:
        parse_expr("1/0", AB, UR)
    assert "zero denominator" in str(info.value)
    assert info.value.pos == 2


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expr("T0 + ", AB, UR)
    assert info.value.pos == 5
    with pytest.raises(ParseError) as info:
        parse_expr("T0 @ T1", AB, UR)
    assert info.value.pos == 3
    with pytest.raises(ParseError) as info:
        parse_expr("T0 T1", AB, UR)  # juxtaposition is not multiplication
    assert info.value.pos == 3
    with pytest.raises(ParseError):
        parse_expr("(T0", AB, UR)
    with pytest.raises(ParseError):
        parse_expr("inv(T0", AB, UR)
    with pytest.raises(ParseError):
        parse_expr("T0^x", AB, UR)


def test_nesting_depth_is_bounded():
    assert parse_expr("(" * 100 + "T0" + ")" * 100, AB, UR) == poly({(0,): 1})
    with pytest.raises(ParseError) as info:
        parse_expr("(" * 2000 + "T0" + ")" * 2000, AB, UR)
    assert info.value.pos == 100
    assert "nested deeper than 100" in str(info.value)


def test_budget_errors_report_the_factor_power_or_summand(monkeypatch):
    monkeypatch.setattr(exprs, "MAX_TERMS", 16)
    monkeypatch.setattr(exprs, "MAX_DEGREE", 6)
    product = "(T0 + T1)*(V0 + V1)*(T0 + V1)*(T1 + V0)"  # 16 terms
    refused = {
        # a parenthesized factor: the first token inside its parentheses
        "(T0 + T1)*(T0*T0*T0*T0*T0*T0 + V1)": ("word degree exceeds 6", 11),
        "T0*(T1*T1*T1*T1*T1*T1)": ("word degree exceeds 6", 4),
        "T0*(-T1*T1*T1*T1*T1*T1)": ("word degree exceeds 6", 4),
        # a power: its caret
        "T0*(T1 + V0)^6": ("expansion exceeds 16 terms", 12),
        "(T0 + T1)^2*(V0 + V1)^3": ("expansion exceeds 16 terms", 21),
        # a sum: the summand that passes the budget, at its first token,
        # or at its caret when the summand is a power
        "V0 + " + product: ("expansion exceeds 16 terms", 5),
        "V0 - (" + product + ")": ("expansion exceeds 16 terms", 6),
        "V0 + (T0 + T1 + V0 + V1)^2": ("expansion exceeds 16 terms", 24),
    }
    for text, (message, pos) in refused.items():
        with pytest.raises(ParseError) as info:
            parse_expr(text, AB, UR)
        assert message in str(info.value), text
        assert info.value.pos == pos, text


def test_first_error_in_reading_order_is_reported():
    # the parser evaluates as it reads, so an unknown name is reported even
    # when a syntax error follows it
    with pytest.raises(ParseError) as info:
        parse_expr("T0 + nope*(T1", AB, UR)
    assert "unknown symbol 'nope'" in str(info.value)
    assert info.value.pos == 5
    with pytest.raises(ParseError) as info:
        parse_expr("T0 + * nope", AB, UR)
    assert "unexpected '*'" in str(info.value)
    assert info.value.pos == 5
    # the tokenizer reads the whole text first, so a stray character comes first
    with pytest.raises(ParseError) as info:
        parse_expr("nope + @", AB, UR)
    assert "stray character '@'" in str(info.value)
    assert info.value.pos == 7


def test_expansion_is_bounded(monkeypatch, udaha):
    monkeypatch.setattr(exprs, "MAX_TERMS", 16)
    # 4 x 4 = 16 term pairs are allowed; the next product would need 64
    assert len(parse_expr("(T0+T1+V0+V1)^2", AB, UR).terms) == 16
    with pytest.raises(ParseError) as info:
        parse_expr("(T0+T1+V0+V1)^12", AB, UR)
    assert "expansion exceeds 16 terms" in str(info.value)
    assert info.value.pos == 13  # the caret of the refused power
    # the same budget holds for products; multiplying by a letter adds no terms
    assert len(parse_expr("T0*(T0+T1)*(V0+V1)*V1*(T0+V1)*(T1+V0)", AB, UR).terms) == 16
    with pytest.raises(ParseError) as info:
        parse_expr("(T0+T1)*(V0+V1)*(T0+V1)*(T1+V0)*(T0+T1)", AB, UR)
    assert info.value.pos == 33
    # inv() multiplies its one-letter inverses under the same budget: 2^5 = 32 terms
    with pytest.raises(ParseError) as info:
        udaha.parse("inv(T0*T1*V0*V1*T0)")
    assert "expansion exceeds 16 terms" in str(info.value)
    assert info.value.pos == 0  # at inv
    # one word, but 5 x 5 Laurent terms in the coefficients
    with pytest.raises(ParseError) as info:
        parse_expr("(1 + Q + Q^2 + Q^3 + Q^4)*(1 + Q + Q^2 + Q^3 + Q^4)*T0", AB, UR)
    assert "expansion exceeds 16 terms" in str(info.value)
    assert info.value.pos == 27  # the sum inside the second factor


def test_sum_is_bounded(monkeypatch):
    monkeypatch.setattr(exprs, "MAX_TERMS", 16)
    product = "(T0+T1)*(V0+V1)*(T0+V1)*(T1+V0)"
    assert len(parse_expr(product, AB, UR).terms) == 16
    # two products at the limit whose sum has 32 terms
    with pytest.raises(ParseError) as info:
        parse_expr(product + " + (V0+V1)*(T0+T1)*(T0+V1)*(T1+V0)", AB, UR)
    assert "expansion exceeds 16 terms" in str(info.value)
    assert info.value.pos == 34  # the summand that passes the budget
    assert parse_expr(product + " - " + product, AB, UR).is_zero()


def test_degree_is_bounded(monkeypatch, udaha):
    monkeypatch.setattr(exprs, "MAX_DEGREE", 6)
    assert parse_expr("T0^3*Q*T1^3", AB, UR) == parse_expr("Q*T0*T0*T0*T1*T1*T1", AB, UR)
    assert len(parse_expr("(T0+T1)^3*(V0+V1)^3", AB, UR).terms) == 64
    assert max(map(len, udaha.parse("inv(T0*T1*V0*V1*T0*T1)").terms)) == 6
    refused = {
        "T0^7": 2,  # a power of a letter, at its caret
        "(T0*T1)^4": 7,  # a power of a word
        "(T0+T1)^7": 7,  # a power of a sum, before it expands
        "T0^4*T1^3": 7,  # a product of powers, at the factor that passes the budget
        "T0*T0*T0*T0*T0*T0*T0": 18,  # letters, at the one that passes the budget
        "(T0+T1)^3*(V0+V1)^4": 17,  # a product of sums
        "T0 + T1^7": 7,
        "inv(T0*T1*V0*V1*T0*T1*V0)": 0,
    }
    for text, pos in refused.items():
        with pytest.raises(ParseError) as info:
            udaha.parse(text)
        assert "word degree exceeds 6" in str(info.value), text
        assert info.value.pos == pos, text


def test_scalar_powers_are_bounded(monkeypatch):
    monkeypatch.setattr(exprs, "MAX_DIGITS", 10)
    monkeypatch.setattr(coeffring, "_TOO_LONG", 10**10)
    monkeypatch.setattr(exprs, "MAX_TERMS", 16)
    assert parse_expr("2^33", AB, UR) == parse_expr("8589934592", AB, UR)
    assert parse_expr("(2*Q)^-33", AB, UR) == parse_expr("1/8589934592*Q^-33", AB, UR)
    assert exponent_terms(parse_expr("Q^999999999*(-1)^999999999", AB, UR).terms[()]) == {
        (0, 0, 0, 0, 999999999): -1
    }
    assert len(parse_expr("(1 + Q)^4", AB, UR).terms[()].terms) == 5
    # a power of zero is zero without multiplying anything out
    assert parse_expr("(T0 - T0)^9999999999*T1 + 0^9999999999", AB, UR).is_zero()
    assert parse_expr("0^0", AB, UR) == parse_expr("1", AB, UR)
    refused = {
        "2^34": ("scalar exceeds 10 digits", 1),  # 11 digits
        "(2*Q)^-34": ("scalar exceeds 10 digits", 5),
        "12345678901*T0": ("integer literal longer than 10 digits", 0),
        "1/12345678901": ("integer literal longer than 10 digits", 2),
        "Q^12345678901": ("integer literal longer than 10 digits", 2),
        "(1 + Q)^8": ("expansion exceeds 16 terms", 7),  # a multi-term coefficient
    }
    for text, (message, pos) in refused.items():
        with pytest.raises(ParseError) as info:
            parse_expr(text, AB, UR)
        assert message in str(info.value), text
        assert info.value.pos == pos, text


# -- evaluation ----------------------------------------------------------------

def test_ast_to_ncpoly_matches_hand_built(udaha):
    p = udaha.parse("Q^-1 * T0^2")
    assert p == udaha.param("Q", -1) * udaha.gen("T0") * udaha.gen("T0")
    x = udaha.parse("V0*T1 + inv(V0*T1)")
    v0t1 = udaha.gen("V0") * udaha.gen("T1")
    assert x == v0t1 + udaha.inv_word(udaha.alphabet.word("V0", "T1"))
    assert udaha.parse("inv(1)") == udaha.one()
    # products multiply letters, scalars and sums in reading order
    t0, t1, v0 = udaha.gen("T0"), udaha.gen("T1"), udaha.gen("V0")
    folded = udaha.parse("2*T0*(Q + cT0)*T1*(T0 - V0)*Q^-1*inv(V0)*3/4")
    by_hand = t0 * t1 * (t0 - v0) * udaha.inv_word(udaha.alphabet.word("V0"))
    factor = Fraction(3, 2) * (udaha.param("Q") + udaha.param("cT0")) * udaha.param("Q", -1)
    assert folded == by_hand.scale(factor)
    assert udaha.parse("T0*0*T1").is_zero()
    assert udaha.parse("(T0 - T0)*T1").is_zero()
    assert udaha.parse("1 - 1").is_zero()


def test_unknown_symbol():
    with pytest.raises(ParseError):
        parse_expr("T0 + nope", AB, UR)
    # 's' only exists over a cyclotomic base
    with pytest.raises(ParseError):
        parse_expr("s", AB, UR)
    cyc = ParamRing(BaseRing.cyclotomic(4), [])
    assert parse_expr("s^2 + 1", AB, cyc).is_zero()


def test_inv_requires_context():
    with pytest.raises(ParseError):
        parse_expr("inv(T0)", AB, UR)  # no resolver supplied


def test_inv_takes_generators_only(udaha):
    with pytest.raises(ParseError):
        udaha.parse("inv(Q)")
    with pytest.raises(ParseError):
        udaha.parse("inv(T0 + T1)")


def test_negative_powers_need_unit_scalars(udaha):
    assert udaha.parse("(2*Q)^-1") == Fraction(1, 2) * udaha.param("Q", -1) * udaha.one()
    with pytest.raises(ParseError):
        udaha.parse("T0^-1")
    with pytest.raises(ParseError):
        udaha.parse("cT0^-1")
    with pytest.raises(ParseError):
        udaha.parse("(Q + 1)^-1")


def test_render_parses_back(udaha):
    p = udaha.parse("V0*T0*V1*T1 - Q^-1 + 1/2*cV1*T0")
    assert udaha.parse(p.render()) == p
    # a mixed cyclotomic coefficient of a word renders in parentheses
    cyc = ParamRing(BaseRing.cyclotomic(4), [])
    p = parse_expr("(1 + s)*T0 + 2 - s", AB, cyc)
    assert p.render() == "(1 + s)*T0 + 2 - s"
    assert parse_expr(p.render(), AB, cyc) == p


UDAHA_RING = preset("UDAHA_model").ring
CYC4 = ParamRing(BaseRing.cyclotomic(4), list(zip(UDAHA_RING.params, UDAHA_RING.invertible)))


@pytest.mark.parametrize("ring", [UDAHA_RING, CYC4], ids=["rationals", "cyc4"])
def test_render_round_trips(ring):
    @given(ncpolys(AB, ring))
    @settings(max_examples=50, deadline=None)
    def round_trip(p):
        assert parse_expr(p.render(), AB, ring) == p

    round_trip()


def test_mixed_cyclotomic_constant_after_a_term_round_trips():
    s = CYC4.scalar(CYC4.base.generator())
    coeff = CYC4.param("Q") * s + s - CYC4.scalar(1)
    p = NCPoly.from_terms(AB, CYC4, {(): coeff})
    assert p.render() == "(s*Q + (-1 + s))"
    assert parse_expr(p.render(), AB, CYC4) == p


# -- expression trees, evaluated apart from the parser --------------------------

def expression_trees(ring, with_inv: bool):
    """Sums of signed products of factors, as nested tuples: generators,
    rationals, parameters with signed exponents, `s` over cyclotomic(4),
    `inv(word)`, small powers and parenthesized sums."""
    atoms = [
        st.tuples(st.just("gen"), st.integers(0, 3)),
        st.tuples(st.just("num"), st.integers(0, 12), st.integers(1, 4)),
        st.sampled_from(ring.params).flatmap(lambda name: st.tuples(
            st.just("param"), st.just(name), st.integers(-3 if ring.is_invertible(name) else 0, 3)
        )),
    ]
    if ring.base.n == 4:
        atoms.append(st.just(("s",)))
    if with_inv:
        atoms.append(st.tuples(st.just("inv"), st.lists(st.integers(0, 3), max_size=4).map(tuple)))

    def sums(factors):
        product = st.lists(factors, min_size=1, max_size=3)
        rest = st.lists(st.tuples(st.sampled_from("+-"), product), max_size=2)
        return st.tuples(st.sampled_from(["", "+", "-"]), product, rest).map(
            lambda t: ("sum", [(t[0], t[1]), *t[2]])
        )

    factors = st.recursive(
        st.one_of(atoms),
        lambda inner: st.one_of(st.tuples(st.just("pow"), inner, st.integers(0, 5)), sums(inner)),
        max_leaves=8,
    )
    return sums(factors)


def render_tree(node, top: bool = False) -> str:
    """The text of `node`, as a factor unless it is the `top` sum."""
    kind = node[0]
    if kind == "gen":
        return AB.symbols[node[1]]
    if kind == "num":
        return str(node[1]) if node[2] == 1 else f"{node[1]}/{node[2]}"
    if kind == "param":
        return node[1] if node[2] == 1 else f"{node[1]}^{node[2]}"
    if kind == "s":
        return "s"
    if kind == "inv":
        return f"inv({'*'.join(AB.symbols[g] for g in node[1]) or '1'})"
    if kind == "pow":
        base = render_tree(node[1])
        if node[1][0] == "pow" or (node[1][0] == "param" and node[1][2] != 1):
            base = f"({base})"  # it has a caret of its own
        return f"{base}^{node[2]}"
    parts = []
    for sign, product in node[1]:
        body = "*".join(map(render_tree, product))
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    text = " ".join(parts)
    return text if top else f"({text})"


def term_bound(node) -> int:
    """An upper bound on the number of terms of `node`'s value."""
    if node[0] == "inv":
        return 2 ** len(node[1])
    if node[0] == "pow":
        return term_bound(node[1]) ** node[2]
    if node[0] == "sum":
        return sum(math.prod(map(term_bound, product)) for _, product in node[1])
    return 1


def evaluate_tree(node, ring, inv_word) -> NCPoly:
    """The value of `node` by NCPoly arithmetic, `inv_word` and `monomial_inverse`."""
    one = NCPoly.monomial(AB, ring, ())

    def power(value, k):
        out = one
        for _ in range(k):
            out = out * value
        return out

    kind = node[0]
    if kind == "gen":
        return NCPoly.monomial(AB, ring, (node[1],))
    if kind == "num":
        return one.scale(Fraction(node[1], node[2]))
    if kind == "param":
        name, e = node[1], node[2]
        c = ring.param(name) if e >= 0 else monomial_inverse(ring.param(name))
        return power(one.scale(c), abs(e))
    if kind == "s":
        return one.scale(ring.scalar(ring.base.generator()))
    if kind == "inv":
        return inv_word(node[1])
    if kind == "pow":
        return power(evaluate_tree(node[1], ring, inv_word), node[2])
    total = NCPoly.zero(AB, ring)
    for sign, product in node[1]:
        value = one
        for factor in product:
            value = value * evaluate_tree(factor, ring, inv_word)
        total = total - value if sign == "-" else total + value
    return total


@pytest.mark.parametrize("base", ["rationals", "cyc4"])
def test_parse_evaluates_expression_trees(udaha, base):
    # the example count comes from the Hypothesis profile (see conftest.py)
    if base == "rationals":
        ring, inv_word, parse = udaha.ring, udaha.inv_word, udaha.parse
    else:  # no inv() context: parse_expr without a resolver
        ring, inv_word, parse = CYC4, None, lambda text: parse_expr(text, AB, CYC4)

    @given(expression_trees(ring, inv_word is not None))
    def agrees(tree):
        assume(term_bound(tree) <= 256)
        assert parse(render_tree(tree, top=True)) == evaluate_tree(tree, ring, inv_word)

    agrees()


PIECES = [
    "T0", "T1", "V0", "V1", "Q", "cT0", "s", "inv", "x", "0", "1", "2", "3", "9" * 30,
    "+", "-", "*", "^", "/", "(", ")", " ", "\t", "(" * 40, "^-", "^99999999999",
    "@", "#", ".", "\u00e9", "\u0663",
]


@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_parse_error(udaha, text):
    # IndexError, ValueError, RecursionError or any other exception fails the test
    for parse in (udaha.parse, lambda t: parse_expr(t, AB, CYC4)):
        try:
            parse(text)
        except ParseError:
            pass


#: PIECES with Unicode whitespace, which separates tokens as a space does, and
#: one more run of Unicode digits, which is an integer as ASCII digits are
LEXER_PIECES = PIECES + ["\u00a0", "\u3000", "\u0663\u0966"]


@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_tokenize_matches_the_reference_lexer(udaha, text):
    parsers = (udaha.parse, lambda t: parse_expr(t, AB, CYC4))
    try:
        reference = reference_tokenize(text)
    except ParseError as stray:
        # the first stray character is refused first, at the same position
        for lex in (exprs.tokenize, *parsers):
            with pytest.raises(ParseError) as info:
                lex(text)
            assert (str(info.value), info.value.pos) == (str(stray), stray.pos)
        return
    assert exprs.tokenize(text) == [tok for _, tok, _ in reference]
    starts = {pos for _, _, pos in reference}  # the end token's is len(text)
    for parse in parsers:
        try:
            parse(text)
        except ParseError as exc:
            assert exc.pos in starts, text


def test_parse_errors_match_the_pinned_table(udaha, data_dir):
    # 240 seeded texts over PIECES and Unicode whitespace, with the message and
    # position each parse gave under the (kind, text, pos) lexer; None if it parsed
    table = json.loads((data_dir / "parse_errors.json").read_text(encoding="utf-8"))
    assert len(table) == 240
    for text, *expected in table:
        got = []
        for parse in (udaha.parse, lambda t: parse_expr(t, AB, CYC4)):
            try:
                parse(text)
                got.append(None)
            except ParseError as exc:
                got.append(str(exc))
        assert got == expected, text


# -- presentation files -----------------------------------------------------------

def test_load_presentation_golden(data_dir):
    spec = load_presentation((data_dir / "udaha.alg").read_text())
    assert spec.name == "UDAHA_model"
    assert spec.base == RATIONALS
    assert spec.params == (
        ("cT0", False), ("cT1", False), ("cV0", False), ("cV1", False), ("Q", True),
    )
    assert spec.generators == ("T0", "T1", "V0", "V1")
    assert len(spec.rules) == 5
    assert spec.rules[-1] == ("V0*T0*V1*T1", "Q^-1")


MINIMAL = """
[algebra]
name = pair
params = c
generators = u, v

[rules]
u*u = c*u - 1
"""


def test_load_presentation_minimal():
    spec = load_presentation(MINIMAL)
    assert spec.base == RATIONALS  # defaulted
    assert spec.order is None
    assert spec.params == (("c", False),)
    # without commas, a name followed by `inv` is one invertible parameter
    for params, expected in (
        ("c inv", (("c", True),)),
        ("c d", (("c", False), ("d", False))),
        ("c inv d", (("c", True), ("d", False))),
        ("c, d inv", (("c", False), ("d", True))),
    ):
        spec = load_presentation(MINIMAL.replace("params = c", f"params = {params}"))
        assert spec.params == expected, params


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("[rules]", "[rewriting]"),
        lambda t: t.replace("[rules]", "[rules]\n[rules]\n"),
        lambda t: t.replace("name = pair\n", ""),
        lambda t: t.replace("u*u = c*u - 1", "u*u"),
        lambda t: t.replace("params = c", "params = c inv inv, d"),
        lambda t: t.replace("[algebra]", "stray = 1\n[algebra]"),
        lambda t: t.replace("name = pair", "name = pair\nflavor = odd"),
        lambda t: t + "\n[order]\nwrong = u\n",
        lambda t: t.replace("u*u = c*u - 1", ""),
        lambda t: t.replace("params = c", "params = c inv inv d"),
        lambda t: t[t.index("[rules]") :],
        lambda t: t[: t.index("[rules]")],
        lambda t: t.replace("name = pair", "name = pair\nname = other"),
        lambda t: t.replace("name = pair", "name = pair\nbase = gaussian"),
    ],
)
def test_load_presentation_rejects(mutation):
    with pytest.raises(PresentationError):
        load_presentation(mutation(MINIMAL))


def test_load_presentation_order_section():
    spec = load_presentation(MINIMAL + "\n[order]\npermutation = v, u\n")
    assert spec.order == ("v", "u")

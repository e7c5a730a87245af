"""The rank-two braid group: normal forms checked against a faithful model.

The oracle sends b and c to their images in SL(2,Z) and tracks the
exponent sum in the two standard strand generators.  The matrix pair
separates everything outside the center, the center is infinite cyclic,
and the exponent sum is injective on it, so two words represent the
same group element exactly when both invariants agree.
"""

import itertools
import random

import pytest

from daha import (
    BraidWord,
    b3_act,
    b3_normal_form,
    b3_to_map,
    build_xyz,
    preset,
    run_suite,
    semilinear_apply,
)

I2 = ((1, 0), (0, 1))
NEG_I2 = ((-1, 0), (0, -1))

# b = s1*s2 and c = s1*s2*s1 for the strand generators s1, s2
MATRICES = {
    "b": ((0, 1), (-1, 1)),
    "B": ((1, -1), (1, 0)),
    "c": ((0, 1), (-1, 0)),
    "C": ((0, -1), (1, 0)),
    "a": NEG_I2,
    "A": NEG_I2,
}
EXPONENTS = {"b": 2, "B": -2, "c": 3, "C": -3, "a": 6, "A": -6}


def matmul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def invariant(letters):
    m, e = I2, 0
    for ch in letters:
        m = matmul(m, MATRICES[ch])
        e += EXPONENTS[ch]
    return m, e


def random_letters(rng, max_len=12):
    return "".join(rng.choice("bcBC") for _ in range(rng.randrange(max_len + 1)))


# -- the normal form ----------------------------------------------------------

def test_golden_normal_forms():
    cases = {
        "": "e",
        "bbb": "a",
        "cc": "a",
        "bc": "bc",
        "Bc": "Abbc",
        "bbbb": "ab",
        "ccb": "ab",
        "bbcbbc": "bbcbbc",
        "BBB": "A",
        "bbbCC": "e",
    }
    for text, expected in cases.items():
        assert str(b3_normal_form(text)) == expected


def test_oracle_sanity():
    # b^3 = c^2 = a is central of infinite order
    assert invariant("bbb") == invariant("cc") == (NEG_I2, 6)
    assert invariant("aA") == (I2, 0)


def test_normal_form_preserves_the_element():
    # every word of at most four letters meets each merge of the letter
    # table; the random words reach longer stacks
    rng = random.Random(101)
    short = (
        "".join(letters)
        for n in range(5)
        for letters in itertools.product("bBcCaA", repeat=n)
    )
    for text in itertools.chain(short, (random_letters(rng) for _ in range(300))):
        w = b3_normal_form(text)
        assert invariant(w.letters()) == invariant(text)
        # normalizing is idempotent
        assert b3_normal_form(w.letters()) == w


def test_normal_form_separates_elements():
    rng = random.Random(202)
    for _ in range(300):
        u, v = random_letters(rng), random_letters(rng)
        same_nf = b3_normal_form(u) == b3_normal_form(v)
        assert same_nf == (invariant(u) == invariant(v))


def test_relator_insertion_is_invisible():
    rng = random.Random(303)
    relators = ["bbbCC", "CCbbb", "bB", "Cc", "aA"]
    for _ in range(100):
        text = random_letters(rng)
        cut = rng.randrange(len(text) + 1)
        padded = text[:cut] + rng.choice(relators) + text[cut:]
        assert b3_normal_form(padded) == b3_normal_form(text)


def inverse_letters(letters: str) -> str:
    """The letters of the inverse word: reversed, each letter inverted."""
    return letters.swapcase()[::-1]


def test_group_operations():
    rng = random.Random(404)
    identity = BraidWord(0, ())
    for _ in range(100):
        u, v = random_letters(rng), random_letters(rng)
        wu, wv = b3_normal_form(u), b3_normal_form(v)
        assert wu * wv == b3_normal_form(u + v)
        assert BraidWord.parse(u + inverse_letters(u)) == identity
        assert BraidWord.parse(wu.letters() + inverse_letters(wu.letters())) == identity
        assert BraidWord.parse(u * 3) == wu * wu * wu
        # two inverses of u undo u*u
        assert wu * wu * BraidWord.parse(inverse_letters(u) * 2) == identity
    assert BraidWord.parse("") * BraidWord.parse("") == identity


def test_central_power_bookkeeping():
    a = BraidWord.parse("a")
    assert (a * a).a_power == 2
    assert str(BraidWord.parse(inverse_letters("aaa"))) == "AAA"
    assert b3_normal_form("bb" * 3) == a * a


def test_letters_round_trip():
    rng = random.Random(505)
    for _ in range(50):
        w = b3_normal_form(random_letters(rng))
        assert BraidWord.parse(w.letters()) == w
    assert str(BraidWord.parse("")) == "e"


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0, ("b", "b"))  # syllables must alternate b-ish / c
    with pytest.raises(ValueError):
        BraidWord(0, ("x",))
    with pytest.raises(ValueError):
        BraidWord.parse("bq")
    assert BraidWord.parse(" b c ") == b3_normal_form("bc")


# -- the action on the algebra ---------------------------------------------------

def test_b3_to_map_identity(udaha):
    ident = b3_to_map(BraidWord(0, ()), udaha)
    for name in udaha.alphabet.symbols:
        assert ident.images[name] == udaha.gen(name)


def test_action_is_compatible_with_products(udaha):
    rng = random.Random(606)
    p = udaha.parse("V0*T1 + Q*T0")
    for _ in range(8):
        u, v = random_letters(rng, 4), random_letters(rng, 4)
        uv = b3_normal_form(u + v)
        # (uv)(p) = u(v(p)): the action reads words outermost-first
        left = b3_act(uv, p, udaha)
        right = b3_act(b3_normal_form(u), b3_act(b3_normal_form(v), p, udaha), udaha)
        assert udaha.nf(left - right).is_zero()


def normal_forms(max_syllables):
    """Every B3 normal form with 1..max_syllables tail syllables and
    a-power -1, 0 or 1."""
    tails, grown = [], [()]
    for _ in range(max_syllables):
        grown = [t + (s,) for t in grown for s in ("b", "bb", "c") if not t or t[-1][0] != s[0]]
        tails += grown
    return [BraidWord(m, tail) for tail in tails for m in (-1, 0, 1)]


def test_sequential_action_matches_composed_map(udaha):
    # b sends cT0 -> cV0 -> cV1, so the second element pins the order in
    # which parameter actions and substitutions are applied
    elements = (build_xyz(udaha)["x"], udaha.parse("cV0*V0*T1 + cT0*Q^-1*T0*V1 + cV1"))
    words = normal_forms(3)
    assert len(words) == 39
    for w in words:
        phi = b3_to_map(w, udaha)
        for p in elements:
            assert b3_act(w, p, udaha).terms == semilinear_apply(phi, p).terms, str(w)


def test_action_is_not_stale_after_completion():
    early = preset("UDAHA_model")
    x = build_xyz(early)["x"]
    before = b3_act("bcb", x, early)
    early.complete(10)
    after = b3_act("bcb", x, early)
    fresh = preset("UDAHA_model")
    fresh.complete(10)
    expected = b3_act("bcb", build_xyz(fresh)["x"], fresh)
    assert after.terms == expected.terms
    assert before.terms != after.terms  # completion did change the normal form


def test_action_respects_multiplication(udaha):
    w = b3_normal_form("bc")
    p, q = udaha.parse("V0*T1"), udaha.parse("T0 - Q^-1")
    assert udaha.nf(
        b3_act(w, p * q, udaha) - b3_act(w, p, udaha) * b3_act(w, q, udaha)
    ).is_zero()


def test_verify_b3_relations():
    result = run_suite("lemma4.2")
    names = [check.name.split("/") for check in result.checks]
    assert [n[1:3] for n in names[:15]] == [
        ["well-defined", m] for m in ("b", "c", "conj_T1") for _ in range(5)]
    assert [n[1] for n in names[15:27]] == ["agree"] * 12
    assert [n[1] for n in names[27:43]] == ["inverse"] * 16
    assert names[43:] == [["lemma4.2", "param-actions-trivial"]]
    assert result.passed and all(c.verdict == "proved-equal" for c in result.checks)

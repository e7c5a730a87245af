"""Rewriting: rule orientation, normal forms, completion, certificates."""

import dataclasses
import hashlib
import itertools
import json
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daha import (
    RATIONALS,
    Alphabet,
    CertificateError,
    InsufficientCompletionError,
    NCPoly,
    OrientationError,
    ParamRing,
    ReductionStep,
    RewriteSystem,
    TermOrder,
    certificate_from_json,
    certificate_to_json,
    fnv1a64,
    four_cycle,
    make_rule,
    preset,
    replay,
    semilinear_apply,
)
from daha.rewrite import as_ncpoly, step_in_place, substitute
from conftest import normal_form_random, random_element

SETTINGS = {"max_examples": 40, "deadline": None}


# -- rule orientation -------------------------------------------------------------

def small_system():
    ab = Alphabet(("x", "y"))
    ring = ParamRing(RATIONALS, [])
    return ab, ring, TermOrder(ab)


def test_make_rule_accepts_descending():
    ab, ring, order = small_system()
    rhs = NCPoly.monomial(ab, ring, ab.word("y")) + 1
    rule = make_rule(order, 7, ab.word("x", "x"), rhs)
    assert rule.id == 7
    assert rule.render() == "x*x -> y + 1"


def test_make_rule_rejects_bad_orientation():
    ab, ring, order = small_system()
    with pytest.raises(OrientationError):
        make_rule(order, 1, (), NCPoly.zero(ab, ring))
    same = NCPoly.monomial(ab, ring, ab.word("x", "x"))
    with pytest.raises(OrientationError):
        make_rule(order, 1, ab.word("x", "x"), same)
    higher = NCPoly.monomial(ab, ring, ab.word("y", "y"))
    with pytest.raises(OrientationError):
        make_rule(order, 1, ab.word("x", "x"), higher)


# -- single steps -------------------------------------------------------------------

def one_step(alg, p, step):
    """`step_in_place` on a copy of the terms of `p`."""
    terms = dict(p.terms)
    step_in_place(terms, step, alg.system.rules, alg.alphabet)
    return as_ncpoly(alg.alphabet, alg.ring, terms)


def test_step_in_place_golden(udaha):
    v0 = udaha.gen("V0")
    p = v0 * v0
    step = ReductionStep(3, 0, udaha.alphabet.word("V0", "V0"))
    out = one_step(udaha, p, step)
    assert out == udaha.param("cV0") * v0 - 1


def test_step_in_place_rejects_mismatches(udaha):
    word = udaha.alphabet.word("V0", "V0")
    p = udaha.gen("V0") * udaha.gen("V0")
    with pytest.raises(CertificateError):
        one_step(udaha, p, ReductionStep(999, 0, word))
    with pytest.raises(CertificateError):
        one_step(udaha, p, ReductionStep(3, 1, word))
    absent = udaha.alphabet.word("T0", "T0")
    with pytest.raises(CertificateError):
        one_step(udaha, p, ReductionStep(1, 0, absent))


def test_substitute_in_place(udaha):
    # T0*V0*V0*T1 with V0*V0 -> cV0*V0 - 1 at position 1
    rule = udaha.system.find_redex(udaha.alphabet.word("V0", "V0"))[0]
    word = udaha.alphabet.word("T0", "V0", "V0", "T1")
    terms = {udaha.alphabet.word("T0", "T1"): udaha.ring.one()}
    new = substitute(terms, word, 1, rule, udaha.ring.scalar(2))
    assert new == [udaha.alphabet.word("T0", "V0", "T1")]
    assert as_ncpoly(udaha.alphabet, udaha.ring, terms) == udaha.parse("2*cV0*T0*V0*T1 - T0*T1")
    # cancelling the remaining term drops it from the map
    new = substitute(terms, word, 1, rule, udaha.ring.scalar(-1))
    assert new == []
    assert as_ncpoly(udaha.alphabet, udaha.ring, terms) == udaha.parse("cV0*T0*V0*T1")


def snapshot(p):
    """The rendering of `p` and a copy of each coefficient's term map."""
    return p.render(), {w: dict(c.terms) for w, c in p.terms.items()}


def rule_snapshots(system):
    return {rule: snapshot(rule.rhs) for rule in system.rules.values()}


def assert_unchanged(snapshots):
    for rule, before in snapshots.items():
        assert snapshot(rule.rhs) == before, rule.render()


def test_the_kernel_writes_only_coefficients_it_made():
    alg = preset("UDAHA_model")
    alg.complete(6)
    # V0*V0 -> cV0*V0 - 1 writes into T0*V0 (leaving Q + 2) and cancels T0
    p = alg.parse("T0*V0*V0 + (2 + Q)*T0*V0 - cV0*T0*V0 + T0")
    before, rules = snapshot(p), rule_snapshots(alg.system)
    nf, cert = alg.system.reduce_with_certificate(p)
    assert nf == alg.parse("(2 + Q)*T0*V0")
    verdict = alg.check_equal(p, alg.parse("(2 + Q)*T0*V0"))
    verbose = certificate_from_json(certificate_to_json(verdict.certificate, states=True))
    assert verdict.equal and verbose.states[-1] == "0"
    assert replay(cert).ok and replay(verbose).ok
    terms = dict(p.terms)
    for step in cert.steps:
        step_in_place(terms, step, alg.system.rules, alg.alphabet)
    assert as_ncpoly(alg.alphabet, alg.ring, terms) == nf
    assert snapshot(p) == before
    assert_unchanged(rules)
    # the kernel's other callers: products, scaling, a semilinear map, parsing
    q = alg.param("Q")
    assert p * p == alg.parse(f"({p.render()})*({p.render()})")
    assert p.scale(q) == NCPoly.from_terms(alg.alphabet, alg.ring, {w: c * q for w, c in p.terms.items()})
    phi = four_cycle(alg)
    images = {name: snapshot(image) for name, image in phi.images.items()}
    image = semilinear_apply(phi, p)
    assert semilinear_apply(phi, p) == image  # the second call reads the stored word images
    assert {name: snapshot(image) for name, image in phi.images.items()} == images
    assert alg.parse("(T0 + Q*V0)*(V0 - Q^-1*T1)") == alg.parse(
        "T0*V0 - Q^-1*T0*T1 + Q*V0*V0 - V0*T1"
    )
    assert snapshot(p) == before
    assert_unchanged(rules)
    # completion normalizes every rhs again; old and new rules keep theirs
    alg.complete(9)
    assert_unchanged(rules)
    rules = rule_snapshots(alg.system)
    alg.system.complete_to_degree(10)
    assert_unchanged(rules)
    assert snapshot(p) == before


# -- normal forms ---------------------------------------------------------------------

def test_normal_form_golden(udaha, generic):
    # V0*(V0*T0*V1*T1) = V0*Q^-1, so the normal form is Q^-1 * V0
    p = udaha.parse("V0*V0*T0*V1*T1")
    assert udaha.nf(p) == udaha.param("Q", -1) * udaha.gen("V0")
    hq = generic.parse("V0*V0*T0*V1*T1")
    assert generic.nf(hq) == generic.param("q", -1) * generic.gen("V0")


def test_normal_form_fixes_irreducibles(udaha):
    p = udaha.parse("T0*T1*V0*V1") + udaha.parse("T1") - 3
    nf, steps = udaha.system.normal_form(p, record=True)
    assert nf == p
    assert steps == ()


def test_recorded_steps_replay_sequentially(udaha):
    rng = random.Random(7)
    for _ in range(25):
        p = random_element(udaha, rng, max_terms=3, max_len=4)
        nf, steps = udaha.system.normal_form(p, record=True)
        current = p
        for step in steps:
            current = one_step(udaha, current, step)
        assert current == nf
        assert udaha.nf(nf) == nf  # idempotent


def test_randomized_strategy_agrees(udaha):
    rng = random.Random(11)
    for _ in range(15):
        p = random_element(udaha, rng, max_terms=3, max_len=4)
        assert normal_form_random(udaha.system, p, rng) == udaha.nf(p)


@given(st.integers(0, 2 ** 32 - 1))
@settings(**SETTINGS)
def test_normal_form_is_linear(udaha, seed):
    rng = random.Random(seed)
    a = random_element(udaha, rng, max_terms=2, max_len=4)
    b = random_element(udaha, rng, max_terms=2, max_len=4)
    assert udaha.nf(a + b) == udaha.nf(a) + udaha.nf(b)
    assert udaha.nf(a.scale(-5)) == udaha.nf(a).scale(-5)


def test_irreducible_words_central(central):
    words = central.system.irreducible_words(4)
    rendered = [central.alphabet.render_word(w) for w in words]
    # alternating words in u, v only: the two squares are the only redexes
    assert rendered == [
        "1", "u", "v", "u*v", "v*u", "u*v*u", "v*u*v", "u*v*u*v", "v*u*v*u",
    ]


def test_irreducible_words_shape(udaha):
    words = udaha.system.irreducible_words(3)
    assert len([w for w in words if len(w) <= 2]) == 13
    for w in words:
        assert udaha.system.find_redex(w) is None
    # closed under taking prefixes
    word_set = set(words)
    for w in words:
        assert w[:-1] in word_set or not w


# -- equality checking ------------------------------------------------------------------

def test_check_equal_verdicts(udaha):
    good = udaha.check_equal(udaha.parse("V0*T0*V1*T1"), udaha.parse("Q^-1"))
    assert good.equal
    assert good.verdict == "proved-equal"
    assert good.residual.is_zero()
    assert good.summary().startswith("proved-equal")

    bad = udaha.check_equal(udaha.parse("T0*T1"), udaha.parse("T1*T0"))
    assert not bad.equal
    assert bad.verdict == "distinct-at-degree"
    assert not bad.residual.is_zero()
    assert "distinct-at-degree 10" in bad.summary()


def test_check_equal_requires_completion():
    fresh = preset("UDAHA_model")
    with pytest.raises(InsufficientCompletionError):
        fresh.check_equal(fresh.parse("T0*T1"), fresh.parse("T1*T0"))
    # a zero difference needs no completion at all
    assert fresh.check_equal(fresh.parse("T0"), fresh.parse("T0")).equal


# -- completion ------------------------------------------------------------------------

def test_completion_report_and_rules():
    alg = preset("UDAHA_model")
    report = alg.complete(6)
    assert report.degree == 6
    assert report.passes == 5
    assert report.rules_added == 8
    # 56 pair checks over the five passes; 26 repeat a pair already found
    # resolved with the same two rules and are skipped
    assert (report.ambiguities_checked, report.ambiguities_skipped) == (30, 26)
    assert report.ambiguities_checked + report.ambiguities_skipped == 56
    rules = alg.system.sorted_rules()
    assert len(rules) == 8
    by_lhs = {alg.alphabet.render_word(r.lhs): r for r in rules}
    # the four squares survive interreduction verbatim
    assert by_lhs["T0*T0"].rhs == alg.param("cT0") * alg.gen("T0") - 1
    assert by_lhs["V1*V1"].rhs == alg.param("cV1") * alg.gen("V1") - 1
    # the degree-4 product axiom is replaced by straightening rules
    assert set(by_lhs) == {
        "T0*T0", "T1*T1", "V0*V0", "V1*V1",
        "V0*T0", "V0*T1", "V1*T1", "V1*T0",
    }
    assert (
        by_lhs["V0*T1"].render()
        == "V0*T1 -> Q*T0*V1 + cT1*V0 + cV0*T1 - cT1*cV0"
    )


def test_completion_is_idempotent():
    alg = preset("UDAHA_model")
    alg.complete(6)
    rules = {r.id for r in alg.system.sorted_rules()}
    again = alg.complete(6)
    assert (again.passes, again.rules_added) == (0, 0)
    assert (again.ambiguities_checked, again.ambiguities_skipped) == (0, 0)
    extended = alg.complete(10)
    assert extended.rules_added == 0  # no ambiguities survive past degree 7
    # every pair was found resolved at degree 6 with the same rules
    assert extended.ambiguities_checked == 0
    assert extended.ambiguities_skipped == len(alg.system.critical_pairs(10)) == 12
    assert {r.id for r in alg.system.sorted_rules()} == rules
    assert alg.system.confluence_degree == 10


def test_added_rule_voids_completion():
    ab = Alphabet(("a", "b"))
    ring = ParamRing(RATIONALS, [])
    system = RewriteSystem(ab, ring)
    one = NCPoly.monomial(ab, ring, ())
    system.add_rule(ab.word("b", "b", "a"), NCPoly.monomial(ab, ring, ab.word("a")))
    system.complete_to_degree(6)
    assert system.confluence_degree == 6
    system.add_rule(ab.word("a"), one)
    # a = 1 = b*b now; a stale degree would answer distinct-at-degree
    assert system.confluence_degree == 0
    a, bb = NCPoly.monomial(ab, ring, ab.word("a")), NCPoly.monomial(ab, ring, ab.word("b", "b"))
    with pytest.raises(InsufficientCompletionError):
        system.check_equal(a, bb)
    system.complete_to_degree(6)
    assert system.check_equal(a, bb).equal


def test_axiom_voids_completion():
    alg = preset("CentralPair")
    alg.complete(4)
    alg.add_axiom(alg.alphabet.word("u"), alg.one())
    assert alg.system.confluence_degree == 0


def test_orientation_error_names_its_source():
    alg = preset("CentralPair")
    alg.add_axiom(alg.alphabet.word("v", "u", "v"), alg.parse("u*v*u"))
    with pytest.raises(OrientationError) as info:
        alg.complete(6)
    message = str(info.value)
    assert "leading coefficient -cu + cv" in message
    assert "derived relation (-cu + cv)*v*u + (cu - cv)*u*v = 0" in message
    assert "overlap ambiguity of rules 3 and 3 on v*u*v*u*v" in message


def test_duplicate_lhs_are_compared(data_dir):
    alg = preset(str(data_dir / "duplicate_lhs.alg"))
    kinds = [amb.kind for amb in alg.system.critical_pairs(4)]
    assert kinds == ["inclusion"]  # one record per pair of rules, not two
    alg.complete(4)
    assert alg.check_equal(alg.parse("b"), alg.parse("1")).verdict == "proved-equal"


def test_completion_detects_collapse():
    ab = Alphabet(("g",))
    ring = ParamRing(RATIONALS, [])
    system = RewriteSystem(ab, ring)
    one = NCPoly.monomial(ab, ring, ())
    system.add_rule(ab.word("g", "g"), one)
    system.add_rule(ab.word("g", "g", "g"), one.scale(2))
    # g^3 reduces to both g and 2, so g -> 2 and then 1 = g*g -> 4
    with pytest.raises(OrientationError):
        system.complete_to_degree(4)


def _completed_rules(name, order, degrees, reports=False) -> str:
    """The rendered rule set after completing to each degree in turn, led
    by the completion reports if `reports`, or the refusal message."""
    alg = preset(name, order=order)
    try:
        done = [alg.complete(degree) for degree in degrees]
    except OrientationError as exc:
        return f"refused: {exc}"
    rules = "; ".join(f"[{r.id}] {r.render()}" for r in alg.system.sorted_rules())
    return f"{', '.join(map(str, done))}: {rules}" if reports else rules


ORDERS = list(itertools.permutations(("T0", "T1", "V0", "V1")))


def _pinned_digest(degree, reports) -> str:
    lines = [
        f"{name} {','.join(order)}: {_completed_rules(name, order, [degree], reports)}"
        for name in ("H_generic", "UDAHA_model")
        for order in ORDERS
    ]
    assert sum("refused: " in line for line in lines) == 10
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_completed_rule_sets_are_pinned():
    # rule ids, left and right sides and refusal messages of both presets
    # under all 24 precedences at degree 5, and at degree 7 with each
    # completion report; skipping resolved pairs or settled right-hand
    # sides must not move any of them
    assert _pinned_digest(5, False) == "be97064b2ac6f7d10d93656cf51ec77b7e43c8de5f76bb3154ae54c31d216288"
    assert _pinned_digest(7, True) == "a295279f632fce6f72356f6c7f5f9b0a35111db49c4bf93fef9e5b407cc5c251"


@pytest.mark.parametrize("name", ["H_generic", "UDAHA_model"])
@pytest.mark.parametrize("order", [None, ("T0", "V1", "T1", "V0")])
def test_raising_the_degree_matches_direct_completion(name, order):
    assert _completed_rules(name, order, [5, 8]) == _completed_rules(name, order, [8])


def test_rewritten_rule_is_checked_again(monkeypatch):
    ab = Alphabet(("x", "y", "z", "w"))
    ring = ParamRing(RATIONALS, [])
    system = RewriteSystem(ab, ring)

    def m(*letters):
        return NCPoly.monomial(ab, ring, ab.word(*letters))

    square = system.add_rule(ab.word("x", "x"), m("z"))
    system.add_rule(ab.word("w", "w"), m("w"))
    first = system.complete_to_degree(4)  # adds z*x -> x*z
    assert (first.ambiguities_checked, first.ambiguities_skipped) == (4, 1)
    checked = []
    original = system.ambiguity_difference
    monkeypatch.setattr(system, "ambiguity_difference",
                        lambda amb: checked.append(amb) or original(amb))
    # inter-reduction rewrites x*x -> z to x*x -> y and retires z*x -> x*z
    system.add_rule(ab.word("z"), m("y"))
    second = system.complete_to_degree(4)
    assert system.rules[square.id] is not square
    assert system.rules[square.id].rhs == m("y")
    checked_words = [ab.render_word(amb.word) for amb in checked]
    assert checked_words == ["z*x", "x*x*x", "y*x*x"]
    # skipped: x*x*x, w*w*w and z*x*x before the rewrite, w*w*w after it
    assert (second.ambiguities_checked, second.ambiguities_skipped) == (3, 4)
    assert system.check_equal(m("x", "x", "x"), m("x", "y")).equal
    assert system.check_equal(m("z", "x"), m("x", "z")).equal
    assert system.check_equal(m("x", "y"), m("y", "y")).verdict == "distinct-at-degree"


def test_completion_logs_each_pass(caplog):
    caplog.set_level(logging.DEBUG, logger="daha")
    alg = preset("UDAHA_model")
    report = alg.complete(6)
    rows = [r.args for r in caplog.records if r.msg.startswith("completion to degree")]
    assert len(rows) == report.passes == 5
    assert [row[1] for row in rows] == [1, 2, 3, 4, 5]
    assert sum(row[2] for row in rows) == report.ambiguities_checked
    assert sum(row[3] for row in rows) == report.ambiguities_skipped
    assert sum(row[5] for row in rows) == report.rules_added
    assert rows[-1][4] == 0  # the last pass finds nothing unresolved


# -- certificates --------------------------------------------------------------------------

def test_certificate_replay(udaha):
    p = udaha.parse("V0*V0*T0*V1*T1 - T1*T1")
    nf, cert = udaha.system.reduce_with_certificate(p)
    assert cert.initial == p.render()
    assert cert.final == nf.render()
    assert cert.confluence_degree == 10
    result = replay(cert)
    assert result.ok
    assert result.steps_applied == len(cert.steps) > 0


def test_certificate_verbose_states(udaha):
    p = udaha.parse("V1*V1*T0")
    nf, cert = udaha.system.reduce_with_certificate(p)
    cert = certificate_from_json(certificate_to_json(cert, states=True))
    assert cert.states is not None
    assert len(cert.states) == len(cert.steps)
    assert cert.states[-1] == nf.render()
    assert replay(cert).ok


def test_certificate_tampering_detected(udaha):
    p = udaha.parse("V0*V0*T0*V1*T1")
    _, cert = udaha.system.reduce_with_certificate(p)

    wrong_final = dataclasses.replace(cert, final_hash="0" * 16)
    outcome = replay(wrong_final)
    assert not outcome.ok
    assert "final hash" in outcome.message

    wrong_initial = dataclasses.replace(cert, initial_hash="f" * 16)
    assert "initial hash" in replay(wrong_initial).message

    bad_step = dataclasses.replace(
        cert, steps=(ReductionStep(999, 0, cert.steps[0].word),) + cert.steps[1:]
    )
    assert "unknown rule" in replay(bad_step).message

    dropped = dataclasses.replace(cert, steps=cert.steps[:-1])
    assert not replay(dropped).ok


def json_paths(value, prefix=()):
    """The key path of `value` and of everything nested in it."""
    yield prefix
    if isinstance(value, (dict, list)):
        keys = value.keys() if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield from json_paths(value[key], prefix + (key,))


DELETE = object()
JSON_SWAPS = st.sampled_from([0, -1, 2.5, "0", "x", "", [], [1], [[1]], {}, {"a": 1}, None, True, DELETE])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_certificate_json_is_refused_or_replayed(udaha, data):
    # any field swapped for a value of another JSON type, or deleted: decoding
    # raises CertificateError or replay returns a result, nothing else
    p = udaha.parse("V0*V0*T0*V1*T1 + 2*T1*T1")
    _, cert = udaha.system.reduce_with_certificate(p)
    cert = certificate_from_json(certificate_to_json(cert, states=True))
    doc = json.loads(json.dumps(certificate_to_json(cert)))
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    swap = data.draw(JSON_SWAPS)
    if not path:
        doc = {} if swap is DELETE else swap
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if swap is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = swap
    try:
        mutated = certificate_from_json(doc)
    except CertificateError:
        return
    assert isinstance(replay(mutated).ok, bool)


def tamper_step(cert, index, **changes):
    steps = list(cert.steps)
    steps[index] = steps[index]._replace(**changes)
    return dataclasses.replace(cert, steps=tuple(steps))


def test_replay_names_the_failing_step(udaha):
    p = udaha.parse("V0*V0*T0*V1*T1 + T1*T1*V0")
    _, cert = udaha.system.reduce_with_certificate(p)
    cert = certificate_from_json(certificate_to_json(cert, states=True))
    assert len(cert.steps) >= 3
    first, second = cert.steps[0], cert.steps[1]

    unknown = tamper_step(cert, 1, rule_id=999)
    assert replay(unknown).message == "step 2: unknown rule id 999"

    # the first step's word is gone once it has been rewritten
    absent = tamper_step(cert, 1, word=first.word, position=first.position)
    assert replay(absent).message == (
        f"step 2: absent word {udaha.alphabet.render_word(first.word)}"
    )

    misplaced = tamper_step(cert, 1, position=len(second.word))
    assert replay(misplaced).message == (
        f"step 2: rule {second.rule_id} does not match "
        f"{udaha.alphabet.render_word(second.word)} at position {len(second.word)}"
    )

    states = list(cert.states)
    states[2] = "0"
    outcome = replay(dataclasses.replace(cert, states=tuple(states)))
    assert outcome.message == "step 3: state mismatch"
    assert not outcome.ok and outcome.steps_applied == 0

    wrong_final = dataclasses.replace(cert, final_hash="0" * 16)
    assert replay(wrong_final).message == "final hash mismatch"

    wrong_text = dataclasses.replace(cert, final=cert.final + " + 1")
    assert replay(wrong_text).message == "final element does not match its rendering"

    # the product axiom's Q^-1 takes this initial element's Q out of range
    _, product = udaha.system.reduce_with_certificate(udaha.parse("V0*T0*V1*T1"))
    initial = udaha.parse("Q^-1073741824*V0*T0*V1*T1")
    extreme = dataclasses.replace(product, initial=initial.render(), initial_hash=fnv1a64(initial.render()))
    assert replay(extreme).message == "step 1: parameter exponent outside -1073741824..1073741823"


def test_certificate_states_must_be_a_list_of_texts(udaha):
    verdict = udaha.check_equal(udaha.parse("T0*T0"), udaha.parse("cT0*T0 - 1"))
    doc = certificate_to_json(verdict.certificate, states=True)
    assert doc["states"] == ["0"] and replay(certificate_from_json(doc)).ok
    for states, kind in (("0", "list"), ({"0": 1}, "list"), ([0], "str")):
        with pytest.raises(CertificateError, match=f"is not of type {kind}$"):
            certificate_from_json({**doc, "states": states})


def test_certificate_tampered_states(udaha):
    p = udaha.parse("T0*T0")
    _, cert = udaha.system.reduce_with_certificate(p)
    cert = certificate_from_json(certificate_to_json(cert, states=True))
    fudged = dataclasses.replace(cert, states=("0",) * len(cert.states))
    assert "state mismatch" in replay(fudged).message

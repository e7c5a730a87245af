"""Presentations, semilinear maps, specializations, and the cyclic form."""

import pytest

from daha import (
    AlgebraPresentation,
    NCPoly,
    PRESET_NAMES,
    PresentationError,
    SemilinearMap,
    UnsupportedPresetError,
    Workspace,
    aw_form_extract,
    aw_rhs,
    braid_b_map,
    braid_c_map,
    build_xyz,
    compose_maps,
    conjugation_map,
    four_cycle,
    from_presentation,
    identity_map,
    load_presentation,
    map_power,
    preset,
    presentation_spec,
    semilinear_apply,
    specialize_presentation,
    verify_map,
)
from daha.algebras import apply_param_map, product_axiom, q_symbol, q_value, trace_symbol
from daha.coeffring import RATIONALS, ParamRing
from daha.errors import ExtractionError

from conftest import inv_element, specialize_ncpoly, surjection_assignment


# -- presets -----------------------------------------------------------------

def test_preset_rings():
    assert set(PRESET_NAMES) == {"H_generic", "UDAHA_model", "CentralPair"}
    h = preset("H_generic")
    assert h.ring.params == ("k0", "k1", "l0", "l1", "q")
    assert all(h.ring.invertible)
    u = preset("UDAHA_model")
    assert u.ring.params == ("cT0", "cT1", "cV0", "cV1", "Q")
    assert u.ring.invertible == (False, False, False, False, True)
    c = preset("CentralPair")
    assert c.alphabet.symbols == ("u", "v")
    with pytest.raises(UnsupportedPresetError):
        preset("H_affine")


def test_axioms_survive_completion(udaha):
    # completion retires the degree-4 rule but the axiom list is the
    # stable interface that map verification walks
    assert len(udaha.axioms) == 5
    lhs, rhs = product_axiom(udaha)
    assert udaha.alphabet.render_word(lhs) == "V0*T0*V1*T1"
    assert rhs == udaha.scalar(udaha.param("Q", -1))


def test_traces(udaha, generic, central):
    assert udaha.trace("T0") == udaha.param("cT0")
    assert generic.trace("V1") == generic.param("l1") + generic.param("l1", -1)
    assert central.trace("u") == central.param("cu")
    with pytest.raises(ValueError):
        udaha.trace("u")


def test_trace_requires_hecke_shape():
    alg = from_presentation(load_presentation(
        "[algebra]\nname = unit\nparams = c\ngenerators = u\n"
        "[rules]\nu*u = 1\n"
    ))
    with pytest.raises(UnsupportedPresetError):
        alg.trace("u")


def test_q_helpers(udaha, generic, central):
    assert q_value(udaha) == udaha.param("Q")
    assert q_symbol(udaha) == "Q"
    assert q_symbol(generic) == "q"
    assert trace_symbol(udaha, "V1") == "cV1"
    assert trace_symbol(generic, "T0") == "k0"
    with pytest.raises(UnsupportedPresetError):
        product_axiom(central)


def test_preset_takes_a_name_or_a_path(data_dir):
    assert preset("CentralPair").name == "CentralPair"
    loaded = preset(str(data_dir / "udaha.alg"))
    assert loaded.name == "UDAHA_model"
    assert len(loaded.axioms) == 5
    flipped = ("V1", "V0", "T1", "T0")
    assert preset(str(data_dir / "udaha.alg"), flipped).system.order.precedence == flipped
    assert preset("UDAHA_model", order=flipped).system.order.precedence == flipped
    with pytest.raises(UnsupportedPresetError) as info:
        preset("NoSuchAlgebra")
    assert str(info.value) == (
        "'NoSuchAlgebra' is neither a preset (H_generic, UDAHA_model, CentralPair) nor a file"
    )


def test_presentation_file_loads_through_preset_as_the_preset(data_dir):
    # tests/data/udaha.alg writes out the UDAHA_model preset: same ring,
    # axioms and completed rules
    loaded, shipped = preset(str(data_dir / "udaha.alg")), preset("UDAHA_model")
    assert loaded.ring == shipped.ring and loaded.alphabet == shipped.alphabet
    assert [(lhs, rhs.render()) for lhs, rhs in loaded.axioms] == [
        (lhs, rhs.render()) for lhs, rhs in shipped.axioms
    ]
    loaded.complete(6)
    shipped.complete(6)
    assert [r.render() for r in loaded.system.sorted_rules()] == [
        r.render() for r in shipped.system.sorted_rules()
    ]


def test_from_presentation_rejects_bad_rules():
    with pytest.raises(PresentationError):
        from_presentation(load_presentation(
            "[algebra]\nname = bad\nparams = c\ngenerators = u\n"
            "[rules]\nu*u = w\n"
        ))
    with pytest.raises(PresentationError, match=r"^cannot orient rule 'u\*u': rhs word u\*u\*u does"):
        from_presentation(load_presentation(
            "[algebra]\nname = bad\nparams = c\ngenerators = u\n"
            "[rules]\nu*u = u*u*u\n"  # not orientable
        ))
    for permutation in ("u", ""):  # a partial precedence, and an empty one
        with pytest.raises(PresentationError):
            from_presentation(load_presentation(
                "[algebra]\nname = bad\nparams = c\ngenerators = u, v\n"
                f"[rules]\nu*u = 1\n[order]\npermutation = {permutation}\n"
            ))


def test_from_presentation_lets_a_fault_surface(monkeypatch):
    # only a DahaError from add_axiom is a refusal of the rule; anything
    # else is a fault and keeps its own type
    def broken(self, lhs, rhs):
        raise RuntimeError("fault")

    monkeypatch.setattr(AlgebraPresentation, "add_axiom", broken)
    with pytest.raises(RuntimeError, match="^fault$"):
        from_presentation(presentation_spec("CentralPair"))


# -- inverses -------------------------------------------------------------------

def test_inv_word_golden(udaha):
    got = udaha.inv_word(udaha.alphabet.word("V0", "T1"))
    t1v0 = udaha.gen("T1") * udaha.gen("V0")
    expected = (
        t1v0
        - udaha.param("cT1") * udaha.gen("V0")
        - udaha.param("cV0") * udaha.gen("T1")
        + udaha.scalar(udaha.param("cT1") * udaha.param("cV0"))
    )
    assert got == expected


def test_inverses_multiply_to_one(udaha, generic):
    for alg in (udaha, generic):
        for text in ("T0", "V1", "V0*T1", "T0*T1*V0"):
            p = alg.parse(text)
            inv = inv_element(alg, p)
            assert alg.nf(p * inv) == alg.one()
            assert alg.nf(inv * p) == alg.one()


def test_inv_element_monomial(udaha):
    m = udaha.gen("T0") * udaha.param("Q")
    inv = inv_element(udaha, m)
    assert udaha.nf(m * inv) == udaha.one()
    with pytest.raises(UnsupportedPresetError):
        inv_element(udaha, udaha.gen("T0") + 1)


# -- x, y, z ---------------------------------------------------------------------

def test_build_xyz(udaha):
    xyz = build_xyz(udaha)
    assert xyz["x"] == udaha.parse("V0*T1 + inv(V0*T1)")
    assert xyz["y"] == udaha.parse("V1*T1 + inv(V1*T1)")
    assert xyz["z"] == udaha.parse("T0*T1 + inv(T0*T1)")
    assert set(xyz) == {"x", "y", "z"}


def test_build_xyz_needs_daha_generators(central):
    with pytest.raises(UnsupportedPresetError):
        build_xyz(central)


# -- semilinear maps ---------------------------------------------------------------

def test_four_cycle_tables(udaha, generic):
    fc = four_cycle(udaha)
    assert {k: v.render() for k, v in fc.images.items()} == {
        "V0": "T0", "T0": "V1", "V1": "T1", "T1": "V0",
    }
    assert fc.param_map == {
        "cV0": "cT0", "cT0": "cV1", "cV1": "cT1", "cT1": "cV0", "Q": "Q",
    }
    assert four_cycle(generic).param_map == {
        "l0": "k0", "k0": "l1", "l1": "k1", "k1": "l0", "q": "q",
    }
    assert all(v.equal for _, v in verify_map(fc, udaha))


def test_four_cycle_has_order_four(udaha):
    fourth = map_power(four_cycle(udaha), 4)
    for name in udaha.alphabet.symbols:
        assert udaha.nf(fourth.images[name]) == udaha.gen(name)
    assert fourth.param_map == {n: n for n in udaha.ring.params}


def test_braid_map_tables(udaha):
    B = braid_b_map(udaha)
    assert B.param_map == {
        "cT0": "cV0", "cT1": "cT1", "cV0": "cV1", "cV1": "cT0", "Q": "Q",
    }
    assert B.images["T0"] == udaha.gen("V0")
    assert B.images["V1"] == udaha.gen("T0")
    assert B.images["T1"] == udaha.gen("T1")
    assert B.images["V0"] == udaha.parse("inv(T1)*V1*T1")

    C = braid_c_map(udaha)
    assert C.param_map == {
        "cT0": "cT0", "cT1": "cT1", "cV0": "cV1", "cV1": "cV0", "Q": "Q",
    }
    assert C.images["V1"] == udaha.gen("V0")
    assert C.images["T0"] == udaha.parse("V0*T0*inv(V0)")
    assert all(v.equal for _, v in verify_map(B, udaha))
    assert all(v.equal for _, v in verify_map(C, udaha))


def test_conjugation_map_inverts(udaha):
    A = conjugation_map(udaha)
    A_inv = conjugation_map(udaha, inverse=True)
    assert A.images["T1"] == udaha.gen("T1")
    both = compose_maps(A, A_inv)
    for name in udaha.alphabet.symbols:
        assert udaha.nf(both.images[name]) == udaha.gen(name)


def test_verify_map_rejects_non_homomorphism(udaha):
    swap = SemilinearMap(
        "swap01",
        udaha,
        {
            "T0": udaha.gen("T1"),
            "T1": udaha.gen("T0"),
            "V0": udaha.gen("V0"),
            "V1": udaha.gen("V1"),
        },
        {n: n for n in udaha.ring.params},
    )
    report = verify_map(swap, udaha)
    assert not all(v.equal for _, v in report)
    failed = [text for text, verdict in report if not verdict.equal]
    assert "T0*T0 -> cT0*T0 - 1" in failed


def test_semilinear_map_validation(udaha):
    gens = {n: udaha.gen(n) for n in udaha.alphabet.symbols}
    ident = {n: n for n in udaha.ring.params}
    with pytest.raises(ValueError):
        SemilinearMap("partial", udaha, {"T0": udaha.gen("T0")}, ident)
    with pytest.raises(ValueError):
        SemilinearMap("collapse", udaha, gens, dict(ident, cT0="cT1", cT1="cT1"))
    with pytest.raises(ValueError):
        SemilinearMap("flagbreak", udaha, gens, dict(ident, Q="cT0", cT0="Q"))


def test_apply_param_map(udaha):
    B = braid_b_map(udaha)
    coeff = udaha.param("Q") + udaha.param("cT0")
    assert apply_param_map(coeff, B) == udaha.param("Q") + udaha.param("cV0")


def test_semilinear_apply_acts_on_coefficients(udaha):
    B = braid_b_map(udaha)
    p = udaha.scalar(udaha.param("cV1"))
    assert semilinear_apply(B, p) == udaha.scalar(udaha.param("cT0"))
    # and multiplicatively on words
    lhs = semilinear_apply(B, udaha.parse("T0*V1"))
    assert lhs == udaha.nf(B.images["T0"] * B.images["V1"])


def test_semilinear_apply_cold_and_warm_memo(udaha):
    p = udaha.parse("cT0*V0*T1*T0 + Q*T1*V1 - cV1*T0*V0*T1 + 2")
    # reference: multiply the unreduced images of the letters, reduce once
    expected = udaha.zero()
    B = braid_b_map(udaha)
    for word, coeff in p.terms.items():
        factor = udaha.scalar(apply_param_map(coeff, B))
        for letter in word:
            factor = factor * B.images[udaha.alphabet.symbols[letter]]
        expected = expected + factor
    expected = udaha.nf(expected)
    assert semilinear_apply(B, p).terms == expected.terms  # cold
    assert semilinear_apply(B, p).terms == expected.terms  # warm
    B = braid_b_map(udaha)
    semilinear_apply(B, udaha.parse("V0*T1 + T0"))  # stores some prefixes only
    assert semilinear_apply(B, p).terms == expected.terms


def test_identity_and_composition_laws(udaha):
    fc = four_cycle(udaha)
    ident = identity_map(udaha)
    left = compose_maps(fc, ident)
    right = compose_maps(ident, fc)
    for name in udaha.alphabet.symbols:
        assert left.images[name] == fc.images[name]
        assert right.images[name] == fc.images[name]
    assert map_power(fc, 2).param_map == compose_maps(fc, fc).param_map
    assert map_power(fc, 0).param_map == ident.param_map


# -- specialization -----------------------------------------------------------------

def test_surjection_assignment_table(udaha, generic):
    assignment = surjection_assignment(udaha, generic)
    assert {k: v.render() for k, v in assignment.items()} == {
        "cT0": "k0 + k0^-1",
        "cT1": "k1 + k1^-1",
        "cV0": "l0 + l0^-1",
        "cV1": "l1 + l1^-1",
        "Q": "q",
    }


def test_specialize_ncpoly_pushes_identities(udaha, generic):
    assignment = surjection_assignment(udaha, generic)
    p = udaha.parse("V0*T0*V1*T1 - Q^-1")
    image = specialize_ncpoly(p, assignment, generic)
    assert generic.nf(image).is_zero()
    # a reduction done upstairs specializes to a reduction downstairs
    q = udaha.parse("V0*T1 + inv(V0*T1)")
    assert generic.nf(specialize_ncpoly(udaha.nf(q), assignment, generic)) == \
        generic.nf(specialize_ncpoly(q, assignment, generic))


def test_specialize_presentation():
    generic = preset("H_generic")
    ring = ParamRing(
        RATIONALS,
        [("k0", True), ("k1", True), ("l0", True), ("l1", True)],
    )
    at_one = specialize_presentation(generic, {"q": ring.scalar(1)}, ring, "H_q1")
    at_one.complete(6)
    assert at_one.name == "H_q1"
    assert at_one.nf(at_one.parse("V0*T0*V1*T1")) == at_one.one()


# -- the cyclic form ---------------------------------------------------------------

def test_aw_rhs_golden(udaha):
    qv = udaha.param("Q")
    core = udaha.parse("Q^-1*T1 + Q*inv(T1)")
    z = udaha.nf(
        udaha.scalar(udaha.param("cV0") * udaha.param("cV1"))
        + udaha.scalar(udaha.param("cT0")) * core
    )
    assert aw_rhs(udaha, "z", q=qv) == z
    with pytest.raises(ValueError):
        aw_rhs(udaha, "w", q=qv)


def test_aw_form_extract(udaha):
    form = aw_form_extract(udaha)
    qv = udaha.param("Q")
    g_expected = -(qv ** 2 - qv ** -2)
    coeff = qv - qv ** -1
    for rel in form:
        assert rel.verdict.equal
        assert rel.g == g_expected
        assert rel.h == udaha.nf(coeff * aw_rhs(udaha, rel.name, q=qv))
    assert [rel.name for rel in form] == ["z", "x", "y"]


@pytest.mark.parametrize("tag", ["H_q1", "H_q-1", "H_qs"])
def test_aw_form_extract_refuses_a_target_it_cannot_divide(tag):
    # at q^2 = 1 or q^2 = -1 the q-commutator of x and y has no T1*T0
    # term, so the first word of z off {1, T1} has nothing to divide
    specialized = Workspace(degree=8).specialized(tag)
    with pytest.raises(ExtractionError) as info:
        aw_form_extract(specialized)
    assert str(info.value) == "relation z: no T1*T0 term to divide"

"""Acceptance gate: the eleven headline checks, one verdict line each.

Every check is an exact identity: the verdict is a zero residual after
rewriting, never a numeric tolerance.  Each criterion prints a single
PASS/FAIL line on the real terminal so a tee'd pytest run shows the
scoreboard inline.
"""

import dataclasses
import random
from contextlib import contextmanager

import pytest

from daha import (
    NCPoly,
    ReductionStep,
    Workspace,
    b3_act,
    b3_normal_form,
    build_xyz,
    compose_maps,
    conjugation_map,
    aw_form_extract,
    braid_b_map,
    braid_c_map,
    divide_exact,
    four_cycle,
    map_power,
    monomial_inverse,
    preset,
    replay,
    semilinear_apply,
    verify_map,
)
from conftest import normal_form_random, random_element


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d}: FAIL - {label}")
            raise
        with capsys.disabled():
            print(f"criterion {number:2d}: PASS - {label}")

    return _criterion


def is_zero_nf(alg, p) -> bool:
    return alg.nf(p).is_zero()


def test_criterion_01_quadratic_inverses(criterion, generic, udaha):
    with criterion(1, "quadratic inverses in both presets"):
        for alg in (generic, udaha):
            for name in alg.alphabet.symbols:
                g = alg.gen(name)
                inv = alg.scalar(alg.trace(name)) - g
                assert is_zero_nf(alg, inv * g - 1)
                assert is_zero_nf(alg, g * inv - 1)


def test_criterion_02_cyclic_words(criterion):
    with criterion(2, "four cyclic words reduce to Q^-1 at degree 6"):
        alg = preset("UDAHA_model")
        alg.complete(6)
        expected = alg.scalar(alg.param("Q", -1))
        for text in ("V0*T0*V1*T1", "T0*V1*T1*V0", "V1*T1*V0*T0", "T1*V0*T0*V1"):
            assert alg.nf(alg.parse(text)) == expected


def test_criterion_03_four_cycle(criterion, udaha):
    with criterion(3, "the four-cycle is well defined and has order four"):
        phi = four_cycle(udaha)
        report = verify_map(phi, udaha)
        assert len(report) == 5
        assert all(v.equal for _, v in report)
        fourth = map_power(phi, 4)
        for name in udaha.alphabet.symbols:
            assert udaha.nf(fourth.images[name]) == udaha.gen(name)


def test_criterion_04_central_commutation(criterion, central, udaha):
    with criterion(4, "central pair and T1 commutation"):
        w = central.parse("u*v + inv(u*v)")
        w_rev = central.parse("v*u + inv(v*u)")
        assert is_zero_nf(central, w - w_rev)
        for name in ("u", "v"):
            g = central.gen(name)
            assert is_zero_nf(central, w * g - g * w)

        t1 = udaha.gen("T1")
        for elem in build_xyz(udaha).values():
            assert is_zero_nf(udaha, t1 * elem - elem * t1)


def test_criterion_05_braid_relations(criterion, udaha):
    with criterion(5, "B and C are well defined and B^3 = C^2 = conj_T1"):
        B = braid_b_map(udaha)
        C = braid_c_map(udaha)
        assert all(v.equal for _, v in verify_map(B, udaha))
        assert all(v.equal for _, v in verify_map(C, udaha))
        cubed = map_power(B, 3)
        squared = map_power(C, 2)
        conj = conjugation_map(udaha)
        verdicts = []
        for name in udaha.alphabet.symbols:
            for phi, psi in ((cubed, squared), (cubed, conj), (squared, conj)):
                verdicts.append(
                    udaha.check_equal(phi.images[name], psi.images[name])
                )
        assert len(verdicts) == 12
        assert all(v.equal for v in verdicts)


def test_criterion_06_parameter_actions(criterion, udaha):
    with criterion(6, "braid maps act on parameters by the stated tables"):
        B = braid_b_map(udaha)
        C = braid_c_map(udaha)
        assert B.param_map == {
            "cV0": "cV1", "cT0": "cV0", "cV1": "cT0", "cT1": "cT1", "Q": "Q",
        }
        assert C.param_map == {
            "cV0": "cV1", "cV1": "cV0", "cT0": "cT0", "cT1": "cT1", "Q": "Q",
        }
        for phi in (B, C):
            for name in udaha.ring.params:
                image = semilinear_apply(phi, udaha.scalar(udaha.param(name)))
                assert image == udaha.scalar(udaha.param(phi.param_map[name]))


def test_criterion_07_braid_action_equations(criterion, udaha):
    with criterion(7, "b cycles x,y,z; c swaps x,y; both displayed equations"):
        xyz = build_xyz(udaha)
        x, y, z = xyz["x"], xyz["y"], xyz["z"]
        assert is_zero_nf(udaha, b3_act("b", x, udaha) - y)
        assert is_zero_nf(udaha, b3_act("b", y, udaha) - z)
        assert is_zero_nf(udaha, b3_act("b", z, udaha) - x)
        assert is_zero_nf(udaha, b3_act("c", x, udaha) - y)
        assert is_zero_nf(udaha, b3_act("c", y, udaha) - x)

        z_prime = b3_act("c", z, udaha)
        qv = udaha.param("Q")
        Q = udaha.scalar(qv)
        Qi = udaha.scalar(monomial_inverse(qv))
        rhs = (
            udaha.scalar(udaha.param("cV0") * udaha.param("cV1"))
            + udaha.scalar(udaha.param("cT0"))
            * (Qi * udaha.gen("T1") + Q * udaha.inv_word(udaha.alphabet.word("T1")))
        )
        assert is_zero_nf(udaha, Q * z + Qi * z_prime + x * y - rhs)
        assert is_zero_nf(udaha, Qi * z + Q * z_prime + y * x - rhs)


def test_criterion_08_cyclic_relations(criterion, udaha):
    with criterion(8, "the three cyclic relations hold at degree 10"):
        xyz = build_xyz(udaha)
        qv = udaha.param("Q")
        qi = monomial_inverse(qv)
        spread = qv * qv - qi * qi
        cleared = qv - qi
        t1 = udaha.gen("T1")
        t1_inv = udaha.inv_word(udaha.alphabet.word("T1"))
        core = udaha.scalar(qi) * t1 + udaha.scalar(qv) * t1_inv
        constants = {
            "z": ("cV0", "cV1", "cT0"),
            "x": ("cV1", "cT0", "cV0"),
            "y": ("cT0", "cV0", "cV1"),
        }
        for a1, a2, target in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            e1, e2, e3 = xyz[a1], xyz[a2], xyz[target]
            lhs = (
                udaha.scalar(qv) * e1 * e2
                - udaha.scalar(qi) * e2 * e1
                + e3.scale(spread)
            )
            c1, c2, carrier = constants[target]
            rhs = (
                udaha.scalar(udaha.param(c1) * udaha.param(c2))
                + udaha.scalar(udaha.param(carrier)) * core
            ).scale(cleared)
            assert is_zero_nf(udaha, lhs - rhs)


def test_criterion_09_specializations(criterion, generic):
    with criterion(9, "commutation, q = +/-1 and q = s specializations, division"):
        xyz = build_xyz(generic)
        t1 = generic.gen("T1")
        for elem in xyz.values():
            assert is_zero_nf(generic, t1 * elem - elem * t1)

        ws = Workspace(degree=10)
        for tag in ("H_q1", "H_q-1"):
            spec = ws.specialized(tag)
            elems = build_xyz(spec)
            for a, b in (("x", "y"), ("y", "z"), ("z", "x")):
                assert is_zero_nf(spec, elems[a] * elems[b] - elems[b] * elems[a])

        spec4 = ws.specialized("H_qs")
        elems4 = build_xyz(spec4)
        s = spec4.ring.scalar(spec4.ring.base.generator())
        from daha import aw_rhs

        for a1, a2, target in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            lhs = elems4[a1] * elems4[a2] + elems4[a2] * elems4[a1]
            assert is_zero_nf(spec4, lhs - aw_rhs(spec4, target, q=s).scale(2))

        qv = generic.param("q")
        qi = monomial_inverse(qv)
        spread = qv * qv - qi * qi
        cleared = qv - qi
        for a1, a2, target in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            e1, e2, e3 = xyz[a1], xyz[a2], xyz[target]
            lhs = (
                generic.scalar(qv) * e1 * e2
                - generic.scalar(qi) * e2 * e1
                + e3.scale(spread)
            )
            rhs = aw_rhs(generic, target, q=qv).scale(cleared)
            assert is_zero_nf(generic, lhs - rhs)
            # recover the third element by exact division of the residual
            residual = generic.nf(
                rhs - generic.scalar(qv) * e1 * e2 + generic.scalar(qi) * e2 * e1
            )
            quotient = NCPoly.from_terms(
                generic.alphabet,
                generic.ring,
                {w: divide_exact(c, spread) for w, c in residual.terms.items()},
            )
            assert quotient == generic.nf(e3)


def test_criterion_10_aw_template(criterion, udaha):
    with criterion(10, "extracted form has central non-scalar h on {1, T1}"):
        form = aw_form_extract(udaha)
        xyz = build_xyz(udaha)
        t1_word = udaha.alphabet.word("T1")
        for rel in form:
            assert rel.verdict.equal
            assert set(rel.h.support()) <= {(), t1_word}
            assert t1_word in rel.h.support()  # genuinely non-scalar
            for elem in (xyz["x"], xyz["y"], xyz["z"]):
                assert is_zero_nf(udaha, rel.h * elem - elem * rel.h)


def test_criterion_11_property_battery(criterion, udaha):
    with criterion(11, "strategy independence, braid words, round trip, replay"):
        alt = preset("UDAHA_model", order=("V1", "V0", "T1", "T0"))
        alt.complete(10)
        relator = udaha.parse("V0*T0*V1*T1 - Q^-1")
        rng = random.Random(987654321)
        for i in range(200):
            p = random_element(udaha, rng, max_terms=3, max_len=4)
            if i % 2 == 0:
                d = p * relator  # lands in the ideal by construction
            else:
                d = p - random_element(udaha, rng, max_terms=3, max_len=4)
            zero_default = udaha.nf(d).is_zero()
            zero_flipped = alt.nf(d).is_zero()
            assert zero_default == zero_flipped
            if i % 2 == 0:
                assert zero_default
            assert normal_form_random(udaha.system, d, rng) == udaha.nf(d)
            assert udaha.parse(p.render()) == p  # parser round trip

        for _ in range(500):
            u = "".join(rng.choice("bcBC") for _ in range(rng.randrange(9)))
            v = "".join(rng.choice("bcBC") for _ in range(rng.randrange(9)))
            assert b3_normal_form(u) * b3_normal_form(v) == b3_normal_form(u + v)

        p = random_element(udaha, rng, max_terms=3, max_len=5)
        _, cert = udaha.system.reduce_with_certificate(p)
        assert replay(cert).ok
        hashed = dataclasses.replace(cert, final_hash="0" * 16)
        assert not replay(hashed).ok
        if cert.steps:
            bent = dataclasses.replace(
                cert,
                steps=(ReductionStep(999, 0, cert.steps[0].word),) + cert.steps[1:],
            )
            assert not replay(bent).ok

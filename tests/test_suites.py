"""Named verification suites: determinism, overrides, negative controls."""

import dataclasses
import gc
import hashlib
import json

import pytest

from daha import SUITE_NAMES, PresentationError, Workspace, load_presentation, replay, run_suite
from daha import read_certificate
from daha.algebras import presentation_spec


def strip_timing(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    for check in out["checks"]:
        check.pop("seconds")
    return out


def test_suite_names_frozen():
    assert SUITE_NAMES == (
        "lemma2.3", "lemma3.6", "lemma3.7", "lemma3.9", "lemma4.2",
        "lemma4.3", "thm5.1", "thm5.2", "thm2.4", "aw-template", "all",
    )
    with pytest.raises(ValueError):
        run_suite("lemma9.9", degree=6)


def test_cyclic_words_suite():
    result = run_suite("lemma3.7", degree=6)
    assert result.passed
    assert result.counts() == (4, 4)
    assert [c.name for c in result.checks] == [
        "lemma3.7/V0T0V1T1", "lemma3.7/T0V1T1V0",
        "lemma3.7/V1T1V0T0", "lemma3.7/T1V0T0V1",
    ]
    assert all(c.verdict == "proved-equal" for c in result.checks)
    assert all(c.line().startswith("ok") for c in result.checks)


def test_results_are_deterministic_apart_from_timing():
    a = run_suite("lemma3.9", degree=6).to_json()
    b = run_suite("lemma3.9", degree=6).to_json()
    assert strip_timing(a) == strip_timing(b)
    assert a["format"] == "daha-suite-results"
    assert a["version"] == 1


def test_workspace_caches_algebras():
    ws = Workspace(degree=6)
    assert ws.algebra("UDAHA_model") is ws.algebra("UDAHA_model")
    spec1 = ws.specialized("H_q1")
    assert spec1.nf(spec1.parse("V0*T0*V1*T1")) == spec1.one()


def test_workspace_order_applies_where_it_fits():
    ws = Workspace(degree=4, order=("v", "u"))
    assert ws.algebra("CentralPair").system.order.precedence == ("v", "u")
    assert ws.algebra("UDAHA_model").system.order.precedence == ("T0", "T1", "V0", "V1")
    with pytest.raises(PresentationError):
        Workspace(order=("T0", "T1"))


def test_override_replaces_the_model(data_dir):
    spec = load_presentation((data_dir / "udaha.alg").read_text())
    result = run_suite("lemma3.7", degree=6, override=spec)
    assert result.passed
    assert all(c.algebra == "UDAHA_model" for c in result.checks)


def test_override_without_the_model_generators_fails_setup():
    spec = dataclasses.replace(presentation_spec("CentralPair"), name="UDAHA_model")
    result = run_suite("thm5.1", degree=4, override=spec)
    assert [check.line() for check in result.checks] == [
        "FAIL thm5.1/setup: error: UDAHA_model has no generator T0; x, y, z are undefined"
    ]
    assert not result.passed


RENAMED_H_GENERIC = """
    [algebra]
    name = H_generic
    params = a0 inv, a1 inv, b0 inv, b1 inv, q inv
    generators = T0, T1, V0, V1
    [rules]
    T0*T0 = (a0 + a0^-1)*T0 - 1
    T1*T1 = (a1 + a1^-1)*T1 - 1
    V0*V0 = (b0 + b0^-1)*V0 - 1
    V1*V1 = (b1 + b1^-1)*V1 - 1
    V0*T0*V1*T1 = q^-1
"""


def test_specializations_keep_the_parameters_of_the_algebra_in_use():
    result = run_suite("thm2.4", degree=6, override=load_presentation(RENAMED_H_GENERIC))
    assert [c.line() for c in result.checks if not c.passed] == []
    assert result.counts() == (18, 18)
    assert {c.algebra for c in result.checks} == {"H_generic", "H_q1", "H_q-1", "H_qs"}


def test_lemma4_3_expects_unnamed_parameters_to_stay_fixed(data_dir):
    # one more parameter than Lemma 4.3's table names; it used to end the
    # suite in a KeyError
    text = (data_dir / "udaha.alg").read_text()
    extra = text.replace("params = cT0, cT1, cV0, cV1, Q inv", "params = cT0, cT1, cV0, cV1, Q inv, e")
    assert extra != text
    result = run_suite("lemma4.3", degree=6, override=load_presentation(extra))
    assert [c.line() for c in result.checks if not c.passed] == []
    assert result.counts() == (12, 12)
    assert {c.name for c in result.checks} >= {"lemma4.3/b/e", "lemma4.3/c/e", "lemma4.3/b/Q"}


def test_broken_presentation_fails_value_checks(data_dir):
    spec = load_presentation((data_dir / "udaha_broken.alg").read_text())
    result = run_suite("lemma3.7", degree=6, override=spec)
    assert not result.passed
    assert result.counts() == (0, 4)  # every pinned-value check must fail
    for check in result.checks:
        assert check.verdict == "distinct-at-degree"

    # q-independent facts still hold in the broken algebra
    inverses = run_suite("lemma2.3", degree=6, override=spec)
    assert inverses.passed


def test_all_suite_includes_negative_control():
    result = run_suite("all", degree=6)
    assert result.passed
    controls = [c for c in result.checks if c.expected == "distinct-at-degree"]
    assert len(controls) == 1
    assert controls[0].verdict == "distinct-at-degree"


def test_run_suite_writes_results_and_certificates(tmp_path):
    out = tmp_path / "results.json"
    result = run_suite("lemma3.7", degree=6, output=out, verbose_cert=True)
    payload = json.loads(out.read_text())
    assert payload["suite"] == "lemma3.7"
    cert_dir = tmp_path / "results-certs"
    files = sorted(cert_dir.glob("*.json"))
    assert len(files) == len(result.checks)
    for path in files:
        assert replay(read_certificate(path)).ok
    named = {c.certificate for c in result.checks}
    assert named == {p.name for p in files}


# sha256 over the `suite all` results JSON without timing fields, then each
# certificate file's name and bytes in name order; pinned so that engine
# changes provably leave every certificate byte unchanged
GOLDEN_SUITE_ALL = {
    False: "7f5d5f37f0bb46dc32d501da5f85390fb496d64de1d80af98a2cb5cb0f679991",
    True: "8fa302bc8004d10394eeffd1e58133af58cf838a019b7433c97d7a21273fc1dc",
}


@pytest.mark.parametrize("verbose", [False, True])
def test_suite_all_certificates_are_golden(tmp_path, verbose):
    out = tmp_path / "all.json"
    run_suite("all", degree=10, output=str(out), verbose_cert=verbose)
    payload = strip_timing(json.loads(out.read_text()))
    digest = hashlib.sha256(json.dumps(payload, indent=2).encode())
    certs = sorted((tmp_path / "all-certs").glob("*.json"))
    assert len(certs) == 135
    for path in certs:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
        if verbose:
            data = json.loads(path.read_bytes())
            assert len(data["states"]) == len(data["steps"]), path.name
    assert digest.hexdigest() == GOLDEN_SUITE_ALL[verbose]


def test_repeated_braid_suites_do_not_leak():
    # the braid action's maps live on their algebra, so they are freed with it
    counts = []
    for _ in range(4):
        assert run_suite("lemma4.2", degree=6).passed
        assert run_suite("thm5.1", degree=6).passed
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert counts[3] - counts[1] < 100, counts

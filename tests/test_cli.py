"""The command-line surface, driven in-process plus one subprocess smoke test."""

import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys

import pytest

from daha import (
    CertificateError,
    OrientationError,
    certificate_from_json,
    certificate_to_json,
    certificates,
    exprs,
    fnv1a64,
    preset,
    read_certificate,
    replay,
)
from daha.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- reduce ---------------------------------------------------------------------

def test_reduce_golden(capsys):
    code, out, _ = run(capsys, "reduce", "V0*V0*T0*V1*T1", "--degree", "6")
    assert code == 0
    assert "normal:  Q^-1*V0" in out
    assert "algebra: UDAHA_model (completed to degree 6)" in out


def test_reduce_other_algebras(capsys):
    code, out, _ = run(capsys, "reduce", "V0*V0*T0*V1*T1",
                       "--algebra", "H_generic", "--degree", "6")
    assert code == 0
    assert "normal:  q^-1*V0" in out
    code, out, _ = run(capsys, "reduce", "u*u", "--algebra", "CentralPair",
                       "--degree", "4")
    assert code == 0
    assert "normal:  cu*u - 1" in out


CYCLOTOMIC_PRESENTATION = """
[algebra]
name = Spec{n}
base = cyclotomic({n})
params = q inv, c
generators = T, V
[rules]
T*T = (q + s)*T - 1
V*V = c*V - s*q^-1
"""

#: n -> (input, normal form, steps, sha256 of the certificate file), as
#: printed and written before the degree-one quotients held plain rationals
CYCLOTOMIC_REDUCTIONS = {
    1: ("T*T*V*V - 1/2*V*T*T - 3*q^-2*V",
        "(-1/2*q - 1/2)*V*T + (q*c + c)*T*V + (-c + 1/2 - 3*q^-2)*V + (-1 - q^-1)*T + q^-1",
        4, "89fe7fee46c21bdce8cea368062abb3713b219a6614a2575e83ef366affef870"),
    2: ("2*T*V*V*T - T*T*V*V - 1/2*V*T*T + 3*q^-2*V",
        "2*c*T*V*T + (-1/2*q + 1/2)*V*T + (-q*c + c)*T*V + (c + 1/2 + 3*q^-2)*V + (1 - q^-1)*T"
        " - q^-1",
        6, "6ed7cb98613fa25c3a5f2b7354b01f006cce8c23843335985b45c0a24418fa50"),
    4: ("(1 - s)*T*V*V*T + s*T*T*V*V - 1/2*V*T*T - 3*s*q^-2*V",
        "(1 - s)*c*T*V*T + (-1/2*q - 1/2*s)*V*T + (s*q*c - c)*T*V + (-s*c + 1/2 - 3*s*q^-2)*V"
        " + (-s + q^-1)*T + s*q^-1",
        6, "8b2a4a7b207347376ffabc66f1a3ace448fd1213d6c95f295c95a226769de001"),
}


@pytest.mark.parametrize("n", [1, 2, 4])
def test_reduce_over_each_cyclotomic_base_is_pinned(capsys, tmp_path, n):
    path, cert_path = tmp_path / f"cyc{n}.alg", tmp_path / f"cyc{n}.json"
    path.write_text(CYCLOTOMIC_PRESENTATION.format(n=n))
    code, out, _ = run(capsys, "reduce", "s*T*T*V*V - 1/2*V*T*T + (1 - s)*T*V*V*T - 3*s*q^-2*V",
                       "--algebra", str(path), "--degree", "4", "--json", str(cert_path))
    initial, normal, steps, digest = CYCLOTOMIC_REDUCTIONS[n]
    assert code == 0
    assert out == (f"algebra: Spec{n} (completed to degree 4)\ninput:   {initial}\n"
                   f"normal:  {normal}\nsteps:   {steps}\ncertificate: {cert_path}\n")
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == digest
    assert replay(read_certificate(cert_path)).ok


def test_reduce_writes_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "reduce", "V0*V0*T0*V1*T1", "--degree", "6",
                       "--json", str(cert_path), "--verbose-cert")
    assert code == 0
    cert = read_certificate(cert_path)
    assert cert.final == "Q^-1*V0"
    assert cert.states is not None
    assert replay(cert).ok


def test_reduce_respects_order_flag(capsys):
    code, out, _ = run(capsys, "reduce", "V0*T0", "--degree", "6",
                       "--order", "V1,V0,T1,T0")
    assert code == 0
    # under the flipped precedence the T-before-V side is the normal form
    assert "normal:  V0*T0" in out
    code, out, _ = run(capsys, "reduce", "T0*V0", "--degree", "6",
                       "--order", "V1,V0,T1,T0")
    assert code == 0
    assert "normal:  Q*V1*T1 + cT0*V0 + cV0*T0 - cT0*cV0" in out


# -- check-equal ------------------------------------------------------------------

def test_check_equal_exit_codes(capsys):
    code, out, _ = run(capsys, "check-equal", "V0*T0*V1*T1", "Q^-1", "--degree", "6")
    assert code == 0
    assert "proved-equal" in out
    code, out, _ = run(capsys, "check-equal", "T0*T1", "T1*T0", "--degree", "6")
    assert code == 1
    assert "distinct-at-degree" in out


def test_check_equal_writes_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "check-equal", "V0*T0*V1*T1", "Q^-1", "--degree", "6",
                       "--json", str(cert_path), "--verbose-cert")
    assert code == 0
    assert f"certificate: {cert_path}" in out
    cert = read_certificate(cert_path)
    assert cert.final == "0" and len(cert.states) == len(cert.steps) > 0
    assert replay(cert).ok


def test_check_equal_error_exit(capsys):
    code, _, err = run(capsys, "check-equal", "T0*T1", "T1*T0*", "--degree", "6")
    assert code == 2
    assert err


def test_deep_nesting_exits_2(capsys):
    code, out, err = run(capsys, "reduce", "(" * 2000 + "T0" + ")" * 2000)
    assert code == 2
    assert not out
    assert err.startswith("error: parentheses nested deeper than 100")


def test_expansion_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(exprs, "MAX_TERMS", 1000)
    code, out, err = run(capsys, "reduce", "(T0+T1+V0+V1)^12")
    assert code == 2
    assert not out
    assert err.startswith("error: expansion exceeds 1000 terms")


def test_huge_power_exits_2(capsys):
    code, out, err = run(capsys, "reduce", "2^20000*T0")
    assert code == 2
    assert not out
    assert err.startswith("error: power exceeds 4300 digits")


@pytest.mark.parametrize("expr", [
    "10^4000*10^4000*T0",
    "(10^4000*T0 + T1)^2",
    "(10^4000*T0 + T1)*(10^4000*T0 + T1)",
    "9" * 4300 + "*T0 + " + "9" * 4300 + "*T0",
])
def test_huge_scalar_product_exits_2(capsys, expr):
    code, out, err = run(capsys, "reduce", expr)
    assert code == 2
    assert not out
    assert err.startswith("error: scalar exceeds 4300 digits")


def test_huge_literal_exits_2(capsys):
    code, out, err = run(capsys, "reduce", "7" * 5000 + "*T0")
    assert code == 2
    assert not out
    assert err.startswith("error: integer literal longer than 4300 digits")


@pytest.mark.parametrize("expr, where", [
    ("Q^99999999999999999999*T0", " (at position 1)"),  # an exponent literal, at its caret
    ("(Q^99999999999)^99999999999*T0", " (at position 2)"),  # the inner power fails first
    ("Q^999999999*Q^999999999*T0", " (at position 13)"),  # a product, at the second factor
    # parses; the product axiom's Q^-1 leaves the range, named with its rule and word
    ("Q^-1073741824*V0*T0*V1*T1", " (rewriting V0*T0*V1*T1 by rule 8)"),
], ids=["literal", "power", "fold", "reduction"])
def test_exponent_out_of_range_exits_2(capsys, expr, where):
    code, out, err = run(capsys, "reduce", expr)
    assert code == 2
    assert not out
    assert err == f"error: parameter exponent outside -1073741824..1073741823{where}\n"
    assert "Traceback" not in err


# -- complete ----------------------------------------------------------------------

RANGE_IN_ORIENTATION = """
[algebra]
name = f
params = Q inv,
generators = u, v

[rules]
v*v = Q^-1073741824*u
v*v = v

[order]
permutation = v, u
"""


def test_orientation_range_error_names_its_ambiguity(capsys, tmp_path):
    # the two rules leave Q^-1073741824*u - v, whose leading coefficient inverts out of range
    path = tmp_path / "f.alg"
    path.write_text(RANGE_IN_ORIENTATION)
    code, out, err = run(capsys, "complete", "--algebra", str(path), "--degree", "4")
    assert code == 2
    assert not out
    assert err == (
        "error: parameter exponent outside -1073741824..1073741823; "
        "it comes from the inclusion ambiguity of rules 1 and 2 on v*v\n"
    )
    assert "Traceback" not in err


def test_complete_json(capsys, tmp_path):
    out_path = tmp_path / "rules.json"
    code, out, err = run(capsys, "complete", "--degree", "6", "--json", str(out_path))
    assert code == 0
    assert not err  # the per-pass debug log prints nothing unless configured
    assert "30 ambiguities checked, 26 skipped as already resolved" in out
    payload = json.loads(out_path.read_text())
    assert payload["degree"] == 6
    assert (payload["ambiguities_checked"], payload["ambiguities_skipped"]) == (30, 26)
    assert len(payload["rules"]) == 8
    lhs_set = {rule["lhs"] for rule in payload["rules"]}
    assert "V0*T1" in lhs_set and "T0*T0" in lhs_set
    alg = preset("UDAHA_model")
    alg.complete(6)
    rules = alg.system.sorted_rules()
    assert [(r["id"], r["lhs"], r["rhs"]) for r in payload["rules"]] == [
        (r.id, *r.text) for r in rules
    ]
    lines = out.splitlines()
    start = lines.index(f"active rules ({len(rules)}):") + 1
    assert lines[start:start + len(rules)] == [
        f"  [{r.id}] {r.render()}" for r in rules
    ]


# -- braid-act ----------------------------------------------------------------------

def test_braid_act_sends_x_to_y(capsys):
    code, out, _ = run(capsys, "braid-act", "b", "V0*T1 + inv(V0*T1)", "--degree", "6")
    assert code == 0
    from daha import preset
    alg = preset("UDAHA_model")
    alg.complete(6)
    y = alg.nf(alg.parse("V1*T1 + inv(V1*T1)"))
    assert f"result:  {y.render()}" in out


def test_braid_act_stdout_is_pinned(capsys):
    code, out, err = run(capsys, "braid-act", "b", "T0", "--degree", "6")
    assert (code, err) == (0, "")
    assert out == (
        "algebra: UDAHA_model (completed to degree 6)\n"
        "word:    b\n"
        "input:   T0\n"
        "result:  V0\n"
    )


def test_braid_act_identity_word(capsys):
    code, out, _ = run(capsys, "braid-act", "bbbCC", "T0", "--degree", "6")
    assert code == 0
    assert "word:    e" in out
    assert "result:  T0" in out


def test_braid_act_writes_report(capsys, tmp_path):
    out_path = tmp_path / "act.json"
    code, out, _ = run(capsys, "braid-act", "bB", "T0", "--degree", "4",
                       "--json", str(out_path))
    assert code == 0
    assert f"report: {out_path}" in out
    assert json.loads(out_path.read_text()) == {
        "algebra": "UDAHA_model", "word": "", "input": "T0", "result": "T0",
    }


@pytest.mark.parametrize("command", [("complete",), ("braid-act", "b", "T0")])
def test_verbose_cert_only_where_certificates_are_written(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--verbose-cert"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --verbose-cert" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("complete",), ("suite", "lemma3.7")])
def test_negative_degree_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--degree", "-3"])
    assert exit_info.value.code == 2
    assert "argument --degree: must be at least 0, got -3" in capsys.readouterr().err


# -- suite --------------------------------------------------------------------------

def test_suite_pass_output(capsys):
    code, out, _ = run(capsys, "suite", "lemma3.7", "--degree", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "suite lemma3.7: PASS (4/4 checks, degree 6)"
    assert sum(1 for line in lines if line.startswith("ok  ")) == 4


def test_suite_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["suite", "lemma9.9"])


def test_suite_broken_algebra_fails(capsys, data_dir):
    code, out, _ = run(capsys, "suite", "lemma3.7", "--degree", "6",
                       "--algebra", str(data_dir / "udaha_broken.alg"))
    assert code == 1
    assert "FAIL" in out
    # and the file-based faithful copy passes
    code, out, _ = run(capsys, "suite", "lemma3.7", "--degree", "6",
                       "--algebra", str(data_dir / "udaha.alg"))
    assert code == 0


def test_suite_writes_results(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "suite", "lemma2.3", "--degree", "6",
                       "--json", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["format"] == "daha-suite-results"
    assert payload["passed"] is True
    certs = sorted((tmp_path / "out-certs").glob("*.json"))
    assert len(certs) == len(payload["checks"])
    assert replay(read_certificate(certs[0])).ok


def test_suite_results_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run(capsys, "suite", "thm5.2", "--degree", "6",
                   "--json", str(path))[0] == 0

    def stripped(path):
        payload = json.loads(path.read_text())
        for check in payload["checks"]:
            check.pop("seconds")
        return payload

    assert stripped(paths[0]) == stripped(paths[1])


# -- replay --------------------------------------------------------------------------

def test_replay_command(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "reduce", "V0*V0*T0*V1*T1", "--degree", "6", "--json", str(cert_path))

    code, out, _ = run(capsys, "replay", str(cert_path))
    assert code == 0
    assert "valid" in out

    data = json.loads(cert_path.read_text())
    data["final_hash"] = "0" * 16
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "replay", str(bad_path))
    assert code == 1
    assert "invalid" in out

    code, _, err = run(capsys, "replay", str(tmp_path / "missing.json"))
    assert code == 2

    # a path that cannot be read exits 2, but every path after it is still reported
    unreadable = tmp_path / "d.json"
    unreadable.mkdir()
    code, out, err = run(capsys, "replay", str(unreadable), str(bad_path), str(cert_path))
    assert code == 2
    assert err == f"error: [Errno 21] Is a directory: '{unreadable}'\n"
    assert out.startswith(f"{bad_path}: invalid (")
    assert f"{cert_path}: valid (" in out


def test_replay_reports_a_file_that_is_not_json(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "replay", str(path))
    assert code == 1
    assert out.startswith(f"{path}: invalid (not valid JSON: ")
    assert not err


@pytest.mark.parametrize("content, reason", [
    pytest.param(b'\xff\xfe{"format": 1}',
                 "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                 id="not-utf8"),
    pytest.param(b"[" * 100000,
                 "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
                 id="deep-nesting"),
])
def test_replay_reports_a_file_that_cannot_be_decoded(capsys, tmp_path, content, reason):
    path = tmp_path / "cert.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "replay", str(path))
    assert (code, out, err) == (1, f"{path}: invalid (not valid JSON: {reason})\n", "")


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda d: d["steps"][0].update(position="0"), id="position-str"),
    pytest.param(lambda d: d["steps"][0].update(position=0.0), id="position-float"),
    pytest.param(lambda d: d["steps"][0].update(rule=[1]), id="rule-list"),
    pytest.param(lambda d: [d], id="top-level-list"),
    pytest.param(lambda d: d["algebra"].update(base=1), id="base-int"),
    pytest.param(lambda d: d.update(initial=1), id="initial-int"),
])
def test_replay_reports_malformed_certificates(capsys, tmp_path, mutate):
    cert_path = tmp_path / "cert.json"
    run(capsys, "reduce", "V0*V0*T0*V1*T1", "--degree", "6", "--json", str(cert_path))
    data = json.loads(cert_path.read_text())
    cert_path.write_text(json.dumps(mutate(data) or data))
    code, out, err = run(capsys, "replay", str(cert_path))
    assert code == 1
    assert f"{cert_path}: invalid (" in out
    assert not err


@pytest.mark.parametrize("mutate, message", [
    pytest.param(
        lambda d: d.update(initial=d["initial"].replace("2*", "2*@")),
        "bad initial element: cannot read '@T1' in term '2*@T1*V0'",
        id="initial-stray",
    ),
    pytest.param(
        lambda d: d.update(initial=d["initial"].replace("T1*V0", "T1*W0")),
        "bad initial element: unknown symbol 'W0' in term '2*T1*W0'",
        id="initial-unknown-symbol",
    ),
    pytest.param(
        lambda d: [r.update(rhs=r["rhs"] + " +") for r in d["rules"] if r["id"] == 8],
        "bad rule 8: cannot read 'Q^-1 +' in term 'cT1*cV1*Q^-1 +'",
        id="rule-rhs",
    ),
    pytest.param(
        lambda d: d["rules"].append(dict(d["rules"][0])),
        "duplicate rule id 1",
        id="duplicate-rule-id",
    ),
    pytest.param(
        lambda d: d["order"].__setitem__(0, ["T0"]),
        "malformed certificate: an order entry is not of type str",
        id="order-holds-a-list",
    ),
    pytest.param(
        lambda d: d.update(order={name: i for i, name in enumerate(d["order"])}),
        "malformed certificate: order is not of type list",
        id="order-object",
    ),
    pytest.param(
        lambda d: d["algebra"].update(
            generators={name: i for i, name in enumerate(d["algebra"]["generators"])}),
        "malformed certificate: generators is not of type list",
        id="generators-object",
    ),
    *[pytest.param(
        lambda d, degree=degree: d.update(confluence_degree=degree),
        "malformed certificate: confluence_degree is not of type int",
        id=f"confluence-degree-{kind}",
    ) for kind, degree in (("string", "six"), ("bool", True))],
    pytest.param(
        lambda d: d["algebra"]["params"].__setitem__(0, {"cT0": False}),
        "bad algebra description: not enough values to unpack (expected 2, got 1)",
        id="params-entry-object",
    ),
    *[pytest.param(
        lambda d, flag=flag: d["algebra"]["params"][0].__setitem__(1, flag),
        "malformed certificate: a parameter flag is not of type bool",
        id=f"params-flag-{kind}",
    ) for kind, flag in (("string", "false"), ("float", 0.5), ("list", [1]))],
])
def test_replay_names_text_that_does_not_parse(capsys, tmp_path, mutate, message):
    # replayed twice, in-process and by the CLI: a snapshot that fails to
    # build is never cached, so both replays report it
    certificates._snapshot.cache_clear()
    cert_path = tmp_path / "cert.json"
    run(capsys, "reduce", "V0*V0*T0*V1*T1 + 2*T1*V0", "--degree", "6",
        "--json", str(cert_path))
    data = json.loads(cert_path.read_text())
    assert data["initial"] == "V0*V0*T0*V1*T1 + 2*T1*V0"
    mutate(data)
    cert_path.write_text(json.dumps(data))
    try:  # the strict decoder refuses some; the CLI reports both alike
        outcome = replay(read_certificate(cert_path))
        got = (outcome.ok, outcome.message)
    except CertificateError as exc:
        got = (False, str(exc))
    assert got == (False, message)
    code, out, err = run(capsys, "replay", str(cert_path))
    assert (code, out, err) == (1, f"{cert_path}: invalid ({message})\n", "")


def test_replay_hashes_the_initial_text_as_written(capsys, tmp_path):
    # the same element respelled keeps its canonical hash but not its text's
    cert_path = tmp_path / "cert.json"
    run(capsys, "reduce", "V0*V0*T0*V1*T1 + 2*T1*V0", "--degree", "6",
        "--json", str(cert_path))
    data = json.loads(cert_path.read_text())
    assert data["initial_hash"] == fnv1a64(data["initial"])
    data["initial"] = "2*T1*V0 + V0*V0*T0*V1*T1"
    respelled = certificate_from_json(data)
    outcome = replay(respelled)
    assert (outcome.ok, outcome.message) == (False, "initial hash mismatch")
    rehashed = dataclasses.replace(respelled, initial_hash=fnv1a64(respelled.initial))
    assert replay(rehashed).ok


def test_replay_rebuilds_the_snapshot_of_a_changed_rule(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "reduce", "V0*V0*T0*V1*T1 + 2*T1*V0", "--degree", "6",
        "--json", str(cert_path))
    data = json.loads(cert_path.read_text())
    original = certificate_from_json(data)
    used = data["steps"][0]["rule"]
    for rule in data["rules"]:
        if rule["id"] == used:
            rule["rhs"] += " + 2"
    changed = certificate_from_json(data)

    certificates._snapshot.cache_clear()
    cold = [replay(original), replay(changed)]
    warm = [replay(original), replay(changed)]
    assert [(r.ok, r.message) for r in cold] == [
        (True, "replayed clean"), (False, "final hash mismatch")]
    assert warm == cold
    info = certificates._snapshot.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_replay_interleaves_more_snapshots_than_the_cache_holds():
    # one snapshot per (algebra, order); each is replayed twice running, and
    # the round over all of them evicts every snapshot before its next turn
    held = certificates._snapshot.cache_info().maxsize
    certs = []
    for order in itertools.permutations(("T0", "T1", "V0", "V1")):
        pair = []
        for name in ("UDAHA_model", "H_generic"):
            alg = preset(name, order)
            try:
                alg.complete(5)
            except OrientationError:
                break
            _, cert = alg.system.reduce_with_certificate(alg.parse("T0*T0*V1*V1 + V0*T0*V1*T1"))
            pair.append(certificate_from_json(json.loads(json.dumps(certificate_to_json(cert)))))
        if len(pair) == 2:
            certs += pair
        if len(certs) > held:
            break
    assert len(certs) > held and all(cert.steps for cert in certs)

    certificates._snapshot.cache_clear()
    for _ in range(2):
        for cert in certs:
            for _ in range(2):
                assert replay(cert) == certificates.ReplayResult(
                    True, "replayed clean", len(cert.steps))
    info = certificates._snapshot.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2 * len(certs), 2 * len(certs), held)


def nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("name, reason", [
    pytest.param(object(), "Object of type object is not JSON serializable", id="not-json"),
    pytest.param(nested_list(10000),
                 "maximum recursion depth exceeded while encoding a JSON object", id="too-deep"),
])
def test_replay_reports_a_snapshot_without_json_text(udaha, name, reason):
    # a snapshot is keyed by its JSON text; one that has none is invalid, and
    # replay still returns a result
    _, cert = udaha.system.reduce_with_certificate(udaha.parse("V0*V0*T0*V1*T1"))
    cert = dataclasses.replace(cert, algebra={**cert.algebra, "name": name})
    assert replay(cert) == certificates.ReplayResult(False, f"bad algebra description: {reason}", 0)


# -- plumbing -----------------------------------------------------------------------

def test_bad_order_on_preset_exits_2(capsys):
    for order in ("T0,T0,V0,V1", ",", " , "):
        code, out, err = run(capsys, "reduce", "T0", "--order", order)
        assert code == 2, order
        assert not out
        assert err.startswith("error: precedence must permute the alphabet")


def test_unknown_algebra_token(capsys):
    code, _, err = run(capsys, "reduce", "T0", "--algebra", "NoSuchThing")
    assert code == 2
    assert "NoSuchThing" in err


@pytest.mark.parametrize("argv", [
    ("braid-act", "x", "T0"),
    ("braid-act", "bX", "T0"),
    ("braid-act", "b", "u", "--algebra", "CentralPair"),
    ("suite", "lemma3.7", "--order", "T0,T1"),
    ("suite", "lemma3.7", "--algebra", "nope"),
    ("suite", "lemma3.7", "--order", ","),
])
def test_bad_braid_and_suite_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--degree", "4")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in out + err
    if "nope" in argv:
        _, _, reduce_err = run(capsys, "reduce", "T0", "--algebra", "nope")
        assert err == reduce_err


def test_presentation_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfe[algebra]\n")
    err = (f"error: {str(path)!r} is not UTF-8 text: 'utf-8' codec can't decode "
           "byte 0xff in position 0: invalid start byte\n")
    for argv in (("reduce", "T0"), ("suite", "lemma3.7")):
        assert run(capsys, *argv, "--algebra", str(path)) == (2, "", err)


def test_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "daha.cli", "reduce", "V0*V0*T0*V1*T1",
         "--degree", "6"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "Q^-1*V0" in proc.stdout

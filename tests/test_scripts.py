"""The scripts under scripts/, run as subprocesses the way a user runs them."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ENGINE = SCRIPTS.parent / "src" / "daha"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        check=False,
    )


def test_verify_all_replays_every_certificate(tmp_path):
    proc = run_script("verify_all.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "replayed 134 certificates, 0 invalid, 768 steps\n" in proc.stdout
    assert proc.stdout.endswith("all suites verified\n")


@pytest.fixture(scope="module")
def broken_certificates_run(tmp_path_factory):
    """One verify_all run with every kind of broken input among its certificates."""
    out = tmp_path_factory.mktemp("broken")
    certs = out / "extra-certs"
    certs.mkdir()
    (certs / "broken.json").write_text("[1, 2]")
    (certs / "x.json").mkdir()  # matched by the glob, but cannot be opened as a file
    (certs / "deep.json").write_text("[" * 100000)
    (certs / "utf16.json").write_bytes(b'\xff\xfe{"format": 1}')
    # a low degree keeps this quick; some suites then fail, but every
    # certificate they write still replays
    return certs, run_script("verify_all.py", "--degree", "4", "--out", str(out))


def test_verify_all_counts_undecodable_certificates(broken_certificates_run):
    certs, proc = broken_certificates_run
    assert proc.returncode == 1
    assert "broken.json: not a reduction certificate" in proc.stdout
    assert f"INVALID certificate {certs / 'x.json'}: [Errno 21] Is a directory" in proc.stdout
    assert " certificates, 4 invalid" in proc.stdout
    assert not proc.stderr


def test_verify_all_counts_certificates_that_cannot_be_decoded(broken_certificates_run):
    _, proc = broken_certificates_run
    assert proc.returncode == 1
    assert ("deep.json: not valid JSON: maximum recursion depth exceeded while decoding "
            "a JSON array from a unicode string\n") in proc.stdout
    assert ("utf16.json: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n") in proc.stdout
    assert " certificates, 4 invalid" in proc.stdout
    assert not proc.stderr


def test_show_systems_runs():
    proc = run_script("show_systems.py")
    assert proc.returncode == 0, proc.stderr
    for name in ("H_generic", "UDAHA_model", "CentralPair"):
        assert f"== {name} ==" in proc.stdout
    assert "irreducible words by degree: 0:1" in proc.stdout
    counts = [line for line in proc.stdout.splitlines() if line.startswith("irreducible words")]
    four_letters = "irreducible words by degree: 0:1, 1:4, 2:8, 3:12, 4:16, 5:20, 6:24"
    two_letters = "irreducible words by degree: 0:1, 1:2, 2:2, 3:2, 4:2, 5:2, 6:2"
    assert counts == [four_letters, four_letters, two_letters]  # H_generic, UDAHA_model, CentralPair
    assert "ambiguities checked, " in proc.stdout
    assert "skipped as already resolved" in proc.stdout


def test_show_systems_rejects_an_unknown_preset():
    proc = run_script("show_systems.py", "nope")
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: 'nope' is neither a preset (H_generic, UDAHA_model, CentralPair) nor a file\n"
    )


def test_show_systems_ends_quietly_when_its_reader_closes():
    # unbuffered, so the first line arrives while the script still has a
    # hundred completions to print
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "show_systems.py"), *["UDAHA_model"] * 100],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
        text=True,
    )
    assert proc.stdout.readline() == "== UDAHA_model ==\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in stderr
    assert stderr == "error: [Errno 32] Broken pipe\n"


def test_sources_compile_without_warnings():
    # an invalid escape such as "\\d" in a non-raw string warns at compile
    # time (DeprecationWarning on 3.11, SyntaxWarning from 3.12)
    paths = sorted(ENGINE.rglob("*.py")) + sorted(SCRIPTS.rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")

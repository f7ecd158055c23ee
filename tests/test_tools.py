"""Smoke test of ``tools/outputs_digest.py``, the bit-identity dump: it reads
``Decision``, ``Refutation`` and certificate residuals field by field, so a
change of their shape must keep it running.  The tool is imported, not run."""

import importlib.util
import pathlib

import pytest

DIGEST = pathlib.Path(__file__).resolve().parents[1] / "tools" / "outputs_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("outputs_digest", DIGEST)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_outputs_digest_lines(digest, tmp_path):
    key = ("P3", "P3", {}, 2)
    seed = digest.SEEDS[0]
    genuine = digest.solve_line(digest.corpus.MAKERS["genuine"](seed, *key), seed, tmp_path)
    refuted = digest.solve_line(digest.corpus.MAKERS["refuted"](seed, *key), seed, tmp_path)
    for line in (genuine, refuted):
        assert {"verdict", "checks", "cli_solve"} <= line.keys()
    assert genuine["verdict"] == "MomentFunctional" and "atoms" in genuine
    assert refuted["verdict"] == "NotMomentFunctional" and refuted["witness_available"]
    assert "witness" in refuted or "witness_error" in refuted
    assert refuted["cli_witness"][0] == 0
    cert = digest.cert_line(digest.corpus.make_certificate(seed, *key))
    assert len(cert["residuals"]) == 2
    assert all(len(r) == 3 for r in cert["residuals"])


@pytest.mark.parametrize("label,form", [("P15", "v2"), ("P8", "v1")])
def test_outputs_digest_cert_kinds(digest, label, form):
    """cert_line on a v2 certificate and on a v1 certificate with a rational
    V^(k) element: every element kind the sampled residual tells apart."""
    _, cid, params = next(c for c in digest.corpus.CASES if c[0] == label)
    rec = digest.corpus.make_certificate(digest.SEEDS[0], label, cid, params, 2)
    assert rec["form"] == form
    assert form == "v2" or any("/" in lbl for lbl in rec["labels1"])
    (valid, shifted) = digest.cert_line(rec)["residuals"]
    assert valid[2] and not shifted[2]
    assert float.fromhex(valid[0]) <= 1e-7 < float.fromhex(shifted[0])

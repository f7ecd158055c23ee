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

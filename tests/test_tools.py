"""Smoke test of ``tools/outputs_digest.py``, the bit-identity dump: it reads
``Decision`` and certificate residuals field by field, so a
change of their shape must keep it running.  The tool is imported, not run."""

import contextlib
import importlib.util
import io
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
    assert "witness" in refuted
    assert refuted["cli_witness"][0] == 0
    cert = digest.cert_line(digest.corpus.make_certificate(seed, *key))
    assert len(cert["residuals"]) == 2
    assert all(len(r) == 3 for r in cert["residuals"])


def test_outputs_digest_p5_point_mass_line(digest, tmp_path):
    """The P5 point-mass record at k = 2, n = 5, seed 1 splits its mass off
    at the origin (origin_split) and reports the psd interval of the shifted
    lift it carries."""
    seed, rec = next((s, r) for s, r in digest.p5_point_mass_records()
                     if r["id"] == "P5/k2/n5/point_mass")
    line = digest.solve_line(rec, seed, tmp_path)
    assert (line["verdict"], line["branch"]) == ("MomentFunctional", "origin_split")
    assert line["interval"] is not None and "atoms" in line
    assert float.fromhex(line["o_weight"]) == pytest.approx(0.5)


@pytest.mark.parametrize("label,form", [("P15", "v2"), ("P8", "v1")])
def test_outputs_digest_cert_kinds(digest, label, form):
    """cert_line on a v2 certificate (two non-constant multipliers) and on a
    v1 certificate with a rational V^(k) element beside its unit monomials."""
    _, cid, params = next(c for c in digest.corpus.CASES if c[0] == label)
    rec = digest.corpus.make_certificate(digest.SEEDS[0], label, cid, params, 2)
    assert rec["form"] == form
    assert form == "v2" or any("/" in lbl for lbl in rec["labels1"])
    (valid, shifted) = digest.cert_line(rec)["residuals"]
    assert valid[2] and not shifted[2]
    assert float.fromhex(valid[0]) <= 1e-7 < float.fromhex(shifted[0])


COLD = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cold_tables.py"


def test_cold_tables_one_label(tmp_path):
    """``tools/cold_tables.py`` on the P3 instances: the forms the solves ask for,
    built again from cleared caches, with every count taken and the case
    records restored afterwards."""
    spec = importlib.util.spec_from_file_location("cold_tables", COLD)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    keys = [key for key in tool.corpus.corpus_keys() if key[0] == "P3"]
    forms = tool.solved_forms(tool.problem_files(tmp_path, keys))
    assert [(k, which) for _, k, which in forms[:3]] == [(2, "Bk"), (2, "Vk"), (2, "lift")]
    assert [k for _, k, _ in forms] == sorted(k for _, k, _ in forms)
    record = tool.curves._CATALOG["P3"]
    total, stats, bk_calls, traffic = tool.cold_build(forms)
    assert tool.curves._CATALOG["P3"] is record
    assert total > 0 and stats["lstsq"][0] > 0 and stats["rewrite"][0] > 0
    assert sorted(k for _, k in bk_calls) == [k for *_, k in keys]  # once per (case, k)
    # the traffic of every table the build read, and of no retired one
    assert traffic["poly._normal"].misses > 0 and traffic["poly._shift_index"].hits > 0
    assert traffic["moment._form"].currsize == len(forms)
    assert not any("_unit_normal_low" in name for name in traffic)
    assert all(fn.cache_info().currsize == 0 for fn in tool.caches().values())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tool.print_report(forms, total, stats, bk_calls, traffic)
    lines = out.getvalue().splitlines()
    assert sum(line.startswith("cache ") for line in lines) == len(traffic)
    assert "poly._normal " in out.getvalue() and "poly._shift_index " in out.getvalue()
    assert "_unit_normal_low" not in out.getvalue()


CENSUS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "atom_census.py"


def test_atom_census_one_label():
    """``tools/atom_census.py`` on P13 at k = 2: every instance of the grid is
    decided and extracted, with at most 3k atoms."""
    spec = importlib.util.spec_from_file_location("atom_census", CENSUS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows = tool.census(labels={"P13"}, ks=(2,))
    assert rows == {("P13", 2): [12, 12, 12, 6, 0]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tool.print_table(rows)
    lines = out.getvalue().splitlines()
    assert len(lines) == 3 and lines[1].split() == ["P13", "2", "12", "12", "12", "6", "6", "0"]
    assert lines[2].startswith("total: 12 instances, 12 decided, 12 extracted")

"""Bit-level digest of the solver's outputs on the benchmark corpus.

    PYTHONPATH=src python3 tools/outputs_digest.py > digest.jsonl

Writes one JSON line per instance: for genuine and refuted data (the 31
benchmark labels, k = 2..6, seeds 1, 2 and 3) and for P5 data with a point
mass at its isolated point (``p5_point_mass_records``) the verdict, note,
branch, every check with its margin, the completion interval, the extracted
atoms or the extraction error, the witness coefficients, and digests of the
``tmp3 solve --extract`` and ``tmp3 witness`` reports; for each certificate
(k = 2..6, valid and shifted by +1) both residuals; for every label the
digest of the ``tmp3 alpha`` report and, at k = 2..6, of the ``tmp3 info``
report and of the ``tmp3 generate`` problem file (3k atoms, seeds 1, 2 and 3),
which together cover the case catalog's bases, multipliers and
parametrizations and the atom placement on each curve. Floats are written with
``float.hex``, so two dumps are byte-equal exactly when the outputs are
bit-identical: ``cmp`` of a dump from two checkouts is their verdict diff.
The instances come from ``bench/corpus.py``, which is only imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

import corpus  # noqa: E402

from tmp3 import (Atom, AtomicMeasure, BivarPoly, Certificate, MomentSequence,  # noqa: E402
                  SymmetricForm, decide, extract, generate_measure, make_case,
                  verify_certificate, witness)
from tmp3 import cli  # noqa: E402

SEEDS = (1, 2, 3)


def _hex(x):
    return None if x is None else float(x).hex()


def _cli_digest(argv):
    """(exit code, sha256 of stdout) of one in-process ``tmp3`` command; an
    exception the command lets escape is reported by its type and text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}", None
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def case_lines(label, cid, params):
    """The ``alpha`` report of one label, then its ``info`` and ``generate``
    reports at every k of the corpus."""
    args = ["--case", cid, "--params", ",".join(f"{n}={v!r}" for n, v in params.items())]
    yield {"id": label, "cli_alpha": _cli_digest(["alpha", *args])}
    for k in corpus.KS:
        line = {"id": f"{label}/k{k}", "cli_info": _cli_digest(["info", *args, "--k", str(k)])}
        for seed in SEEDS:
            line[f"cli_generate_{seed}"] = _cli_digest(
                ["generate", *args, "--k", str(k), "--atoms", str(3 * k), "--seed", str(seed)])
        yield line


def solve_line(rec, seed, tmpdir):
    case = make_case(rec["case"], rec["params"])
    beta = {(int(i), int(j)): float(v) for i, j, v in rec["moments"]}
    L = MomentSequence(case, rec["k"], beta)
    dec = decide(L)
    line = {
        "id": rec["id"], "seed": seed, "verdict": dec.verdict, "note": dec.note,
        "branch": dec.singular_branch, "o_weight": _hex(dec.o_weight),
        "checks": [[c.name, c.kind, bool(c.passed), _hex(c.margin)] for c in dec.details],
        "interval": None, "witness_available": bool(dec.witness_available),
    }
    ivl = dec.completion_interval
    if ivl is not None:
        line["interval"] = [_hex(ivl.lo), _hex(ivl.hi), bool(ivl.empty)]
    if dec.passed():
        try:
            mu = extract(L, decision=dec)
            line["atoms"] = [[_hex(a.x), _hex(a.y), _hex(a.w), a.component] for a in mu.atoms]
        except Exception as exc:  # the error text is part of the output
            line["extract_error"] = f"{type(exc).__name__}: {exc}"
    if dec.witness_available:
        try:
            p = witness(L, decision=dec)
            line["witness"] = [[i, j, _hex(v)] for (i, j), v in sorted(p.coeffs.items())]
        except Exception as exc:
            line["witness_error"] = f"{type(exc).__name__}: {exc}"
    path = os.path.join(tmpdir, "problem.json")
    with open(path, "w") as fh:
        json.dump({"case": rec["case"], "params": rec["params"], "k": rec["k"],
                   "moments": [{"i": i, "j": j, "v": v} for i, j, v in rec["moments"]]}, fh)
    line["cli_solve"] = _cli_digest(["solve", "--input", path, "--extract"])
    if dec.verdict == "NotMomentFunctional":
        line["cli_witness"] = _cli_digest(["witness", "--input", path])
    return line


def p5_point_mass_records():
    """(seed, record) of P5 data that splits a point mass off at the isolated
    point (branches origin_split and lambda0): a generated measure of n atoms
    plus 0.5 at (0, 0), for k = 2..6, n = 3k-2..3k+1 and seeds 1, 2 and 3."""
    case = make_case("P5", {})
    for k in corpus.KS:
        for n in range(3 * k - 2, 3 * k + 2):
            for seed in SEEDS:
                mu = generate_measure(case, n, k, seed=[seed, k, n])
                beta = AtomicMeasure(mu.atoms + (Atom(0.0, 0.0, 0.5),)).moments(k)
                yield seed, {"id": f"P5/k{k}/n{n}/point_mass", "case": "P5", "params": {},
                             "k": k, "moments": [[i, j, v] for (i, j), v in sorted(beta.items())]}


def cert_line(rec):
    case = make_case(rec["case"], rec["params"])

    def form(key, labels):
        return None if rec[key] is None else SymmetricForm(labels, rec[key])

    cert = Certificate(rec["form"], form("gram0", rec["labels0"]),
                       form("gram1", rec["labels1"]), form("gram2", rec["labels1"]))
    line = {"id": rec["id"], "residuals": []}
    for shift in (0.0, 1.0):
        p = corpus.poly_from_list(rec["p"])
        p[(0, 0)] = p.get((0, 0), 0.0) + shift
        res = verify_certificate(BivarPoly(p), cert, case, rec["k"])
        line["residuals"].append([_hex(res.sampled), _hex(res.symbolic), res.ok()])
    return line


def main():
    keys = corpus.corpus_keys(corpus.KS)
    with tempfile.TemporaryDirectory() as tmpdir:
        for seed in SEEDS:
            for kind in ("genuine", "refuted"):
                for key in keys:
                    rec = corpus.MAKERS[kind](seed, *key)
                    print(json.dumps(solve_line(rec, seed, tmpdir), sort_keys=True), flush=True)
        for seed, rec in p5_point_mass_records():
            print(json.dumps(solve_line(rec, seed, tmpdir), sort_keys=True), flush=True)
    for key in keys:
        print(json.dumps(cert_line(corpus.make_certificate(SEEDS[0], *key)), sort_keys=True),
              flush=True)
    for case in corpus.CASES:
        for line in case_lines(*case):
            print(json.dumps(line, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()

"""Command-line surface: solve / generate / alpha / witness / certify / info.

All files are JSON with plain IEEE doubles (NaN and infinities are
rejected).  Exit codes: 0 moment functional, 1 refuted, 2 inconclusive,
3 malformed input or ideal violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import linalg, measure, moment
from .bases import KTooSmall, basis_Bk, basis_Rk1, basis_Vk
from .certify import Certificate, verify_certificate
from .curves import (
    CASE_IDS,
    InvalidParams,
    NotApplicable,
    make_case,
    multiplier,
    parametrization,
)
from .linalg import SymmetricForm
from .measure import AtomicMeasure, ExtractOptions, NoWitness
from .moment import DecideOptions, IdealViolation, IncompleteMoments, MomentSequence
from .poly import BivarPoly, UnsupportedCase


class InputError(ValueError):
    pass


def _fail(msg, code=3):
    err = {"error": str(msg)}
    print(json.dumps(err))
    return code


def _parse_params(text):
    params = {}
    if not text:
        return params
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"malformed parameter {part!r}; expected name=value")
        name, val = part.split("=", 1)
        params[name.strip()] = float(val)
    return params


def _finite(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputError(f"expected a number in JSON payload, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        raise InputError("number out of range in JSON payload")
    if not math.isfinite(v):
        raise InputError("non-finite number in JSON payload")
    return v


def _integer(x):
    v = _finite(x)
    if v != int(v):
        raise InputError(f"expected an integer in JSON payload, got {x!r}")
    return int(v)


def _exponent(x):
    v = _integer(x)
    if v < 0:
        raise InputError(f"negative exponent {v} in JSON payload")
    return v


def _read_json(path, what, kind):
    """Parsed contents of path, which must hold a JSON value of type kind."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what}: {exc}")
    _expect(data, kind, what)
    return data


def _expect(value, kind, what):
    if not isinstance(value, kind):
        raise InputError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")


def _records(value, what):
    """A JSON list of objects."""
    _expect(value, list, what)
    for rec in value:
        _expect(rec, dict, f"each entry of {what}")
    return value


def load_problem(path) -> tuple:
    data = _read_json(path, "problem file", dict)
    for key in ("case", "k", "moments"):
        if key not in data:
            raise InputError(f"problem file missing field {key!r}")
    params = data.get("params", {})
    _expect(params, dict, "params")
    case = make_case(data["case"], {name: _finite(v) for name, v in params.items()})
    k = _integer(data["k"])
    if k < case.k_min:
        raise KTooSmall(case.id, k, case.k_min)
    beta = _moments(data["moments"])
    try:
        L = MomentSequence(case, k, beta)
    except IncompleteMoments as exc:
        raise InputError(str(exc))
    return L, data


_EXACT = 2**53  # every int below it is exactly a float, as _exponent reads it


def _moments(records):
    """beta from the moment records {"i", "j", "v"}.

    A record whose exponents are ints in [0, 2^53) and whose value is a
    finite float is taken as it is; any other goes through the checks, value
    first, which accept every such record with the same value."""
    beta = {}
    for rec in _records(records, "moments"):
        i, j, v = rec.get("i"), rec.get("j"), rec.get("v")
        if not (type(i) is int and type(j) is int and type(v) is float
                and 0 <= i < _EXACT and 0 <= j < _EXACT and math.isfinite(v)):
            v = _finite(rec["v"])
            i, j = _exponent(rec["i"]), _exponent(rec["j"])
        beta[i, j] = v
    return beta


def dump_problem(L: MomentSequence, mu: AtomicMeasure | None = None):
    data = {
        "case": L.case.id,
        "params": dict(L.case.params),
        "k": L.k,
        "moments": [
            {"i": i, "j": j, "v": v} for (i, j), v in sorted(L.beta.items())
        ],
    }
    if mu is not None:
        data["measure"] = measure_to_json(mu)
    return data


def measure_to_json(mu: AtomicMeasure):
    return {
        "atoms": [
            {"x": a.x, "y": a.y, "w": a.w, "component": a.component} for a in mu.atoms
        ]
    }


def poly_to_json(p: BivarPoly):
    return [{"i": i, "j": j, "v": v} for (i, j), v in p.terms()]


def poly_from_json(data):
    return BivarPoly({(_exponent(r["i"]), _exponent(r["j"])): _finite(r["v"])
                      for r in _records(data, "polynomial")})


def checks_to_json(dec):
    return [
        {"name": c.name, "kind": c.kind, "pass": bool(c.passed), "margin": _j(c.margin)}
        for c in dec.details
    ]


def _j(x):
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _tolerances(args):
    psd = os.environ.get("TMP3_TOL_PSD")
    base = linalg.DEFAULT_TOL
    if psd is not None:
        base = base.replace(psd=float(psd))
    return base.replace(
        psd=getattr(args, "tol_psd", None), rank=getattr(args, "tol_rank", None)
    )


def _completion(text):
    """ExtractOptions of a --completion flag: midpoint|left|right|value=V, or
    None for a flat endpoint."""
    if text is None:
        return ExtractOptions()
    mode, value = text, None
    if mode.startswith("value="):
        value = float(mode.split("=", 1)[1])
        if not math.isfinite(value):
            raise InputError(f"non-finite completion value {value!r}")
        mode = "value"
    elif mode not in ("midpoint", "left", "right"):
        raise InputError(f"unknown completion mode {mode!r}")
    return ExtractOptions(completion=mode, completion_value=value)


def cmd_solve(args):
    L, _ = load_problem(args.input)
    tol = _tolerances(args)
    extract_opts = _completion(args.completion)
    dec = moment.decide(L, DecideOptions(tol=tol))
    report = {
        "verdict": dec.verdict,
        "case": L.case.id,
        "k": L.k,
        "checks": checks_to_json(dec),
        "note": dec.note,
        "completion_interval": None,
        "measure": None,
        "witness": None,
        "tolerances": {"psd": tol.psd, "pd": tol.pd, "rank": tol.rank},
    }
    if dec.completion_interval is not None and not dec.completion_interval.empty:
        report["completion_interval"] = [
            dec.completion_interval.lo, dec.completion_interval.hi
        ]
    if args.extract and dec.passed():
        try:
            mu, report["residual"] = measure.extract_verified(L, extract_opts, decision=dec)
            report["measure"] = measure_to_json(mu)
        except (measure.ExtractionFailed, UnsupportedCase) as exc:
            report["extraction_error"] = str(exc)
    if dec.witness is not None:
        report["witness"] = poly_to_json(dec.witness)
    _write_report(report, args.out)
    return dec.exit_code()


def _write_report(report, out):
    text = json.dumps(report, indent=2, allow_nan=False, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_generate(args):
    if args.atoms < 0:
        raise InputError(f"--atoms must be nonnegative, got {args.atoms}")
    case = make_case(args.case, _parse_params(args.params))
    L, mu = measure.generate(case, args.k, n_atoms=args.atoms, seed=args.seed)
    data = dump_problem(L, mu)
    _write_report(data, args.out)
    return 0


def cmd_alpha(args):
    case = make_case(args.case, _parse_params(args.params))
    m = multiplier(case)
    out = {
        "case": case.id,
        "f_numerator": poly_to_json(m.f.numerator),
        "f_denominator": poly_to_json(m.f.denominator),
        "selection_rule": m.selection_rule,
    }
    if m.source_cubic is not None:
        out["cubic_coeffs_ascending"] = list(m.source_cubic.coeffs)
        from .poly import cubic_real_roots

        out["cubic_real_roots"] = cubic_real_roots(m.source_cubic)
        out["alpha"] = m.alpha
    _write_report(out, getattr(args, "out", None))
    return 0


def cmd_witness(args):
    L, _ = load_problem(args.input)
    dec = moment.decide(L, DecideOptions(tol=_tolerances(args)))
    try:
        p = measure.witness(L, decision=dec)
    except NoWitness as exc:
        return _fail(f"no witness: {exc}", code=2)
    out = {
        "case": L.case.id,
        "polynomial": poly_to_json(p),
        "value": L.value(p),
        "sampled_min": measure.sampled_min_on_curve(p, L.case),
    }
    _write_report(out, args.out)
    return 0


def cmd_certify(args):
    case = make_case(args.case, _parse_params(args.params))
    p = poly_from_json(_read_json(args.poly, "polynomial file", list))
    cdata = _read_json(args.cert, "certificate file", dict)
    k = _integer(cdata.get("k", args.k or 0))
    if k <= 0:
        return _fail("certificate file must carry a positive k")

    def load_gram(key, labels):
        rows = cdata.get(key)
        if rows is None:
            return None
        n = len(labels)
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise InputError(f"{key} must be a {n} x {n} matrix")
        return SymmetricForm(labels, np.array([[_finite(v) for v in r] for r in rows]))

    form = cdata.get("form", "v1")
    g0 = load_gram("gram0", basis_Bk(case, k).labels())
    if form == "v1":
        lbl1 = basis_Vk(case, k).labels() if cdata.get("gram1") is not None else []
        g1 = load_gram("gram1", lbl1)
        cert = Certificate("v1", g0, g1)
    else:
        lbl = basis_Rk1(case, k).labels()
        cert = Certificate("v2", g0, load_gram("gram1", lbl), load_gram("gram2", lbl))
    res = verify_certificate(p, cert, case, k)
    out = {
        "sampled_residual": res.sampled,
        "symbolic_residual": _j(res.symbolic),
        "pass": bool(res.ok(args.tol)),
    }
    _write_report(out, getattr(args, "out", None))
    return 0 if res.ok(args.tol) else 1


def cmd_info(args):
    case = make_case(args.case, _parse_params(args.params))
    k = args.k
    out = {"case": case.id, "params": dict(case.params), "k": k,
           "k_min": case.k_min}
    if k >= case.k_min:
        out["basis_Bk"] = basis_Bk(case, k).labels()
        try:
            vb = basis_Vk(case, k)
            out["basis_Vk"] = vb.labels()
            out["basis_Vk_partial"] = vb.partial
        except NotApplicable:
            out["basis_Rk1"] = basis_Rk1(case, k).labels()
    m = multiplier(case)
    out["multiplier_numerator"] = poly_to_json(m.f.numerator)
    out["multiplier_denominator"] = poly_to_json(m.f.denominator)
    if m.alpha is not None:
        out["alpha"] = m.alpha
    try:
        par = parametrization(case)
        out["parametrization"] = [c.describe() for c in par.components]
        out["excluded_t"] = [list(c.excluded_t) for c in par.components]
        out["matching_conditions"] = list(par.matching_conditions)
    except UnsupportedCase:
        out["parametrization"] = None
    _write_report(out, getattr(args, "out", None))
    return 0


@functools.cache
def build_parser():
    """The one parser of the process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="tmp3",
        description="Truncated moment problems on the 29 canonical plane cubics",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="decide a moment problem instance")
    s.add_argument("--input", required=True)
    s.add_argument("--extract", action="store_true")
    s.add_argument("--completion", default=None,
                   help="midpoint|left|right|value=V (default: a flat endpoint)")
    s.add_argument("--tol-psd", type=float, default=None)
    s.add_argument("--tol-rank", type=float, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    g = sub.add_parser("generate", help="sample a measure and write its moments")
    g.add_argument("--case", required=True, choices=CASE_IDS)
    g.add_argument("--params", default="")
    g.add_argument("--atoms", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("alpha", help="print the positivity multiplier data")
    a.add_argument("--case", required=True, choices=CASE_IDS)
    a.add_argument("--params", default="")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_alpha)

    w = sub.add_parser("witness", help="emit a separating polynomial")
    w.add_argument("--input", required=True)
    w.add_argument("--tol-psd", type=float, default=None)
    w.add_argument("--tol-rank", type=float, default=None)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_witness)

    c = sub.add_parser("certify", help="verify a positivity certificate")
    c.add_argument("--poly", required=True)
    c.add_argument("--cert", required=True)
    c.add_argument("--case", required=True, choices=CASE_IDS)
    c.add_argument("--params", default="")
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--tol", type=float, default=1e-7)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_certify)

    i = sub.add_parser("info", help="bases, parametrization and multiplier")
    i.add_argument("--case", required=True, choices=CASE_IDS)
    i.add_argument("--params", default="")
    i.add_argument("--k", type=int, default=2)
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_info)
    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error is malformed input
        return 0 if not exc.code else 3
    try:
        return args.func(args)
    except (InputError, InvalidParams, IncompleteMoments, UnsupportedCase,
            NotApplicable, IdealViolation, OSError, json.JSONDecodeError,
            KeyError, ValueError) as exc:
        return _fail(exc)
    except OverflowError as exc:  # finite parameters whose powers leave the float range
        return _fail(f"number out of floating-point range: {exc}")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

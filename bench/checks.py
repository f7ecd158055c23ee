"""Correctness checks on the program's outputs, computed apart from the program.

Each check returns the names of the faults it found (an empty list when the
output is correct). Only the first three names are faults the program is
known to have today; any other name makes a run report ``correct: false``.
"""

from __future__ import annotations

import numpy as np

from corpus import CONSTRUCTIVE, curve_poly, functional, on_curve, peval, poly_from_list

KNOWN_FAULTS = (
    "genuine_refuted",  # NotMomentFunctional on data from a real measure
    "extraction_failed",  # ExtractionFailed after a passing verdict
    "valid_cert_rejected",  # verify_certificate rejects a valid certificate
)

PASSING = ("MomentFunctional", "MomentFunctionalOnNonIsolated")
MOMENT_RTOL = 1e-6
CURVE_RTOL = 1e-8


def check_measure(rec, atoms, beta):
    """Atoms on the curve with positive weights, reproducing the input moments."""
    faults = []
    if not atoms:
        return ["measure_empty"]
    X = np.array([a[0] for a in atoms])
    Y = np.array([a[1] for a in atoms])
    W = np.array([a[2] for a in atoms])
    if not np.all(on_curve(curve_poly(rec["case"], rec["params"]), X, Y, CURVE_RTOL)):
        faults.append("measure_off_curve")
    if not np.all(W > 0):
        faults.append("measure_weight_not_positive")
    worst = 0.0
    for (i, j), b in beta.items():
        m = float(np.sum(W * X**i * Y**j))
        worst = max(worst, abs(m - b) / max(1.0, abs(b)))
    if not worst <= MOMENT_RTOL:
        faults.append("measure_moments_mismatch")
    return faults


def check_witness(p, beta, points):
    """L(p) < 0 from the moments, and p >= 0 at the benchmark's curve points."""
    faults = []
    if not functional(beta, p) < 0.0:
        faults.append("witness_value_not_negative")
    val, mag = peval(p, *points)
    if not np.all(val >= -CURVE_RTOL * mag):
        faults.append("witness_negative_on_curve")
    return faults


def check_solve(rec, beta, points, verdict, atoms=None, extract_error=None,
                witness=None, witness_error=None):
    """Faults of one decide (+ extract or witness) on a genuine or refuted instance.

    ``atoms`` is a list of (x, y, w); ``witness`` a {(i, j): c} polynomial.
    Returns (faults, decided) where decided means a definite, correct verdict.
    """
    faults = []
    if rec["kind"] == "genuine":
        decided = verdict in PASSING
        if verdict == "NotMomentFunctional":
            faults.append("genuine_refuted")
        if extract_error is not None:
            faults.append("extraction_failed")
        elif atoms is not None:
            faults += check_measure(rec, atoms, beta)
    else:
        decided = verdict == "NotMomentFunctional"
        if verdict in PASSING:
            faults.append("refuted_accepted")
        if witness_error is not None:
            faults.append("witness_missing")
        elif witness is not None:
            faults += check_witness(witness, beta, points)
    return faults, decided


def check_certificate(valid, accepted):
    if valid and not accepted:
        return ["valid_cert_rejected"]
    if not valid and accepted:
        return ["shifted_cert_accepted"]
    return []


def check_cli(rec, beta, points, code, report):
    """Faults of one ``tmp3 solve --extract`` call: exit code and report."""
    verdict = report.get("verdict")
    want = {"MomentFunctional": 0, "MomentFunctionalOnNonIsolated": 0,
            "NotMomentFunctional": 1, "Inconclusive": 2}.get(verdict)
    if want is None:
        return ["cli_no_verdict"], False
    atoms = None
    if report.get("measure") is not None:
        atoms = [(a["x"], a["y"], a["w"]) for a in report["measure"]["atoms"]]
    extract_error = None
    if rec["case"] in CONSTRUCTIVE and verdict in PASSING and "extraction_error" in report:
        extract_error = report["extraction_error"]
    witness = None
    if report.get("witness") is not None:
        witness = {(t["i"], t["j"]): t["v"] for t in report["witness"]}
    faults, decided = check_solve(rec, beta, points, verdict, atoms=atoms,
                                  extract_error=extract_error, witness=witness)
    if code != want:
        faults.append("cli_exit_code")
    return faults, decided


def beta_of(rec):
    return {(int(i), int(j)): float(v) for i, j, v in rec["moments"]}


def cert_poly(rec, shift=0.0):
    p = poly_from_list(rec["p"])
    p[(0, 0)] = p.get((0, 0), 0.0) + shift
    return p

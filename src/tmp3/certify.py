"""Verification of positivity certificates on a cubic.

A v1 certificate writes p as v^T G0 v + f * w^T G1 w over the bases of
the degree-k functions and the localizing space; v2 uses the two factor
multipliers with degree-(k-1) Gram matrices.  Verification is dual:
dense sampling over curve points always applies, and a symbolic residual
is reported whenever every cross product has a polynomial representative.
Both read the compiled form of each Gram term (moment._form), the same
record that decide and witness read: its elements, evaluated once per
form at the case's sample points, for the sampling, its adjoint
(Form.terms, the map from a Gram matrix to polynomial terms that
witness() also reads) for the symbolic residual.  Both are divided by the
size of their terms floored at 1 (the standard bound on the rounding error
of a sum), per point and per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .curves import CurveCase, sample_arrays
from .linalg import SymmetricForm
from .moment import _form
from .poly import BivarPoly, _terms, normal_low


class ShapeMismatch(ValueError):
    pass


class NotPsd(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    form: str  # "v1" | "v2"
    gram0: SymmetricForm
    gram1: SymmetricForm | None = None
    gram2: SymmetricForm | None = None


@dataclass(frozen=True)
class CertificateResidual:
    sampled: float
    symbolic: float | None

    def ok(self, tol=1e-7):
        sym_ok = self.symbolic is None or self.symbolic <= tol
        return self.sampled <= tol and sym_ok


def verify_certificate(p: BivarPoly, cert: Certificate, case: CurveCase,
                       k: int) -> CertificateResidual:
    if p.degree() > 2 * k:
        raise ShapeMismatch(f"polynomial degree {p.degree()} exceeds 2k")
    b0 = _form(case, k, "Bk")
    if cert.gram0.size != len(b0.labels):
        raise ShapeMismatch("gram0 size does not match the degree-k basis")
    terms = [(b0, cert.gram0)]
    if cert.form == "v1":
        if cert.gram1 is not None:
            bv = _form(case, k, "Vk")
            if cert.gram1.size != len(bv.labels):
                raise ShapeMismatch("gram1 size does not match the localizing basis")
            terms.append((bv, cert.gram1))
    elif cert.form == "v2":
        if not case.is_v2():
            raise ShapeMismatch(f"{case.id} does not use the two-factor form")
        for g, which in ((cert.gram1, "R0"), (cert.gram2, "R1")):
            if g is None:
                continue
            form = _form(case, k, which)
            if g.size != len(form.labels):
                raise ShapeMismatch("v2 gram size does not match the degree-(k-1) basis")
            if form.chi != 0:
                terms.append((form, g))
    else:
        raise ShapeMismatch(f"unknown certificate form {cert.form!r}")

    for _, g in terms:
        if linalg.psd_margin(g.known()) < -linalg.DEFAULT_TOL.psd:
            raise NotPsd("certificate Gram matrix has a negative eigenvalue")

    return CertificateResidual(_sampled_residual(p, terms, case),
                               _symbolic_residual(p, terms, case))


def _sampled_residual(p, terms, case):
    """max over 200 pole-free sample points of |sum of terms - p| / max(1, sum of |terms|).

    The monomials of p are read from one power table, X**i and Y**j (not
    repeated products, which round differently), whose rows are cached per
    case (_power); the values of every element, the multiplier and the
    pole mask are cached once per compiled form (_form_values), as
    RationalElem.eval_array gives them.  The sums run in the order of a
    term-by-term loop, so the residual is that evaluation's, bit for bit.
    """
    X, Y = sample_arrays(case, 200, seed=11)
    I, J = np.array(list(p.coeffs), dtype=np.intp).reshape(-1, 2).T
    c = np.fromiter(p.coeffs.values(), dtype=float, count=len(p.coeffs))
    # with more than one point per row, numpy adds the rows one after the
    # other (pairwise summation runs only along a contiguous reduced axis),
    # in the order of p's terms, as a term-by-term loop does
    T = c[:, None] * _powers(case, 0, I)[I] * _powers(case, 1, J)[J]
    total, scale = -np.add.reduce(T, axis=0), np.add.reduce(np.abs(T), axis=0)
    pole = np.zeros(X.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for form, g in terms:
            V, fv, bad = _form_values(form, case)
            G = g.known()
            total += form.chi * fv * np.sum(V * (G @ V), axis=0)
            scale += np.abs(fv) * np.sum(np.abs(V) * (np.abs(G) @ np.abs(V)), axis=0)
            pole |= bad
        r = np.abs(total) / np.maximum(1.0, scale)
    return float(np.max(r[~pole], initial=0.0))


def _powers(case, axis, e):
    """Z**i for i = 0 .. max(e), one row each, Z the sample points'
    coordinate ``axis`` (0: X, 1: Y)."""
    return np.array([_power(case, axis, i) for i in range(e.max(initial=0) + 1)])


@lru_cache(maxsize=4096)
def _power(case, axis, e):
    """One read-only row of _powers, shared by every table of the case."""
    Z = sample_arrays(case, 200, seed=11)[axis] ** e
    Z.flags.writeable = False
    return Z


@lru_cache(maxsize=512)
def _form_values(form, case):
    """(V, f, pole), read-only: a compiled form's elements at the sample
    points of its case, one row each, its multiplier there, and where an
    element or the multiplier has a pole."""
    X, Y = sample_arrays(case, 200, seed=11)
    with np.errstate(all="ignore"):
        V, bad = map(np.array, zip(*(e.rat.eval_array(X, Y) for e in form.elements)))
        fv, fbad = form.f.eval_array(X, Y)
    out = V, fv, bad.any(axis=0) | fbad
    for a in out:
        a.flags.writeable = False
    return out


def _symbolic_residual(p, terms, case):
    """max over monomials of |sum of contributions - normal_low(p)| / max(1, sum of their |.|).

    A Gram term contributes the terms of its compiled form's adjoint
    (Form.terms, the map witness() also reads); None when a product has no
    polynomial representative.  The terms are binned on their graded
    monomial index, in the order given.
    """
    if any(form.unknown is not None for form, _ in terms):
        return None
    mons, vals = map(list, zip(*(form.terms(g.known()) for form, g in terms)))
    qmon, qcoef = _terms(normal_low(p, case))
    mons.append(np.frombuffer(qmon, dtype=np.intp))
    vals.append(-np.frombuffer(qcoef, dtype=float))
    m, vals = np.concatenate(mons), np.concatenate(vals)
    res = np.abs(np.bincount(m, weights=vals))
    mag = np.bincount(m, weights=np.abs(vals))
    return float(np.max(res / np.maximum(mag, 1.0), initial=0.0))


def sos_from_gram(Q: SymmetricForm, basis, tol=1e-12):
    """Eigen-split Q = sum_l lambda_l u_l u_l^T into explicit squares.

    Returns [(coefficient vector sqrt(lambda)*u, label list)] with
    eigenvalues below tol*max dropped.
    """
    M = Q.known() if isinstance(Q, SymmetricForm) else np.asarray(Q, dtype=float)
    w, V = np.linalg.eigh(M)
    top = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    out = []
    for lam, vec in zip(w, V.T):
        if lam < -1e-9 * top:
            raise NotPsd("matrix is not psd")
        if lam > tol * top:
            out.append(np.sqrt(lam) * vec)
    return out


def reassemble_gram(squares, n):
    """Sum of outer products of the square vectors; inverse of sos_from_gram."""
    M = np.zeros((n, n))
    for v in squares:
        M += np.outer(v, v)
    return M

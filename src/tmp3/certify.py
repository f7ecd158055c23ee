"""Verification of positivity certificates on a cubic.

A v1 certificate writes p as v^T G0 v + f * w^T G1 w over the bases of
the degree-k functions and the localizing space; v2 uses the two factor
multipliers with degree-(k-1) Gram matrices.  Verification is dual:
dense sampling over curve points always applies, and a symbolic residual
is reported whenever every cross product has a polynomial representative.
Both read the compiled form of each Gram term (moment._form), the same
record that decide and witness read: its elements for the sampling, its
adjoint (Form.terms, the map from a Gram matrix to polynomial terms that
witness() also reads) for the symbolic residual.  Both are divided by the
size of their terms floored at 1 (the standard bound on the rounding error
of a sum), per point and per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .curves import CurveCase, sample_arrays
from .linalg import SymmetricForm
from .moment import _coo, _form
from .poly import BivarPoly, normal_low


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
    """max over 200 pole-free sample points of |sum of terms - p| / max(1, sum of |terms|)."""
    X, Y = sample_arrays(case, 200, seed=11)
    total, scale = np.zeros(X.shape), np.zeros(X.shape)
    for (i, j), c in p.coeffs.items():
        t = c * X**i * Y**j
        total, scale = total - t, scale + np.abs(t)
    pole = np.zeros(X.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for form, g in terms:
            V, bad = map(np.array, zip(*(e.rat.eval_array(X, Y) for e in form.elements)))
            fv, fbad = form.f.eval_array(X, Y)
            G = g.known()
            total += form.chi * fv * np.sum(V * (G @ V), axis=0)
            scale += np.abs(fv) * np.sum(np.abs(V) * (np.abs(G) @ np.abs(V)), axis=0)
            pole |= bad.any(axis=0) | fbad
        r = np.abs(total) / np.maximum(1.0, scale)
    return float(np.max(r[~pole], initial=0.0))


def _symbolic_residual(p, terms, case):
    """max over monomials of |sum of contributions - normal_low(p)| / max(1, sum of their |.|).

    A Gram term contributes the terms of its compiled form's adjoint
    (Form.terms, the map witness() also reads); None when a product has no
    polynomial representative.
    """
    if any(form.unknown is not None for form, _ in terms):
        return None
    mons, vals = map(list, zip(*(form.terms(g.known()) for form, g in terms)))
    _, qmon, qcoef = _coo([(0, normal_low(p, case).coeffs)])
    mons.append(qmon)
    vals.append(-qcoef)
    _, m = np.unique(np.concatenate(mons), return_inverse=True)
    vals = np.concatenate(vals)
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

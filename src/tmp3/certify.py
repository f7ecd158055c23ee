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
from functools import lru_cache
from typing import NamedTuple

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
    """max over 200 pole-free sample points of |sum of terms - p| / max(1, sum of |terms|).

    The monomials of p and the unit-monomial elements x^i y^j of every form
    are read from one power table, X**i and Y**j taken once per call (not
    by repeated products, which round differently); the other elements, the
    multiplier and the pole mask come from _form_samples, once per compiled
    form.  Every value is the one RationalElem.eval_array gives (a unit
    monomial's (0 + 1.0 * X**i * Y**j) / 1.0 up to the sign of a zero, which
    no sum or |.| below shows) and the sums run in the same order, so the
    residual is the term-by-term evaluation's, bit for bit.
    """
    X, Y = sample_arrays(case, 200, seed=11)
    samples = [_form_samples(form, case) for form, _ in terms]
    I, J = np.array(list(p.coeffs), dtype=np.intp).reshape(-1, 2).T
    c = np.fromiter(p.coeffs.values(), dtype=float, count=len(p.coeffs))
    XP = _powers(X, [I, *(s.i for s in samples)])
    YP = _powers(Y, [J, *(s.j for s in samples)])
    # with more than one point per row, numpy adds the rows one after the
    # other (pairwise summation runs only along a contiguous reduced axis),
    # in the order of p's terms, as a term-by-term loop does
    T = c[:, None] * XP[I] * YP[J]
    total, scale = -np.add.reduce(T, axis=0), np.add.reduce(np.abs(T), axis=0)
    pole = np.zeros(X.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for (form, g), s in zip(terms, samples):
            V = np.empty((len(form.elements), X.size))
            V[s.mono] = XP[s.i] * YP[s.j]
            V[s.rest] = s.values
            G = g.known()
            total += form.chi * s.fv * np.sum(V * (G @ V), axis=0)
            scale += np.abs(s.fv) * np.sum(np.abs(V) * (np.abs(G) @ np.abs(V)), axis=0)
            pole |= s.pole
        r = np.abs(total) / np.maximum(1.0, scale)
    return float(np.max(r[~pole], initial=0.0))


def _powers(Z, exps):
    """Z**e for e = 0 .. the largest entry of the exponent arrays, one row each."""
    top = max(a.max(initial=0) for a in exps)
    return np.array([Z**e for e in range(top + 1)])


class _Samples(NamedTuple):
    """A compiled form at the sample points of its case, but for the values
    of its unit monomials, which the power table gives."""

    mono: np.ndarray  # rows of the unit monomials x^i y^j
    i: np.ndarray
    j: np.ndarray
    rest: np.ndarray  # rows of the other elements
    values: np.ndarray  # their values, one row each
    fv: np.ndarray  # the multiplier
    pole: np.ndarray  # where an element or the multiplier has a pole


@lru_cache(maxsize=512)
def _form_samples(form, case) -> _Samples:
    """The values _sampled_residual reads of a form but not from the power
    table.  The unit monomials, most of the elements, are left out: over the
    benchmark's 192 certificate forms this holds 1.0 MB where every element's
    values would take 2.7 MB."""
    X, Y = sample_arrays(case, 200, seed=11)
    els = form.elements
    with np.errstate(all="ignore"):
        vals, bad = zip(*(e.rat.eval_array(X, Y) for e in els))
        fv, fbad = form.f.eval_array(X, Y)
    mono = [r for r, e in enumerate(els) if e.exps is not None]
    rest = [r for r, e in enumerate(els) if e.exps is None]
    i, j = np.array([els[r].exps for r in mono], dtype=np.intp).reshape(-1, 2).T
    out = _Samples(np.array(mono, dtype=np.intp), i, j, np.array(rest, dtype=np.intp),
                   np.array([vals[r] for r in rest]).reshape(len(rest), X.size),
                   fv, np.array(bad).any(axis=0) | fbad)
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
    _, qmon, qcoef = _coo([(0, normal_low(p, case).coeffs)])
    mons.append(qmon)
    vals.append(-qcoef)
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

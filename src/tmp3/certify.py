"""Verification of positivity certificates on a cubic.

A v1 certificate writes p as v^T G0 v + f * w^T G1 w over the bases of
the degree-k functions and the localizing space; v2 uses the two factor
multipliers with degree-(k-1) Gram matrices.  Verification is dual:
dense sampling over curve points always applies, and a symbolic residual
is reported whenever every cross product has a polynomial representative.
Both are divided by the size of their terms floored at 1 (the standard
bound on the rounding error of a sum), per point and per monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .bases import basis_Bk, basis_Rk1, basis_Vk
from .curves import CurveCase, chi_flags, multiplier, sample_arrays
from .linalg import SymmetricForm
from .moment import _products
from .poly import BivarPoly, RationalElem, normal_low


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


def verify_certificate(p: BivarPoly, cert: Certificate, case: CurveCase, k: int,
                       n_samples=200, psd_tol=None) -> CertificateResidual:
    if p.degree() > 2 * k:
        raise ShapeMismatch(f"polynomial degree {p.degree()} exceeds 2k")
    b0 = basis_Bk(case, k)
    if cert.gram0.size != len(b0):
        raise ShapeMismatch("gram0 size does not match the degree-k basis")
    terms = [(1.0, None, b0.elements, cert.gram0, "Bk")]
    if cert.form == "v1":
        if cert.gram1 is not None:
            bv = basis_Vk(case, k)
            if cert.gram1.size != len(bv):
                raise ShapeMismatch("gram1 size does not match the localizing basis")
            terms.append((1.0, multiplier(case).f, bv.elements, cert.gram1, "Vk"))
    elif cert.form == "v2":
        if not case.is_v2():
            raise ShapeMismatch(f"{case.id} does not use the two-factor form")
        c1, c2 = chi_flags(case)
        br = basis_Rk1(case, k)
        for g, chi, fi in ((cert.gram1, c1, 0), (cert.gram2, c2, 1)):
            if g is None:
                continue
            if g.size != len(br):
                raise ShapeMismatch("v2 gram size does not match the degree-(k-1) basis")
            if chi == 0:
                continue
            fac = RationalElem(case.factors()[fi], BivarPoly.const(1.0))
            terms.append((float(chi), fac, br.elements, g, f"R{fi}"))
    else:
        raise ShapeMismatch(f"unknown certificate form {cert.form!r}")

    for _, _, _, g, _ in terms:
        if not linalg.is_psd(g.known(), psd_tol):
            raise NotPsd("certificate Gram matrix has a negative eigenvalue")

    return CertificateResidual(_sampled_residual(p, terms, case, n_samples),
                               _symbolic_residual(p, terms, case, k))


def _sampled_residual(p, terms, case, n_samples):
    """max over the pole-free sample points of |sum of terms - p| / max(1, sum of |terms|)."""
    X, Y = sample_arrays(case, n_samples, seed=11)
    total, scale = np.zeros(X.shape), np.zeros(X.shape)
    for (i, j), c in p.coeffs.items():
        t = c * X**i * Y**j
        total, scale = total - t, scale + np.abs(t)
    pole = np.zeros(X.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for chi, f, els, g, _ in terms:
            V, bad = map(np.array, zip(*(e.rat.eval_array(X, Y) for e in els)))
            fv, fbad = (1.0, False) if f is None else f.eval_array(X, Y)
            G = g.known()
            total += chi * fv * np.sum(V * (G @ V), axis=0)
            scale += np.abs(fv) * np.sum(np.abs(V) * (np.abs(G) @ np.abs(V)), axis=0)
            pole |= bad.any(axis=0) | fbad
        r = np.abs(total) / np.maximum(1.0, scale)
    return float(np.max(r[~pole], initial=0.0))


#: the monomial x^i y^j of a residual operator is keyed i * _KEY + j
_KEY = 1 << 20


@lru_cache(maxsize=512)
def _operator(case: CurveCase, k: int, term: str):
    """Residual operator of one term (Bk, Vk or the v2 term Ri over factor i).

    COO over r <= s: entry e adds W[pair_e] * coef_e to monomial key_e, with
    W = G + G^T - diag G flattened; None when a product has no representative.
    """
    if term in ("Bk", "Vk"):
        prods = _products(case, k, term)
    else:
        fac = case.factors()[int(term[1])]
        nums = [e.rat.numerator for e in basis_Rk1(case, k).elements]
        prods = [[normal_low(u * v * fac, case).coeffs if s >= r else None
                  for s, v in enumerate(nums)] for r, u in enumerate(nums)]
    n = len(prods)
    pair, key, coef = [], [], []
    for r in range(n):
        for s in range(r, n):
            if prods[r][s] is None:
                return None
            for (i, j), c in prods[r][s].items():
                pair.append(r * n + s)
                key.append(i * _KEY + j)
                coef.append(c)
    return np.array(pair, dtype=np.intp), np.array(key, dtype=np.int64), np.array(coef)


def _symbolic_residual(p, terms, case, k):
    """max over monomials of |sum of contributions - normal_low(p)| / max(1, sum of their |.|)."""
    keys, vals = [], []
    for chi, _, _, g, term in terms:
        op = _operator(case, k, term)
        if op is None:
            return None
        pair, key, coef = op
        G = g.known()
        keys.append(key)
        vals.append(chi * (G + G.T - np.diag(np.diag(G))).ravel()[pair] * coef)
    q = normal_low(p, case).coeffs
    keys.append(np.array([i * _KEY + j for i, j in q], dtype=np.int64))
    vals.append(-np.array(list(q.values()), dtype=float))
    _, m = np.unique(np.concatenate(keys), return_inverse=True)
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

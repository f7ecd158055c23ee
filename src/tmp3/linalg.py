"""Symmetric-matrix services: PSD tests, rank, kernels, Schur complements,
and the completion interval for one unknown symmetric entry pair.

All tolerances are relative to the matrix scale.  PSD decisions go through
eigenvalues rather than Cholesky so callers can report margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MultipleUnknowns(ValueError):
    """completion_interval supports exactly one unknown symmetric pair."""


@dataclass(frozen=True)
class Tolerances:
    psd: float = 1e-10
    pd: float = 1e-8
    rank: float = 1e-9

    def replace(self, **kw):
        d = {"psd": self.psd, "pd": self.pd, "rank": self.rank}
        d.update({k: v for k, v in kw.items() if v is not None})
        return Tolerances(**d)


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Partition:
    top: tuple
    bottom: tuple


@dataclass
class SymmetricForm:
    """Real symmetric matrix labeled by basis elements.

    ``unknown`` marks one symmetric entry pair whose value is not
    determined by the data; the entries there hold NaN so that any
    accidental use poisons the result.
    """

    labels: list
    entries: np.ndarray
    unknown: tuple | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        n = self.entries.shape[0]
        assert self.entries.shape == (n, n)
        assert len(self.labels) == n
        if self.unknown is not None:
            r, c = self.unknown
            assert r != c
            self.entries[r, c] = np.nan
            self.entries[c, r] = np.nan

    @property
    def size(self):
        return self.entries.shape[0]

    def with_value(self, v):
        """Instantiate the unknown pair with v."""
        if self.unknown is None:
            raise ValueError("form has no unknown entry")
        m = self.entries.copy()
        r, c = self.unknown
        m[r, c] = m[c, r] = float(v)
        return SymmetricForm(list(self.labels), m, None)

    def known(self):
        if self.unknown is not None:
            raise ValueError("form has an uninstantiated unknown entry")
        return self.entries

    def restrict(self, indices):
        idx = list(indices)
        sub = self.entries[np.ix_(idx, idx)]
        unk = None
        if self.unknown is not None:
            r, c = self.unknown
            if r in idx and c in idx:
                unk = (idx.index(r), idx.index(c))
            sub = sub.copy()
        return SymmetricForm([self.labels[i] for i in idx], sub, unk)


def _norm(M):
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M)))


def is_psd(M, tol=None):
    M = _as_matrix(M)
    if M.size == 0:
        return True
    tol = DEFAULT_TOL.psd if tol is None else tol
    w = np.linalg.eigvalsh(M)
    return bool(w[0] >= -tol * max(1.0, _norm(M)))


def is_pd(M, tol=None):
    M = _as_matrix(M)
    if M.size == 0:
        return True
    tol = DEFAULT_TOL.pd if tol is None else tol
    w = np.linalg.eigvalsh(M)
    return bool(w[0] >= tol * _norm(M)) if _norm(M) > 0 else False


def psd_margin(M):
    """Relative smallest eigenvalue; positive means strictly inside the cone."""
    M = _as_matrix(M)
    if M.size == 0:
        return math.inf
    w = np.linalg.eigvalsh(M)
    return float(w[0] / max(1.0, _norm(M)))


def numeric_rank(M, tol=None):
    M = _as_matrix(M)
    if M.size == 0:
        return 0
    tol = DEFAULT_TOL.rank if tol is None else tol
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def kernel_basis(M, tol=None):
    """Orthonormal basis of the numerical kernel (columns)."""
    M = _as_matrix(M)
    tol = DEFAULT_TOL.rank if tol is None else tol
    if M.size == 0:
        return np.zeros((0, 0))
    w, V = np.linalg.eigh(M)
    s = np.max(np.abs(w))
    if s == 0.0:
        return np.eye(M.shape[0])
    keep = np.abs(w) <= tol * s
    return V[:, keep]


def pinv_cutoff(M, cutoff=1e-10):
    return np.linalg.pinv(M, rcond=cutoff)


def schur(M, part: Partition):
    """Generalized Schur complement M/D = A - B D^+ B^T for the partition."""
    M = _as_matrix(M)
    top = list(part.top)
    bot = list(part.bottom)
    A = M[np.ix_(top, top)]
    B = M[np.ix_(top, bot)]
    D = M[np.ix_(bot, bot)]
    if not bot:
        return A
    return A - B @ pinv_cutoff(D) @ B.T


def restrict(form: SymmetricForm, indices):
    return form.restrict(indices)


@dataclass(frozen=True)
class Interval:
    lo: float = math.nan
    hi: float = math.nan
    closed: bool = True
    empty: bool = True

    @property
    def width(self):
        return 0.0 if self.empty else self.hi - self.lo

    def midpoint(self):
        if self.empty:
            raise ValueError("empty interval")
        return 0.5 * (self.lo + self.hi)

    def contains(self, v, slack=0.0):
        return (not self.empty) and (self.lo - slack <= v <= self.hi + slack)

    def interior_points(self, n):
        """n deterministic points strictly inside the interval."""
        if self.empty:
            return []
        if self.width == 0.0:
            return [self.lo] * n
        return [self.lo + self.width * (i + 1) / (n + 1) for i in range(n)]


def completion_interval(form: SymmetricForm, mode="psd", tol=None):
    """All values of the unknown pair making the matrix psd (or pd).

    Closed form: with D the principal block avoiding the unknown rows p, q
    and a, b the known parts of those rows, M(v) is psd exactly when D is
    psd, a and b lie in the range of D (Albert), and the quadratic
    (v - c0)^2 <= s1*s2 holds, where s1 = M[p,p] - a D^+ a,
    s2 = M[q,q] - b D^+ b and c0 = a D^+ b.  The psd interval is closed
    and the pd interval open.  D is a principal submatrix of every
    completion, so by Cauchy interlacing lambda_min(M(v)) <= lambda_min(D)
    for all v: when D is not numerically pd, the pd interval is empty.
    """
    if form.unknown is None:
        raise ValueError("form has no unknown entry")
    if mode not in ("psd", "pd"):
        raise ValueError(mode)
    tols = tol or DEFAULT_TOL
    p, q = form.unknown
    n = form.size
    rest = [i for i in range(n) if i not in (p, q)]
    M = form.entries
    D = M[np.ix_(rest, rest)]
    a = M[p, rest]
    b = M[q, rest]
    A = M[p, p]
    dl = M[q, q]
    scale = max(1.0, _norm(np.nan_to_num(M)))

    if rest:
        wD = np.linalg.eigvalsh(D)
        # no completion is pd: by interlacing lambda_min(M(v)) <= lambda_min(D) for every v
        if mode == "pd" and wD[0] <= tols.pd * max(1.0, _norm(D)):
            return Interval()
        if wD[0] < -tols.psd * scale:
            return Interval()
        Dp = pinv_cutoff(D)
        # Albert range conditions for the psd case
        ra = np.linalg.norm(a - D @ (Dp @ a))
        rb = np.linalg.norm(b - D @ (Dp @ b))
        if ra > 1e-7 * scale or rb > 1e-7 * scale:
            return Interval()
        s1 = A - a @ Dp @ a
        s2 = dl - b @ Dp @ b
        c0 = a @ Dp @ b
    else:
        s1, s2, c0 = A, dl, 0.0

    eps = tols.psd * scale
    if s1 < -eps or s2 < -eps:
        return Interval()
    s1 = max(s1, 0.0)
    s2 = max(s2, 0.0)
    r = math.sqrt(s1 * s2)
    lo, hi = c0 - r, c0 + r
    if mode == "pd":
        if s1 <= eps or s2 <= eps:
            return Interval()
        return Interval(lo, hi, closed=False, empty=False)
    return Interval(lo, hi, closed=True, empty=False)


def _as_matrix(M):
    if isinstance(M, SymmetricForm):
        return M.known()
    return np.asarray(M, dtype=float)

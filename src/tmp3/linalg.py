"""Symmetric-matrix services: psd margins, rank, kernels, and Albert's
criterion for a form with one unknown symmetric entry pair.

All tolerances are relative to the matrix scale.  PSD decisions go through
eigenvalues rather than Cholesky so callers can report margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
    return float(np.abs(M).max())


def psd_margin(M):
    """Relative smallest eigenvalue; positive means strictly inside the cone."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return math.inf
    w = np.linalg.eigvalsh(M)
    return float(w[0] / max(1.0, _norm(M)))


def numeric_rank(M, tol=None):
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    tol = DEFAULT_TOL.rank if tol is None else tol
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def kernel_basis(M, tol=None):
    """Orthonormal basis of the numerical kernel (columns)."""
    M = np.asarray(M, dtype=float)
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


@dataclass(eq=False)
class Completion:
    """Albert's criterion for a form with one unknown pair (p, q).

    D is the principal block avoiding rows p and q, and a, b are the known
    parts of those rows.  M(v) is psd exactly when D is psd, a and b lie in
    the range of D, and (v - c0)^2 <= s1*s2 (``schur``).  D is decomposed
    once: its smallest eigenvalue is read here, its pseudo-inverse is taken
    on first need, and the pd and psd intervals and every Schur quantity read
    those two.  The psd interval is closed and the pd interval open.  D is a
    principal submatrix of every completion, so by Cauchy interlacing
    lambda_min(M(v)) <= lambda_min(D) for all v: when D is not numerically
    pd, the pd interval is empty and no pseudo-inverse is taken for it.
    Each record decomposes its own D, also when another record's D is equal.
    """

    D: np.ndarray
    a: np.ndarray
    b: np.ndarray
    corner: tuple  # (M[p, p], M[q, q])
    scale: float  # max(1, |M|) over the known entries
    lmin: float  # smallest eigenvalue of D (inf when D is empty)
    tol: Tolerances

    @cached_property
    def pinv(self):
        """D^+ with cutoff 1e-10."""
        return pinv_cutoff(self.D)

    @property
    def margin(self):
        """psd_margin of D."""
        return float(self.lmin / max(1.0, _norm(self.D)))

    @cached_property
    def schur(self):
        """(s1, s2, c0, |a - D D^+ a|, |b - D D^+ b|): the generalized Schur
        complement of D, s1 = M[p, p] - a D^+ a, s2 = M[q, q] - b D^+ b and
        c0 = a D^+ b, with the range residuals of a and b."""
        D, a, b, Dp = self.D, self.a, self.b, self.pinv
        return (self.corner[0] - a @ Dp @ a, self.corner[1] - b @ Dp @ b, a @ Dp @ b,
                np.linalg.norm(a - D @ (Dp @ a)), np.linalg.norm(b - D @ (Dp @ b)))

    @cached_property
    def psd(self) -> Interval:
        return self._interval(closed=True)

    @cached_property
    def pd(self) -> Interval:
        # no completion is pd: by interlacing lambda_min(M(v)) <= lambda_min(D) for every v
        if self.lmin <= self.tol.pd * max(1.0, _norm(self.D)):
            return Interval()
        return self._interval(closed=False)

    def _interval(self, closed):
        scale, eps = self.scale, self.tol.psd * self.scale
        if self.lmin < -eps:
            return Interval()
        s1, s2, c0, ra, rb = self.schur
        if max(ra, rb) > 1e-7 * scale or min(s1, s2) < -eps:
            return Interval()
        if not closed and min(s1, s2) <= eps:
            return Interval()
        r = math.sqrt(max(s1, 0.0) * max(s2, 0.0))
        return Interval(c0 - r, c0 + r, closed=closed, empty=False)


def completion_interval(form: SymmetricForm, tol=None) -> Completion:
    """The decomposition behind all values of the unknown pair of ``form`` that
    make the matrix psd (``.psd``) or pd (``.pd``): one eigvalsh of D."""
    if form.unknown is None:
        raise ValueError("form has no unknown entry")
    p, q = form.unknown
    rest = [i for i in range(form.size) if i not in (p, q)]
    M = form.entries
    D = M[np.ix_(rest, rest)]
    w = np.linalg.eigvalsh(D)
    return Completion(D, M[p, rest], M[q, rest], (M[p, p], M[q, q]),
                      max(1.0, _norm(np.nan_to_num(M))), w[0] if w.size else math.inf,
                      tol or DEFAULT_TOL)

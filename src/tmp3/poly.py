"""Polynomial and rational-function arithmetic on plane cubics.

Bivariate polynomials are kept in canonical sparse form (no explicitly
stored zero coefficients).  Equality of functions on a curve is decided
through single-head rewriting modulo the defining cubic: every canonical
case carries one distinguished monomial (the rewrite head) whose
substitution rule never increases total degree, so the normal form is
also a minimal-degree representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_COEFF_EPS = 1e-13


class PoleError(ValueError):
    """A denominator vanished at the requested parameter value."""


class UnsupportedCase(ValueError):
    """The operation is not available for this canonical case."""


class DegenerateInput(ValueError):
    """Input is identically zero or otherwise degenerate."""


class BivarPoly:
    """Sparse real polynomial in x and y, keyed by exponent pairs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                if v != 0.0:
                    c[(int(i), int(j))] = float(v)
        self.coeffs = c

    @staticmethod
    def zero():
        return BivarPoly()

    @staticmethod
    def const(v):
        return BivarPoly({(0, 0): v})

    @staticmethod
    def monomial(i, j, c=1.0):
        return BivarPoly({(i, j): c})

    @staticmethod
    def x(power=1):
        return BivarPoly({(power, 0): 1.0})

    @staticmethod
    def y(power=1):
        return BivarPoly({(0, power): 1.0})

    def is_zero(self, tol=0.0):
        if tol == 0.0:
            return not self.coeffs
        s = self.max_abs_coeff()
        return s <= tol

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.coeffs:
            return -math.inf
        return max(i + j for i, j in self.coeffs)

    def max_abs_coeff(self):
        if not self.coeffs:
            return 0.0
        return max(abs(v) for v in self.coeffs.values())

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = BivarPoly.const(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k, 0.0) + v
            if w == 0.0:
                out.pop(k, None)
            else:
                out[k] = w
        p = BivarPoly()
        p.coeffs = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = BivarPoly()
        p.coeffs = {k: -v for k, v in self.coeffs.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = BivarPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0.0:
                return BivarPoly()
            p = BivarPoly()
            p.coeffs = {k: v * other for k, v in self.coeffs.items()}
            return p
        out = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                w = out.get(k, 0.0) + v1 * v2
                if w == 0.0:
                    out.pop(k, None)
                else:
                    out[k] = w
        p = BivarPoly()
        p.coeffs = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        r = BivarPoly.const(1.0)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def eval(self, x, y):
        return sum(v * x**i * y**j for (i, j), v in self.coeffs.items())

    def chop(self, tol):
        """Drop coefficients below tol (absolute)."""
        p = BivarPoly()
        p.coeffs = {k: v for k, v in self.coeffs.items() if abs(v) > tol}
        return p

    def terms(self):
        return sorted(self.coeffs.items())

    def allclose(self, other, tol=1e-9):
        d = self - other
        s = max(self.max_abs_coeff(), other.max_abs_coeff(), 1.0)
        return d.max_abs_coeff() <= tol * s

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), v in self.terms():
            sup = ("x^%d" % i if i > 1 else "x" if i == 1 else "") + (
                "y^%d" % j if j > 1 else "y" if j == 1 else ""
            )
            parts.append(f"{v:+g}{'*' + sup if sup else ''}")
        return "".join(parts)


class UnivarPoly:
    """Dense real polynomial in one variable, coefficients by exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [float(v) for v in coeffs]
        while c and c[-1] == 0.0:
            c.pop()
        self.coeffs = c

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self):
        return not self.coeffs

    def eval(self, t):
        r = 0.0
        for v in reversed(self.coeffs):
            r = r * t + v
        return r

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = UnivarPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0.0] * (n - len(self.coeffs))
        b = other.coeffs + [0.0] * (n - len(other.coeffs))
        return UnivarPoly([u + v for u, v in zip(a, b)])

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = UnivarPoly([other])
        return self + UnivarPoly([-v for v in other.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return UnivarPoly([v * other for v in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UnivarPoly()
        return UnivarPoly(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def norm(self):
        return max((abs(v) for v in self.coeffs), default=0.0)

    def __repr__(self):
        return "UnivarPoly(%r)" % (self.coeffs,)


@dataclass(frozen=True)
class RationalElem:
    """Quotient of two bivariate polynomials, denominator not identically 0."""

    numerator: BivarPoly
    denominator: BivarPoly

    def __post_init__(self):
        if self.denominator.is_zero():
            raise ZeroDivisionError("zero denominator")

    def _denominator_at(self, x, y, tol):
        """(denominator, pole flag): a pole where |d| <= tol * (size of its terms)."""
        d = self.denominator.eval(x, y)
        scale = 1.0 + self.denominator.max_abs_coeff() * (1 + abs(x) + abs(y)) ** max(
            2, int(self.denominator.degree() if self.denominator.coeffs else 0)
        )
        return d, abs(d) <= tol * scale

    def eval(self, x, y, tol=1e-12):
        d, pole = self._denominator_at(x, y, tol)
        if pole:
            raise PoleError(f"denominator vanishes at ({x}, {y})")
        return self.numerator.eval(x, y) / d

    def eval_array(self, X, Y, tol=1e-12):
        """(values, pole mask) at arrays of points; eval raises PoleError where the mask is set."""
        d, pole = self._denominator_at(X, Y, tol)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.numerator.eval(X, Y) / d, pole


@dataclass(frozen=True)
class BasisElement:
    """One labelled basis function: a monomial, a polynomial or a quotient."""

    kind: str  # "monomial" | "rational" | "composite"
    label: str
    rat: RationalElem
    exps: tuple | None = None  # (i, j) for monomials

    @staticmethod
    def monomial(i, j):
        return BasisElement("monomial", _mono_label(i, j),
                            RationalElem(BivarPoly.monomial(i, j), BivarPoly.const(1.0)), (i, j))

    @staticmethod
    def poly(p, label):
        return BasisElement("composite", label, RationalElem(p, BivarPoly.const(1.0)))

    @staticmethod
    def rational(num, den, label):
        return BasisElement("rational", label, RationalElem(num, den))

    def eval(self, x, y):
        return self.rat.eval(x, y)


def _mono_label(i, j):
    if i == 0 and j == 0:
        return "1"
    xs = "x" if i == 1 else f"x^{i}" if i else ""
    ys = "y" if j == 1 else f"y^{j}" if j else ""
    return xs + ys


def as_rational(e):
    if isinstance(e, RationalElem):
        return e
    return RationalElem(e, BivarPoly.const(1.0))


# ---------------------------------------------------------------------------
# Rewriting modulo the curve ideal


def rewrite(p: BivarPoly, head, rhs: BivarPoly, max_steps=100000):
    """Iteratively replace every monomial divisible by ``head`` using ``rhs``.

    ``head`` is an exponent pair; one substitution replaces x^i y^j by
    x^(i-hi) y^(j-hj) * rhs.  The per-case rules never increase total
    degree, so this terminates.
    """
    hi, hj = head
    cur = dict(p.coeffs)
    steps = 0
    while True:
        div = [(i, j) for (i, j) in cur if i >= hi and j >= hj]
        if not div:
            break
        for (i, j) in div:
            v = cur.pop((i, j), 0.0)
            if v == 0.0:
                continue
            for (ri, rj), rv in rhs.coeffs.items():
                k = (i - hi + ri, j - hj + rj)
                w = cur.get(k, 0.0) + v * rv
                if w == 0.0:
                    cur.pop(k, None)
                else:
                    cur[k] = w
            steps += 1
            if steps > max_steps:
                raise RuntimeError("rewrite did not terminate")
    out = BivarPoly()
    out.coeffs = cur
    return out


def reduce_on_curve(p: BivarPoly, case) -> BivarPoly:
    """Normal form of p modulo the curve ideal, using the case's rewrite head."""
    head, rhs = case.rewrite_rule()
    q = rewrite(p, head, rhs)
    return q.chop(_COEFF_EPS * max(1.0, q.max_abs_coeff()))


def normal_low(p: BivarPoly, case) -> BivarPoly:
    """Degree-minimal normal form, used when expressing functions in moments.

    A single monomial with coefficient exactly 1 is answered from a per-case
    table filled by the same rewrite, so repeated calls return one shared
    object: no caller may change the ``coeffs`` of a result in place.
    """
    if len(p.coeffs) == 1:
        (m, v), = p.coeffs.items()
        if v == 1.0:
            return _unit_normal_low(case, m)
    return _rewrite_low(p, case)


def _rewrite_low(p, case):
    head, rhs = case.low_rewrite_rule()
    q = rewrite(p, head, rhs)
    return q.chop(_COEFF_EPS * max(1.0, q.max_abs_coeff()))


@lru_cache(maxsize=8192)
def _unit_normal_low(case, m):
    """normal_low of the monomial m = (i, j) with coefficient 1."""
    return _rewrite_low(BivarPoly({m: 1.0}), case)


def low_monomials(case, max_deg):
    """Monomials irreducible under the case's low rewrite head, up to max_deg."""
    hi, hj = case.low_rewrite_rule()[0]
    out = []
    for d in range(max_deg + 1):
        for i in range(d + 1):
            j = d - i
            if i >= hi and j >= hj:
                continue
            out.append((i, j))
    return out


def product_on_curve(u, v, f, case, k):
    """Reduced polynomial representative of f*u*v on the curve, or None.

    Returns the unique minimal-degree representative when f*u*v agrees
    with a polynomial of degree <= 2k on the curve; None marks the
    undetermined ("?") entries of the partial moment matrices.
    """
    u = as_rational(u)
    v = as_rational(v)
    f = as_rational(f)
    num = _product(u.numerator, v.numerator, f.numerator)
    den = _product(u.denominator, v.denominator, f.denominator)
    den = normal_low(den, case)
    num = normal_low(num, case)
    if num.is_zero():
        return BivarPoly.zero()
    if den.degree() == 0:
        c = den.coeffs[(0, 0)]
        res = num * (1.0 / c)
        return res if res.degree() <= 2 * k else None
    return _divide_on_curve(num, den, case, 2 * k)


_ONE = {(0, 0): 1.0}


def _product(*factors):
    """The product taken left to right, skipping factors that are exactly the
    constant 1: v * 1.0 == v and the terms keep their order, so no bit changes."""
    out = None
    for p in factors:
        if p.coeffs != _ONE:
            out = p if out is None else out * p
    return BivarPoly.const(1.0) if out is None else out


def _divide_on_curve(num, den, case, dmax):
    """Solve p*den = num modulo the curve ideal with deg p <= dmax."""
    mons, cols, idx, A = _division_columns(case, tuple(den.coeffs.items()), dmax)
    if not idx.keys() >= num.coeffs.keys():  # rare: num reaches past the columns
        idx, A = _division_matrix(cols, num.coeffs)
    b = np.zeros(len(idx))
    for m, val in num.coeffs.items():
        b[idx[m]] = val
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.linalg.norm(A @ sol - b)
    scale = max(1.0, np.linalg.norm(b))
    if resid > 1e-8 * scale:
        return None
    p = BivarPoly({m: s for m, s in zip(mons, sol)})
    return p.chop(1e-11 * max(1.0, p.max_abs_coeff()))


@lru_cache(maxsize=64)
def _division_columns(case, den_terms, dmax):
    """(mons, cols, idx, A): the columns normal_low(x^i y^j * den) over
    mons = low_monomials(case, dmax), the row index of their sorted support
    and the dense matrix they form over it.  den is given by its terms in
    order, which fix the order of every column's terms."""
    den = BivarPoly(dict(den_terms))
    mons = low_monomials(case, dmax)
    cols = tuple(normal_low(BivarPoly.monomial(i, j) * den, case) for (i, j) in mons)
    return (mons, cols, *_division_matrix(cols, ()))


def _division_matrix(cols, extra):
    """Row index of the sorted union of extra and the columns' supports, and
    the columns as a dense read-only matrix over those rows."""
    support = set(extra)
    for c in cols:
        support.update(c.coeffs)
    idx = {m: r for r, m in enumerate(sorted(support))}
    A = np.zeros((len(idx), len(cols)))
    for c_i, c in enumerate(cols):
        for m, val in c.coeffs.items():
            A[idx[m], c_i] = val
    A.flags.writeable = False
    return idx, A


# ---------------------------------------------------------------------------
# Root finding and pullbacks


def cubic_real_roots(q: UnivarPoly, tol=1e-8):
    """All real roots of a polynomial of degree 1..3, ascending.

    Roots come from companion-matrix eigenvalues; an eigenvalue counts as
    real when its imaginary part is below 1e-8*(1+|root|).
    """
    if q.is_zero():
        raise DegenerateInput("zero polynomial has no well-defined roots")
    deg = q.degree()
    if deg == 0:
        return []
    roots = np.roots(list(reversed(q.coeffs)))
    out = []
    for r in roots:
        if abs(r.imag) <= tol * (1.0 + abs(r)):
            out.append(r.real)
    out.sort()
    return out


def eval_pullback(e, case, t, component=0):
    """Value of e at the curve point reached by parameter t on a component."""
    par = case.parametrization()
    if component < 0 or component >= len(par.components):
        raise UnsupportedCase(f"component {component} out of range")
    comp = par.components[component]
    for ex in comp.excluded_t:
        if abs(t - ex) < 1e-9 * (1.0 + abs(ex)):
            raise PoleError(f"parameter {t} excluded for {case.id}")
    x = comp.x_at(t)
    y = comp.y_at(t)
    e = as_rational(e)
    return e.eval(x, y)

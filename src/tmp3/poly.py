"""Polynomial and rational-function arithmetic on plane cubics.

Bivariate polynomials are kept in canonical sparse form (no explicitly
stored zero coefficients).  Equality of functions on a curve is decided
through single-head rewriting modulo the defining cubic: every canonical
case carries one distinguished monomial (the rewrite head) whose
substitution rule never increases total degree, so the normal form is
also a minimal-degree representative.

Each case has one table of normal forms (_normal), keyed by the terms of the
exact product, and one index of it per shifted polynomial (_shifted).
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
    @lru_cache(maxsize=4096)
    def monomial(i, j):
        """The element x^i y^j, one shared object per (i, j)."""
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

    A single monomial with coefficient exactly 1 is decoded from the case's
    table (_shifted of the constant 1), so every call returns a fresh polynomial.
    """
    if len(p.coeffs) == 1:
        (m, v), = p.coeffs.items()
        if v == 1.0:
            return _decode(_shifted(case, _UNIT, m))
    return _rewrite_low(p, case)


def _rewrite_low(p, case):
    head, rhs = case.low_rewrite_rule()
    q = rewrite(p, head, rhs)
    return q.chop(_COEFF_EPS * max(1.0, q.max_abs_coeff()))


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
    e = _entry(case, k, _factor(u), _factor(v), _factor(f))
    return None if e is None else _decode(e)


_ONE = {(0, 0): 1.0}
_UNIT = (((0, 0), 1.0),)  # the terms of the constant 1
_ONE_BYTES = np.float64(1.0).tobytes()


def _product(*factors):
    """The product taken left to right, skipping factors that are exactly the
    constant 1: v * 1.0 == v and the terms keep their order, so no bit changes."""
    out = None
    for p in factors:
        if p.coeffs != _ONE:
            out = p if out is None else out * p
    return BivarPoly.const(1.0) if out is None else out


def _poly(terms):
    p = BivarPoly()
    p.coeffs = dict(terms)
    return p


def _decode(e):
    """A fresh polynomial with the terms of a table entry, in the entry's order."""
    i, j = _exps(np.frombuffer(e[0], dtype=np.intp))
    return _poly(zip(zip(i.tolist(), j.tolist()), np.frombuffer(e[1]).tolist()))


def _factor(e):
    """A polynomial or quotient as the terms of its numerator and of its denominator."""
    r = as_rational(e)
    return tuple(r.numerator.coeffs.items()), tuple(r.denominator.coeffs.items())


def _mon_index(i, j):
    """Graded index of x^i y^j: degree by degree, i ascending within a degree."""
    return (i + j) * (i + j + 1) // 2 + i


def _exps(mon):
    """The exponent arrays (i, j) of an array of graded indices (the degree
    from the square root is exact for indices far below 2^50)."""
    d = ((np.sqrt(8 * mon + 1) - 1) // 2).astype(np.intp)
    i = mon - d * (d + 1) // 2
    return i, d - i


def _rows(mon):
    """(rows, where): the distinct graded indices in mon, sorted as their
    exponent pairs (i, j), and where[g], the row of graded index g or -1.
    The last entry of where is -1, so where.take(..., mode="clip") sends
    every index past the rows there.  Sorted and deduplicated by hand: the
    first np.unique in a process imports numpy.ma."""
    rows = np.sort(mon)
    rows = rows[np.diff(rows, prepend=-1) > 0]
    i, j = _exps(rows)
    rows = rows[np.lexsort((j, i))]
    where = np.full(rows.max(initial=-1) + 2, -1, dtype=np.intp)
    where[rows] = np.arange(len(rows))
    return rows, where


def _terms(p):
    """p's graded monomial indices and coefficients, in p's order, as the
    bytes of an intp and a float array (immutable, and smaller than tuples)."""
    mon = [_mon_index(i, j) for i, j in p.coeffs]
    return (np.array(mon, dtype=np.intp).tobytes(),
            np.array(list(p.coeffs.values()), dtype=float).tobytes())


def _entry(case, k, u, v, f):
    """The terms (as _terms gives them) of f * u * v reduced on the curve, or
    None when it has no representative of degree <= 2k; each factor is given
    as _factor gives it.

    The numerator u*v*f and the denominator are taken left to right and
    reduced by normal_low (_quotient); a constant denominator c scales the
    numerator by 1/c, any other one is divided out on the curve (_divide).
    """
    num, den = _quotient(case, u, v, f)
    if not num[0]:
        return num[:2]
    if den[2] == 0:
        coef = num[1]
        if den[1] != _ONE_BYTES:  # num * (1/c); the scale 1/1.0 changes no bit
            coef = (np.frombuffer(coef) * (1.0 / float(np.frombuffer(den[1])[0]))).tobytes()
        return (num[0], coef) if num[2] <= 2 * k else None
    return _divide(case, 2 * k, num, den)


@lru_cache(maxsize=16384)
def _quotient(case, u, v, f):
    """The table entries (_normal) of the numerator and of the denominator of
    f * u * v, each the product of the factors' terms taken left to right."""
    return tuple(_normal(case, _product_terms(*terms)) for terms in zip(u, v, f))


def _product_terms(*factors):
    """The terms of _product of the polynomials with these terms."""
    factors = [t for t in factors if t != _UNIT]
    if len(factors) < 2:
        return factors[0] if factors else _UNIT
    return tuple(_product(*map(_poly, factors)).coeffs.items())


@lru_cache(maxsize=32768)
def _normal(case, terms):
    """(*_terms, degree) of normal_low of the polynomial with these terms, in
    this order: the one table of reduced polynomials of a case.

    Products of polynomials, the numerators and denominators of quotients,
    the division columns and normal_low of a unit monomial are all read from
    it, keyed by the terms of the exact product, so every k and every form
    shares an entry.
    """
    q = _rewrite_low(_poly(terms), case)
    return (*_terms(q), q.degree())


def _shifted(case, terms, m, index=None):
    """The table entry (_normal) of x^a y^b times the polynomial with these
    terms, m = (a, b): the terms shifted by m, in their order, exactly.  Read
    by the forms (f at an exponent sum), the division columns (den at (i, j))
    and normal_low (the constant 1 at (i, j)).  A caller that reads many
    shifts of one polynomial passes ``index``, _shift_index(case, terms),
    looked up once."""
    if index is None:
        index = _shift_index(case, terms)
    e = index.get(m)
    if e is None:
        a, b = m
        e = index[m] = _normal(case, tuple(((a + i, b + j), c) for (i, j), c in terms))
    return e


@lru_cache(maxsize=512)
def _shift_index(case, terms):
    """{m: _shifted(case, terms, m)}, filled as _shifted reads it."""
    return {}


@lru_cache(maxsize=4096)
def _divide(case, dmax, num, den):
    """The terms of p, deg p <= dmax, with p * den = num on the curve (table
    entries), by least squares over the division columns; None when the
    residual shows that no such p exists.  One lstsq per distinct division,
    shared by every form and every product that needs it: a single solve with
    many right-hand sides would change bits."""
    mons, rows, where, A = _division_matrix(case, den, dmax)
    mon = np.frombuffer(num[0], dtype=np.intp)
    pos = where.take(mon, mode="clip")
    if (pos < 0).any():  # rare: num reaches past the columns
        wider, where = _rows(np.concatenate((rows, mon)))
        A_wide = np.zeros((len(wider), len(mons)))
        A_wide[where[rows]] = A
        A, pos = A_wide, where[mon]
    b = np.zeros(len(A))
    b[pos] = np.frombuffer(num[1])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.linalg.norm(A @ sol - b)
    scale = max(1.0, np.linalg.norm(b))
    if resid > 1e-8 * scale:
        return None
    size = np.abs(sol)
    keep = size > 1e-11 * max(1.0, size.max(initial=0.0))
    return mons[keep].tobytes(), sol[keep].tobytes()


@lru_cache(maxsize=64)
def _division_matrix(case, den, dmax):
    """(mons, rows, where, A) of the division by the table entry den: the
    graded indices of mons = low_monomials(case, dmax), those of the support
    of the columns normal_low(x^i y^j * den) over mons in sorted (i, j) order,
    their row map (_rows), and the dense read-only matrix the columns form
    over those rows.  Each column is den's terms shifted by (i, j) (_shifted)."""
    mons = low_monomials(case, dmax)
    terms = tuple(_decode(den).coeffs.items())
    index = _shift_index(case, terms)
    cols = [_shifted(case, terms, m, index) for m in mons]
    mon = np.frombuffer(b"".join(c[0] for c in cols), dtype=np.intp)
    rows, where = _rows(mon)
    col = np.repeat(np.arange(len(cols)), [len(c[0]) // mon.itemsize for c in cols])
    A = np.zeros((len(rows), len(cols)))
    A[where[mon], col] = np.frombuffer(b"".join(c[1] for c in cols))
    A.flags.writeable = False
    return np.array([_mon_index(i, j) for i, j in mons], dtype=np.intp), rows, where, A


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

"""The catalog of the 29 canonical plane-cubic cases: one record per case.

Every per-case fact lives in the case's CaseRecord (the table _CATALOG):
parameter names and constraints, k_min, the factors of the defining cubic
and the head monomial its rewrite rules solve for, the rational
parametrization with its matching conditions (where one exists), the
positivity multiplier with its selected cubic root, the sign flag of the
reducible cases whose line and conic meet in non-real points, the sampling
data of the non-parametrized cases, the basis B_k with the rule that turns
it into the localizing space V^(k), the univariate lift of the
constructive cases and the route of their singular decisions.  Records
hold functions of the parameters, so nothing is built at import.  The
public functions here and in tmp3.bases read the record; pattern-based
normalization of general cubics closes the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .poly import (
    BasisElement,
    BivarPoly,
    RationalElem,
    UnivarPoly,
    UnsupportedCase,
    _mono_label,
    cubic_real_roots,
    normal_low,
)

CASE_IDS = tuple(f"P{i}" for i in range(1, 30))


class InvalidParams(ValueError):
    """Parameters violate the case's validity constraints."""


class NotApplicable(ValueError):
    """Operation defined only for other case families."""


class Unsupported(ValueError):
    """Cubic outside the recognized normalization patterns."""


@dataclass(frozen=True)
class AffineMap:
    """(x, y) -> (ax + by + c, dx + ey + f) with nonzero determinant."""

    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    e: float = 1.0
    f: float = 0.0

    def apply(self, x, y):
        return (self.a * x + self.b * y + self.c, self.d * x + self.e * y + self.f)

    def then(self, other: "AffineMap") -> "AffineMap":
        """Composition: apply self first, then other."""
        return AffineMap(
            other.a * self.a + other.b * self.d,
            other.a * self.b + other.b * self.e,
            other.a * self.c + other.b * self.f + other.c,
            other.d * self.a + other.e * self.d,
            other.d * self.b + other.e * self.e,
            other.d * self.c + other.e * self.f + other.f,
        )


@dataclass(frozen=True)
class ParComponent:
    """One rationally parametrized irreducible component."""

    x_num: UnivarPoly
    x_den: UnivarPoly
    y_num: UnivarPoly
    y_den: UnivarPoly
    excluded_t: tuple = ()
    factor_index: int = 0

    def x_at(self, t):
        return self.x_num.eval(t) / self.x_den.eval(t)

    def y_at(self, t):
        return self.y_num.eval(t) / self.y_den.eval(t)

    def describe(self):
        def frac(n, d):
            if d.degree() == 0 and abs(d.coeffs[0] - 1.0) < 1e-14:
                return _fmt_poly(n)
            return f"({_fmt_poly(n)})/({_fmt_poly(d)})"

        return f"({frac(self.x_num, self.x_den)}, {frac(self.y_num, self.y_den)})"


def _fmt_poly(p: UnivarPoly):
    if p.is_zero():
        return "0"
    parts = []
    for i, v in enumerate(p.coeffs):
        if v == 0.0:
            continue
        if i == 0:
            parts.append(f"{v:g}")
        elif i == 1:
            parts.append(f"{v:+g}*t")
        else:
            parts.append(f"{v:+g}*t^{i}")
    return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class Parametrization:
    components: tuple
    matching_conditions: tuple


@dataclass(frozen=True)
class Multiplier:
    """Positivity multiplier f with its defining cubic and root selection."""

    f: RationalElem
    alpha: float | None = None
    source_cubic: UnivarPoly | None = None
    selection_rule: str = "none"


@dataclass(frozen=True, kw_only=True)
class CaseRecord:
    """Every fact of one canonical case.  Hooks take the parameter dict p (or
    the case and k); a hook left at None marks a fact the case does not have."""

    id: str
    names: tuple = ()  # parameter names, in the order make_case reports them
    k_min: int = 2
    head: tuple  # rewrite head, or (high, low) for the Weierstrass forms
    factors: Callable  # p -> the irreducible factors of the defining cubic
    check: Callable = lambda p: None  # p -> message of a violated constraint
    par: Callable | None = None  # p -> Parametrization
    mult: Callable | None = None  # p -> Multiplier; None: the multiplier 1
    chi1: Callable | None = None  # p -> sign of the line factor on the conic
    xs: Callable | None = None  # (p, rng, n, spread) -> x draws on the real locus
    g: Callable | None = None  # (p, x) -> G(x), the curve being x y^2 + a y = G(x)
    bk: Callable  # (case, k) -> the elements of B_k
    vk: Callable | None = None  # (case, k, B_k elements) -> the elements of V^(k)
    lift: Callable | None = None  # (case, k, basis_Vk) -> els, nums, denom, b_drop, v_drop
    route: str = ""  # singular route: elliptic | lift | isolated | fallback
    rank_drops: tuple = (-1, -1)  # lift row the rank restrictions drop, B and V side
    lift_check: Callable = lambda p: None  # p -> (check name, root) of an extra lift check

    def validate(self, p):
        """Raise InvalidParams unless the parameters are finite and meet the constraints."""
        bad = [f"{n}={v}" for n, v in p.items() if not math.isfinite(v)]
        if bad:
            raise InvalidParams(f"{self.id} requires finite parameters, got {', '.join(bad)}")
        msg = self.check(p)
        if msg:
            raise InvalidParams(msg)


@dataclass(frozen=True)
class CurveCase:
    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.record.validate(self.params)
        # every cache lookup hashes the case, so the key and its hash are
        # built once; a pickle carries (id, params) alone (__reduce__), since
        # string hashes differ from process to process
        object.__setattr__(self, "_key", (self.id, tuple(sorted(self.params.items()))))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return CurveCase, (self.id, self.params)

    def __eq__(self, other):
        return self is other or (isinstance(other, CurveCase) and self._key == other._key)

    def key(self):
        return self._key

    @property
    def record(self) -> CaseRecord:
        return _CATALOG[self.id]

    # -- defining data ------------------------------------------------

    def defining_poly(self) -> BivarPoly:
        return reduce(BivarPoly.__mul__, self.factors())

    def factors(self):
        """Irreducible factors for reducible cases, else [defining_poly]."""
        return self.record.factors(self.params)

    def rewrite_rule(self):
        return _rewrite_rule(self, False)

    def low_rewrite_rule(self):
        return _rewrite_rule(self, True)

    @property
    def k_min(self):
        return self.record.k_min

    def is_v2(self):
        return self.record.chi1 is not None

    def is_constructive(self):
        return self.record.lift is not None

    def has_parametrization(self):
        return self.record.par is not None

    # -- delegating wrappers -------------------------------------------

    def parametrization(self):
        return parametrization(self)

    def multiplier(self):
        return multiplier(self)

    def sample_points(self, n, seed=0, spread=1.5):
        return sample_points(self, n, seed=seed, spread=spread)


def make_case(case_id: str, params=None) -> CurveCase:
    params = dict(params or {})
    if case_id not in CASE_IDS:
        raise InvalidParams(f"unknown case id {case_id!r}")
    want = _CATALOG[case_id].names
    missing = [p for p in want if p not in params]
    if missing:
        raise InvalidParams(f"{case_id} requires parameters {missing}")
    extra = [p for p in params if p not in want]
    if extra:
        raise InvalidParams(f"{case_id} does not take parameters {extra}")
    return CurveCase(case_id, {k: float(v) for k, v in params.items()})


# ---------------------------------------------------------------------------
# Building blocks of the records

_TOL = 1e-8
_X = BivarPoly.x
_Y = BivarPoly.y
_M = BivarPoly.monomial
_C = BivarPoly.const

#: rewrite heads: y^2 for reduce_on_curve and the degree-minimal x^3 for
#: normal_low on the Weierstrass forms, one head elsewhere
_WEIER, _XY2, _X3, _Y3, _X2Y = ((0, 2), (3, 0)), (1, 2), (3, 0), (0, 3), (2, 1)


def _reject(bad, msg):
    """Constraint check: msg when bad(p) holds."""
    return lambda p: msg if bad(p) else None


def _p6_check(p):
    a, d, e = p["a"], p["d"], p["e"]
    # reducible exactly when a=0,e=0 or (a != 0 and e^2 = a^2 d)
    if a == 0.0 and abs(e) <= _TOL:
        return "P6 with a=0 requires e != 0 (else reducible)"
    if a != 0.0 and abs(e * e - a * a * d) <= _TOL * max(1.0, a * a, e * e):
        return "P6 requires e^2 != a^2*d (else reducible)"
    return None


# -- parametrizations --------------------------------------------------------


def _comp(xn, xd, yn, yd, excl=(), factor=0):
    return ParComponent(
        UnivarPoly(xn), UnivarPoly(xd), UnivarPoly(yn), UnivarPoly(yd),
        tuple(excl), factor,
    )


def _one_comp(*comp, conditions):
    return Parametrization((_comp(*comp),), conditions)


def _with_line(others, conditions):
    """Parametrization of a reducible case: the line y = 0 (factor 0), then others."""
    return Parametrization((_comp([0, 1], [1], [0], [1], factor=0), *others), conditions)


def _par_p6(p):
    a, d, e = p["a"], p["d"], p["e"]
    excl = ()
    if d >= 0.0:
        r = math.sqrt(d)
        excl = (r, -r) if r > 0 else (0.0,)
    return _one_comp([e, -a], [-d, 0, 1], [0, 1], [1], excl,
                     conditions=("numerator weight condition at t^2 = d for pullbacks q/h2^i",))


def _par_p14(p):
    a = p["a"]
    conic = _comp([a / 2, 0, -a / 2], [1, 0, 1], [-a / 2, -a, -a / 2], [1, 0, 1], factor=1)
    return _with_line((conic,), ("f(0) = g(-1)", "f'(0) = 2*g'(-1)/a"))


def _par_p15(p):
    a = p["a"]
    r = math.sqrt(a * a / 4.0 - 1.0)
    conic = _comp([0, 2 * r], [1, 0, 1], [-r - a / 2, 0, r - a / 2], [1, 0, 1], factor=1)
    return _with_line(
        (conic,), ("f(i) = g(t0) at the non-real intersection (not evaluated numerically)",))


def _par_p16(p):
    a = p["a"]
    r = math.sqrt(1.0 + a * a / 4.0)
    conic = _comp([0, 2 * r], [1, 0, 1], [-r + a / 2, 0, r + a / 2], [1, 0, 1], factor=1)
    tm = 0.5 * (a - math.sqrt(4.0 + a * a))
    tp = 0.5 * (-a + math.sqrt(4.0 + a * a))
    return _with_line(
        (conic,), (f"f(-1) = g(t-) with t- = {tm:.12g}", f"f(1) = g(t+) with t+ = {tp:.12g}"))


def _par_p24(p):
    a = p["a"]
    r = math.sqrt(1.0 + a * a / 4.0)
    conic = _comp([0, 2 * r], [-1, 0, 1], [r - a / 2, 0, r + a / 2], [-1, 0, 1],
                  (1.0, -1.0), factor=1)
    return _with_line(
        (conic,), ("f(i) = g(t0) at the non-real intersection (not evaluated numerically)",))


# -- multipliers ---------------------------------------------------------------


def _mult_p7(p):
    a, d, e = p["a"], p["d"], p["e"]
    q = UnivarPoly([a * a / 4.0, e, d, 1.0])
    alpha = cubic_real_roots(q)[0]
    return Multiplier(RationalElem(_X() - _C(alpha), _C(1.0)), alpha, q, "smallest")


def _mult_xy2(sgn):
    """Multiplier of P8 (sgn 1) and P9 (sgn -1)."""

    def mult(p):
        c, d, e = p["c"], p["d"], p["e"]
        one = BivarPoly.const(1.0)
        q = UnivarPoly([sgn, c, d, e])
        roots = cubic_real_roots(q)
        rule = "smallest" if e > 0 else "largest"
        alpha = roots[0] if e > 0 else roots[-1]
        # (e/|e|)(1/x - alpha) = (1/|e|)(y^2 -+ x^2 - c x - d)(1 - alpha*x) on C
        quad = _M(0, 2) - _M(2, 0, sgn) - _M(1, 0, c) - _C(d)
        fpoly = quad * (one - _M(1, 0, alpha)) * (1.0 / abs(e))
        return Multiplier(RationalElem(fpoly, one), alpha, q, rule)

    return mult


def _mult_newton(cubic, sgn):
    """Multiplier of P10 (sgn -1) and P11 (sgn 1); cubic(a, c, d, e) selects alpha."""

    def mult(p):
        a, c, d, e = p["a"], p["c"], p["d"], p["e"]
        q = cubic(a, c, d, e)
        alpha = cubic_real_roots(q)[0]
        fpoly = _M(0, 2) + _M(2, 0, sgn) - _M(1, 0, c) - _C(alpha)
        return Multiplier(RationalElem(fpoly, BivarPoly.const(1.0)), alpha, q, "smallest")

    return mult


# -- sampling the non-parametrized cases ---------------------------------------


def _xs_p1(p, rng, n, spread):
    a, b = p["a"], p["b"]
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            out.append(float(rng.uniform(1e-3, a - 1e-3)))
        else:
            out.append(float(rng.uniform(b + 1e-3, b + spread)))
    return out


def _g_x3(sgn):
    """G of P8/P10 (sgn 1) and P9/P11 (sgn -1)."""
    if sgn > 0:
        return lambda p, x: x**3 + p["c"] * x * x + p["d"] * x + p["e"]
    return lambda p, x: -(x**3) + p["c"] * x * x + p["d"] * x + p["e"]


# -- B_k: monomial patterns and composite elements ------------------------------


def _monos(pattern):
    """B_k hook: the monomials pattern(k)."""
    return lambda case, k: [BasisElement.monomial(i, j) for i, j in pattern(k)]


def _graded(per_degree):
    """The pattern 1, x, y, then the three exponent pairs per_degree(d) for d = 2..k."""
    return lambda k: [(0, 0), (1, 0), (0, 1)] + [e for d in range(2, k + 1) for e in per_degree(d)]


_pattern_weier = _graded(lambda d: ((2, d - 2), (1, d - 1), (0, d)))
_pattern_xxy = _graded(lambda d: ((d, 0), (d - 1, 1), (0, d)))
_pattern_xmajor = _graded(lambda d: ((d, 0), (d - 1, 1), (d - 2, 2)))
_pattern_ymajor = _graded(lambda d: ((d, 0), (1, d - 1), (0, d)))


def _pattern_xcol(k):
    """x^k, x^(k-1), x^(k-1)y, ..., x, xy, 1, y, ..., y^k  (rational type 1)."""
    out = [(k, 0)]
    for j in range(k - 1, 0, -1):
        out += [(j, 0), (j, 1)]
    out.append((0, 0))
    out += [(0, j) for j in range(1, k + 1)]
    return out


def _pattern_p17(k):
    pairs = [(0, 0)] + [(i, 0) for i in range(1, k + 1)]
    pairs += [(0, j) for j in range(1, k + 1)]
    pairs += [(1, j) for j in range(1, k)]
    return pairs


def _pattern_p18(k):
    pairs = [(0, 0)] + [(i, 0) for i in range(1, k + 1)]
    for j in range(0, k - 1):
        pairs += [(j, 1), (j, 2)]
    pairs.append((k - 1, 1))
    return pairs


def _shifted_x_elements(k):
    """1, x+1, x^2-1, x(x^2-1), ..., x^(k-2)(x^2-1)."""
    els = [
        BasisElement.monomial(0, 0),
        BasisElement.poly(_M(1, 0) + _C(1.0), "x+1"),
    ]
    for j in range(2, k + 1):
        els.append(
            BasisElement.poly(_M(j, 0) - _M(j - 2, 0), f"x^{j}-x^{j-2}" if j > 2 else "x^2-1")
        )
    return els


def _bk_p16(case, k):
    """_shifted_x_elements, then yx^j (j < k), y^2x^j (j < k-1)."""
    els = _shifted_x_elements(k)
    for j in range(0, k):
        els.append(BasisElement.monomial(j, 1))
    for j in range(0, k - 1):
        els.append(BasisElement.monomial(j, 2))
    return els


def _bk_p20(case, k):
    els = _shifted_x_elements(k)
    for j in range(1, k):
        els += [BasisElement.monomial(0, j), BasisElement.monomial(1, j)]
    els.append(BasisElement.monomial(0, k))
    return els


def _chain(sign, shift):
    """B_k of the nodal / isolated-point cases: preimages of 1, t^j -+ t^(j-2).

    P4: x = t^2, y = t^3 - t (shift 0);  P5: x = t^2 + 1, y = t^3 + t (shift -1).
    """

    def bk(case, k):
        els = [BasisElement.monomial(0, 0)]
        for j in range(2, 3 * k + 1):
            els.append(_chain_element(case, j, sign, shift))
        return els

    return bk


def _chain_element(case, j, sign, shift):
    """Polynomial function pulling back to t^j + sign*t^(j-2)."""
    base = _M(1, 0) + _C(shift)  # pulls back to t^2
    if j % 2 == 0:
        p = base ** (j // 2) + sign * base ** (j // 2 - 1)
    else:
        p = base ** ((j - 3) // 2) * _M(0, 1)
    p = normal_low(p, case)
    lbl = f"[t^{j}{'-' if sign < 0 else '+'}t^{j-2}]"
    return BasisElement.poly(p, lbl)


# -- V^(k): the B_k element each case replaces, or its own rule ----------------


def _v_first(new):
    """V^(k): new(case, k) in place of the first element of B_k."""
    return lambda case, k, bk: [new(case, k)] + list(bk[1:])


def _v_at(var, new):
    """V^(k): new(case, k) in place of the B_k monomial x^k (var "x") or y^k."""

    def rule(case, k, bk):
        h, at = new(case, k), (k, 0) if var == "x" else (0, k)
        return [h if e.exps == at else e for e in bk]

    return rule


def _rat(num, den, label):
    """Element hook of the fixed quotient num/den."""
    return lambda case, k: BasisElement.rational(num(), den(), label)


_Y_OVER_X = _rat(_Y, _X, "y/x")


def _v_elliptic(case, k, bk):
    return [bk[0], _Y_OVER_X(case, k)] + [e for e in bk[1:] if e.exps != (0, k)]


def _v_newton_partial(case, k, bk):
    return [e for e in bk if e.exps != (0, k)]


def _v_p7(case, k):
    # the multiplier pole sits over the x-direction: x^k leaves, r7 enters
    mult = multiplier(case)
    num = _M(1, 1, 2.0) + _C(case.params["a"])
    den = _M(1, 0) - _C(mult.alpha)
    return BasisElement.rational(num, den, "(2xy+a)/(x-alpha)")


def _v_xy2(case, k):
    mult = multiplier(case)
    return BasisElement.rational(_M(1, 1), _C(1.0) - _M(1, 0, mult.alpha), "xy/(1-alpha*x)")


def _v_p12(case, k):
    g = normal_low(_M(2 * k, 0), case)
    return BasisElement.poly(_M(0, k) - 2.0 * g, f"y^{k}-2g")


def _v_p29(case, k, bk):
    # the sign-flipped matching at the intersection point (0, 1) forces
    # every companion element to vanish there
    num = _M(3, 0) - _M(1, 0) + _M(0, 1) + _M(1, 1) - _M(0, 2)
    els = [BasisElement.rational(num, _M(1, 0), "(x^3-x+y+xy-y^2)/x")]
    for e in bk[1:]:
        v = e.rat.numerator.eval(0.0, 1.0)
        if v == 0.0:
            els.append(e)
        else:
            els.append(BasisElement.poly(e.rat.numerator - _C(v), f"{e.label}-{v:g}"))
    return els


def _v_conic(num, label):
    """V^(k) element num(a)/(1+x) of P16, P25 (a the conic parameter)."""
    return _v_first(lambda case, k: BasisElement.rational(
        num(case.params["a"]), _M(1, 0) + _C(1.0), label))


# -- univariate lifts of the constructive cases ----------------------------------


def _tpow(n):
    return UnivarPoly([0.0] * n + [1.0])


def _upow(p: UnivarPoly, n: int) -> UnivarPoly:
    r = UnivarPoly([1.0])
    for _ in range(n):
        r = r * p
    return r


def _lift_powers(element, drops):
    """Lift of P3 / P13: element(w) pulls back to t^w, w = 0..3k; drops(k) = (b_drop, v_drop)."""

    def lift(case, k, basis_Vk):
        els, nums = [], []
        for w in range(0, 3 * k + 1):
            nums.append(_tpow(w))
            els.append(element(w))
        return els, nums, UnivarPoly([1.0]), *drops(k)

    return lift


def _mono_of_deg_c(d):
    """The unique monomial x^i y^j with i <= 2 and curve degree 2i + 3j = d (d != 1)."""
    i = (0, 2, 1)[d % 3]
    return i, (d - 2 * i) // 3


def _p3_lift_element(w):
    if w == 1:
        return BasisElement.rational(_M(0, 1), _M(1, 0), "y/x")
    return BasisElement.monomial(*_mono_of_deg_c(w))


def _lift_chain(sign):
    """Lift of P4 / P5: 1, then V^(k) -- the rational element over t and the chain."""

    def lift(case, k, basis_Vk):
        one = UnivarPoly([1.0])
        els = [BasisElement.monomial(0, 0)] + list(basis_Vk(case, k).elements)
        nums = [one, UnivarPoly([0.0, 1.0])] + [
            _tpow(j) + sign * _tpow(j - 2) for j in range(2, 3 * k + 1)]
        return els, nums, one, 1, 0

    return lift


def _lift_p6(case, k, basis_Vk):
    a, d, e = case.params["a"], case.params["d"], case.params["e"]
    T = UnivarPoly([0.0, 1.0])
    h1 = UnivarPoly([e, -a])
    h2 = UnivarPoly([-d, 0.0, 1.0])
    els = [BasisElement.monomial(k, 0), BasisElement.monomial(k, 1)]
    nums = [_upow(h1, k), _upow(h1, k) * T]
    for j in range(k - 1, 0, -1):
        els += [BasisElement.monomial(j, 0), BasisElement.monomial(j, 1)]
        base = _upow(h1, j) * _upow(h2, k - j)
        nums += [base, base * T]
    els.append(BasisElement.monomial(0, 0))
    nums.append(_upow(h2, k))
    for j in range(1, k + 1):
        els.append(BasisElement.monomial(0, j))
        nums.append(_upow(h2, k) * _tpow(j))
    return els, nums, h2, 1, 0


def _lift_p12(case, k, basis_Vk):
    c2, c1, c0 = case.params["c2"], case.params["c1"], case.params["c0"]
    c = UnivarPoly([c0, c1, c2, 1.0])
    els = [BasisElement.monomial(0, k), _v_p12(case, k)]
    nums = [_upow(c, k), _upow(c, k) - 2.0 * _tpow(3 * k)]
    for j in range(k - 1, 0, -1):
        els.append(BasisElement.monomial(0, j))
        nums.append(_upow(c, j) * _tpow(k - j))
    els.append(BasisElement.monomial(0, 0))
    nums.append(_tpow(k))
    for i in range(1, 2 * k):
        els.append(BasisElement.poly(normal_low(_M(i, 0), case), _mono_label(i, 0)))
        nums.append(_tpow(k + i))
    return els, nums, UnivarPoly([0.0, 1.0]), 1, 0


def _p6_lift_check(p):
    """The d-dependent singular check of P6: at d = 0 the rank restriction that
    also drops x^k, for d > 0 avoidance of the excluded parameters +-sqrt(d)."""
    d = p["d"]
    if d == 0.0:
        return "rank_restriction_drop_xk", None
    if d > 0.0:
        return "root_avoidance_sqrt_d", math.sqrt(d)
    return None


# ---------------------------------------------------------------------------
# The catalog

_R = CaseRecord

_CATALOG = {r.id: r for r in (
    _R(id="P1", names=("a", "b"), head=_WEIER,
       factors=lambda p: [_M(0, 2) - _M(3, 0) + _M(2, 0, p["a"] + p["b"])
                          - _M(1, 0, p["a"] * p["b"])],
       check=_reject(lambda p: not (0.0 < p["a"] < p["b"]), "P1 requires 0 < a < b"),
       mult=lambda p: Multiplier(RationalElem(_X(), _C(1.0))), xs=_xs_p1,
       bk=_monos(_pattern_weier), vk=_v_elliptic, route="elliptic"),
    _R(id="P2", names=("c",), head=_WEIER,
       factors=lambda p: [_M(0, 2) - _M(3, 0) - _M(1, 0, p["c"] * p["c"])],
       check=_reject(lambda p: p["c"] == 0.0, "P2 requires c != 0"),
       mult=lambda p: Multiplier(RationalElem(_X(), _C(1.0))),
       xs=lambda p, rng, n, spread: [float(rng.uniform(1e-3, 2 * spread)) for _ in range(n)],
       bk=_monos(_pattern_weier), vk=_v_elliptic, route="elliptic"),
    _R(id="P3", head=_WEIER, factors=lambda p: [_M(0, 2) - _M(3, 0)],
       par=lambda p: _one_comp([0, 0, 1], [1], [0, 0, 0, 1], [1], conditions=(
           "s'(0) = 0 for pullbacks s of polynomial functions",)),
       bk=_monos(_pattern_weier), vk=_v_first(_Y_OVER_X),
       lift=_lift_powers(_p3_lift_element, lambda k: (1, 0)), route="fallback"),
    _R(id="P4", head=_WEIER, factors=lambda p: [_M(0, 2) - _M(3, 0) + _M(2, 0, 2.0) - _M(1, 0)],
       par=lambda p: _one_comp([0, 0, 1], [1], [0, -1, 0, 1], [1], conditions=(
           "s(1) = s(-1) for pullbacks s of polynomial functions",)),
       bk=_chain(-1.0, 0.0), vk=_v_first(_rat(_Y, lambda: _M(1, 0) - _C(1.0), "y/(x-1)")),
       lift=_lift_chain(-1.0), route="lift"),
    _R(id="P5", head=_WEIER, factors=lambda p: [_M(0, 2) - _M(3, 0) + _M(2, 0)],
       par=lambda p: _one_comp([1, 0, 1], [1], [0, 1, 0, 1], [1], conditions=(
           "s(i) = s(-i) for pullbacks s; the isolated origin is not reached",)),
       bk=_chain(1.0, -1.0), vk=_v_first(_Y_OVER_X), lift=_lift_chain(1.0), route="isolated"),
    _R(id="P6", names=("a", "d", "e"), k_min=1, head=_XY2,
       factors=lambda p: [_M(1, 2) + _M(0, 1, p["a"]) - _M(1, 0, p["d"]) - _C(p["e"])],
       check=_p6_check, par=_par_p6, bk=_monos(_pattern_xcol),
       vk=_v_first(lambda case, k: BasisElement.monomial(k, 1)),
       lift=_lift_p6, route="lift", lift_check=_p6_lift_check),
    _R(id="P7", names=("a", "d", "e"), head=_XY2,
       factors=lambda p: [_M(1, 2) + _M(0, 1, p["a"]) - _M(2, 0) - _M(1, 0, p["d"]) - _C(p["e"])],
       mult=_mult_p7, g=lambda p, x: x * x + p["d"] * x + p["e"],
       bk=_monos(_pattern_xxy), vk=_v_at("x", _v_p7)),
    _R(id="P8", names=("c", "d", "e"), head=_XY2,
       factors=lambda p: [_M(1, 2) - _M(3, 0) - _M(2, 0, p["c"]) - _M(1, 0, p["d"]) - _C(p["e"])],
       check=_reject(lambda p: p["e"] == 0.0, "P8 requires e != 0"),
       mult=_mult_xy2(1.0), g=_g_x3(1), bk=_monos(_pattern_xxy), vk=_v_at("y", _v_xy2)),
    _R(id="P9", names=("c", "d", "e"), head=_XY2,
       factors=lambda p: [_M(1, 2) + _M(3, 0) - _M(2, 0, p["c"]) - _M(1, 0, p["d"]) - _C(p["e"])],
       check=_reject(lambda p: p["e"] == 0.0, "P9 requires e != 0"),
       mult=_mult_xy2(-1.0), g=_g_x3(-1), bk=_monos(_pattern_xxy), vk=_v_at("y", _v_xy2)),
    _R(id="P10", names=("a", "c", "d", "e"), head=_XY2,
       factors=lambda p: [_M(1, 2) + _M(0, 1, p["a"]) - _M(3, 0) - _M(2, 0, p["c"])
                          - _M(1, 0, p["d"]) - _C(p["e"])],
       check=_reject(lambda p: p["a"] == 0.0 or p["e"] == 0.0,
                     "P10 requires a != 0 and e != 0"),
       mult=_mult_newton(lambda a, c, d, e: UnivarPoly(
           [a * a * c * c / 4.0 - c * d * e + e * e, d * d - a * a + c * e, -2 * d, 1.0]), -1.0),
       g=_g_x3(1), bk=_monos(_pattern_xxy), vk=_v_newton_partial),
    _R(id="P11", names=("a", "c", "d", "e"), head=_XY2,
       factors=lambda p: [_M(1, 2) + _M(0, 1, p["a"]) + _M(3, 0) - _M(2, 0, p["c"])
                          - _M(1, 0, p["d"]) - _C(p["e"])],
       check=_reject(lambda p: p["a"] == 0.0 or p["e"] == 0.0,
                     "P11 requires a != 0 and e != 0"),
       mult=_mult_newton(lambda a, c, d, e: UnivarPoly(
           [a * a * c * c / 4.0 - c * d * e - e * e, d * d + a * a + c * e, -2 * d, 1.0]), 1.0),
       g=_g_x3(-1), bk=_monos(_pattern_xxy), vk=_v_newton_partial),
    _R(id="P12", names=("c2", "c1", "c0"), head=_X3,
       factors=lambda p: [_M(1, 1) - _M(3, 0) - _M(2, 0, p["c2"]) - _M(1, 0, p["c1"])
                          - _C(p["c0"])],
       check=_reject(lambda p: abs(p["c0"]) <= _TOL, "P12 requires c(0) != 0 (else reducible)"),
       par=lambda p: _one_comp([0, 1], [1], [p["c0"], p["c1"], p["c2"], 1], [0, 1], (0.0,),
                               conditions=("p_0 = p_{3i} * c0^i for pullbacks p/t^i",)),
       bk=_monos(_pattern_weier), vk=_v_at("y", _v_p12), lift=_lift_p12, route="lift",
       rank_drops=(0, 1)),  # the top q-element resp. the top tilde element
    _R(id="P13", head=_X3, factors=lambda p: [_Y() - _M(3, 0)],
       par=lambda p: _one_comp([0, 1], [1], [0, 0, 0, 1], [1], conditions=(
           "coefficient of t^{3i-1} vanishes for degree-i pullbacks",)),
       bk=_monos(_pattern_weier), vk=_v_at("y", lambda case, k: BasisElement.monomial(2, k - 1)),
       lift=_lift_powers(lambda w: BasisElement.monomial(w % 3, w // 3),
                         lambda k: (3 * k - 1, 3 * k)), route="fallback"),
    _R(id="P14", names=("a",), head=_Y3,
       factors=lambda p: [_Y(), _M(0, 1, p["a"]) + _M(2, 0) + _M(0, 2)],
       check=_reject(lambda p: p["a"] == 0.0, "P14 requires a != 0"),
       par=_par_p14, bk=_monos(_pattern_xmajor),
       vk=_v_first(lambda case, k: BasisElement.rational(
           _M(0, 1, case.params["a"]) + _M(2, 0) + _M(0, 2), _M(1, 0), "(ay+x^2+y^2)/x"))),
    _R(id="P15", names=("a",), head=_X2Y,
       factors=lambda p: [_Y(), _C(1.0) + _M(0, 1, p["a"]) + _M(2, 0) + _M(0, 2)],
       check=_reject(lambda p: not abs(p["a"]) > 2.0, "P15 requires |a|>2"),
       par=_par_p15, chi1=lambda p: -1 if p["a"] > 0 else 1, bk=_monos(_pattern_ymajor)),
    _R(id="P16", names=("a",), head=_X2Y,
       factors=lambda p: [_Y(), _C(1.0) + _M(0, 1, p["a"]) - _M(2, 0) - _M(0, 2)],
       par=_par_p16, bk=_bk_p16,
       vk=_v_conic(lambda a: _C(-1.0) + _M(0, 1, -2 * a) + _M(2, 0) + _M(0, 2, 2.0),
                   "(-1-2ay+x^2+2y^2)/(1+x)")),
    _R(id="P17", k_min=1, head=_X2Y, factors=lambda p: [_Y(), _M(2, 0) - _Y()],
       par=lambda p: _with_line((_comp([0, 1], [1], [0, 0, 1], [1], factor=1),),
                                ("f(0) = g(0)", "f'(0) = g'(0)")),
       bk=_monos(_pattern_p17), vk=_v_first(_Y_OVER_X)),
    _R(id="P18", head=_Y3, factors=lambda p: [_Y(), _X() - _M(0, 2)],
       par=lambda p: _with_line((_comp([0, 0, 1], [1], [0, 1], [1], factor=1),),
                                ("f(0) = g(0)", "f_i = g_{2i}")),
       bk=_monos(_pattern_p18), vk=_v_at("x", lambda case, k: BasisElement.poly(
           _M(k, 0) - _M(k - 1, 2, 2.0), f"x^{k}-2x^{k-1}y^2"))),
    _R(id="P19", head=_X2Y, factors=lambda p: [_Y(), _C(1.0) + _Y() + _M(2, 0)],
       par=lambda p: _with_line((_comp([0, 1], [1], [-1, 0, -1], [1], factor=1),), (
           "f(i) = g(i) at the non-real intersection (not evaluated numerically)",)),
       chi1=lambda p: -1, bk=_monos(_pattern_ymajor)),
    _R(id="P20", head=_X2Y, factors=lambda p: [_Y(), _C(1.0) + _Y() - _M(2, 0)],
       par=lambda p: _with_line((_comp([0, 1], [1], [-1, 0, 1], [1], factor=1),),
                                ("f(-1) = g(-1)", "f(1) = g(1)")),
       bk=_bk_p20, vk=_v_first(_rat(lambda: _C(-1.0) + _M(0, 1, -2.0) + _M(2, 0),
                                    lambda: _M(1, 0) + _C(1.0), "(-1-2y+x^2)/(1+x)"))),
    _R(id="P21", k_min=1, head=_XY2, factors=lambda p: [_Y(), _C(1.0) - _M(1, 1)],
       par=lambda p: _with_line((_comp([0, 1], [1], [1], [0, 1], (0.0,), factor=1),),
                                ("f_{i-1} = g_{i-1}", "f_i = g_i")),
       bk=_monos(_pattern_xxy), vk=_v_at("x", lambda case, k: BasisElement.monomial(k, 1))),
    _R(id="P22", names=("a",), k_min=1, head=_XY2,
       factors=lambda p: [_Y(), _X() + _Y() + _M(1, 1, p["a"])],
       check=_reject(lambda p: p["a"] == 0.0, "P22 requires a != 0"),
       par=lambda p: _with_line(
           (_comp([0, 1], [1], [0, -1], [1, p["a"]], (-1.0 / p["a"],), factor=1),),
           ("f(0) = g(0)", "f_i = g_{2i}/a^i")),
       bk=_monos(_pattern_xxy), vk=_v_at("x", lambda case, k: BasisElement.poly(
           _M(k, 0) + _M(k - 1, 1, 2.0) + _M(k, 1, 2.0 * case.params["a"]),
           f"x^{k}+2yx^{k-1}(1+ax)"))),
    _R(id="P23", names=("a",), head=_Y3,
       factors=lambda p: [_Y(), _M(0, 1, p["a"]) + _M(2, 0) - _M(0, 2)],
       check=_reject(lambda p: p["a"] == 0.0, "P23 requires a != 0"),
       par=lambda p: _with_line(
           (_comp([0, p["a"]], [-1, 0, 1], [0, 0, p["a"]], [-1, 0, 1], (1.0, -1.0), factor=1),),
           ("f(0) = g(0)", "f'(0) = -g'(0)/a")),
       bk=_monos(_pattern_xmajor),
       vk=_v_first(lambda case, k: BasisElement.rational(
           _M(0, 1, case.params["a"]) + _M(2, 0) - _M(0, 2), _M(1, 0), "(ay+x^2-y^2)/x"))),
    _R(id="P24", names=("a",), head=_X2Y,
       factors=lambda p: [_Y(), _C(1.0) + _M(0, 1, p["a"]) + _M(2, 0) - _M(0, 2)],
       check=_reject(lambda p: abs(abs(p["a"]) - 2.0) <= _TOL, "P24 requires |a| != 2"),
       par=_par_p24, chi1=lambda p: 0, bk=_monos(_pattern_ymajor)),
    _R(id="P25", names=("a",), head=_X2Y,
       factors=lambda p: [_Y(), _C(1.0) + _M(0, 1, p["a"]) - _M(2, 0) + _M(0, 2)],
       check=_reject(lambda p: abs(abs(p["a"]) - 2.0) <= _TOL,
                     "P25 requires |a| != 2 (conic irreducible)"),
       par=lambda p: _with_line(
           (_comp([1, p["a"], 1], [p["a"], 2], [-1, 0, 1], [p["a"], 2], (-p["a"] / 2.0,),
                  factor=1),),
           ("f(-1) = g(-1)", "f(1) = g(1)")),
       bk=_bk_p16,
       vk=_v_conic(lambda a: _C(-1.0) + _M(0, 1, -2 * a) + _M(2, 0) + _M(0, 2, -2.0),
                   "(-1-2ay+x^2-2y^2)/(1+x)")),
    _R(id="P26", names=("a", "b"), head=_Y3,
       factors=lambda p: [_Y(), _C(p["a"]) + _Y(), _C(p["b"]) + _Y()],
       check=_reject(lambda p: p["a"] == 0.0 or p["b"] == 0.0 or p["a"] == p["b"],
                     "P26 requires a != 0, b != 0, a != b"),
       par=lambda p: _with_line(
           (_comp([0, 1], [1], [-p["a"]], [1], factor=1),
            _comp([0, 1], [1], [-p["b"]], [1], factor=2)),
           ("f_i = g_i = h_i", "b*(g_{i-1} - f_{i-1}) = a*(h_{i-1} - f_{i-1})")),
       bk=_monos(_pattern_xmajor), vk=_v_at("x", lambda case, k: BasisElement.poly(
           (_M(0, 2) + _M(0, 1, case.params["a"])) * _M(k - 1, 0), f"y(y+a)x^{k-1}"))),
    _R(id="P27", k_min=1, head=_X2Y, factors=lambda p: [_Y(), _X() - _Y(), _X() + _Y()],
       par=lambda p: _with_line(
           (_comp([0, 1], [1], [0, 1], [1], factor=1),
            _comp([0, 1], [1], [0, -1], [1], factor=2)),
           ("f(0) = g(0) = h(0)", "g'(0) - f'(0) = f'(0) - h'(0)")),
       bk=_monos(_pattern_ymajor),
       vk=_v_first(_rat(lambda: _M(2, 0) - _M(0, 2), _X, "(x^2-y^2)/x"))),
    _R(id="P28", k_min=1, head=_XY2, factors=lambda p: [_Y(), _X(), _Y() + _C(1.0)],
       par=lambda p: _with_line(
           (_comp([0, 1], [1], [-1], [1], factor=2), _comp([0], [1], [0, 1], [1], factor=1)),
           ("f(0) = h(0)", "g(0) = h(-1)", "f_i = g_i")),
       bk=_monos(_pattern_xxy), vk=_v_at("x", lambda case, k: BasisElement.poly(
           _M(k, 0) + _M(k, 1, 2.0), f"x^{k}(1+2y)"))),
    _R(id="P29", head=_Y3,
       factors=lambda p: [_Y(), _C(1.0) + _X() - _Y(), _C(1.0) - _X() - _Y()],
       par=lambda p: _with_line(
           (_comp([0, 1], [1], [1, 1], [1], factor=1),
            _comp([0, 1], [1], [1, -1], [1], factor=2)),
           ("f(-1) = g(-1)", "f(1) = h(1)", "g(0) = h(0)")),
       bk=_monos(_pattern_xmajor), vk=_v_p29),
)}


# ---------------------------------------------------------------------------
# Readers of the record


@lru_cache(maxsize=512)
def _rewrite_rule(case, low):
    """(head, rhs) with head = rhs on the curve: the defining cubic solved for head.

    Cached per case (CurveCase hashes and compares by its key).
    """
    head = case.record.head
    if isinstance(head[0], tuple):
        head = head[1 if low else 0]
    P = case.defining_poly()
    c = P.coeffs[head]
    return head, BivarPoly({m: -v / c for m, v in P.coeffs.items() if m != head})


def parametrization(case: CurveCase) -> Parametrization:
    if not case.has_parametrization():
        raise UnsupportedCase(f"{case.id} has no rational parametrization")
    return case.record.par(case.params)


def multiplier(case: CurveCase) -> Multiplier:
    build = case.record.mult
    if build is None:
        one = BivarPoly.const(1.0)
        return Multiplier(RationalElem(one, one))
    return build(case.params)


def chi_flags(case: CurveCase):
    """(chi1, chi2): signs of the line factor on the conic and vice versa.

    On the line y = 0 every conic factor equals 1 + x^2 > 0, so chi2 = 1.
    On the P15 ellipse x^2 + (y + a/2)^2 = a^2/4 - 1 (|a| > 2) y has the
    sign of -a; on the P19 conic y = -1 - x^2 < 0; the two y-roots of the
    P24 hyperbola multiply to -(1 + x^2), so y takes both signs there.
    """
    if not case.is_v2():
        raise NotApplicable(f"chi flags undefined for {case.id}")
    return case.record.chi1(case.params), 1


# ---------------------------------------------------------------------------
# On-curve sampling


def sample_points(case: CurveCase, n, seed=0, spread=1.5):
    """n points (x, y, component) on the real curve, poles avoided."""
    rng = np.random.default_rng(seed)
    pts = []
    if case.has_parametrization():
        comps = parametrization(case).components
        ci = 0
        while len(pts) < n:
            comp = comps[ci % len(comps)]
            t = float(rng.uniform(-spread, spread))
            if any(abs(t - ex) < 0.25 for ex in comp.excluded_t):
                continue
            if abs(comp.x_den.eval(t)) < 1e-3 or abs(comp.y_den.eval(t)) < 1e-3:
                continue
            pts.append((comp.x_at(t), comp.y_at(t), ci % len(comps)))
            ci += 1
        return pts
    # solve for y on a scanned x-range
    P = case.defining_poly()
    xs = _real_locus_xs(case, rng, 2 * n + 8, spread)
    for x in xs:
        ys = _solve_y(case, x)
        if not ys:
            continue
        y = ys[rng.integers(0, len(ys))]
        pts.append((x, float(y), 0))
        if len(pts) >= n:
            break
    if len(pts) < n:
        raise UnsupportedCase(f"could not sample {n} points on {case.id}")
    if not all(
        abs(P.eval(x, y)) < 1e-8 * max(1.0, P.max_abs_coeff() * (1 + abs(x) + abs(y)) ** 3)
        for x, y, _ in pts
    ):
        raise UnsupportedCase(f"sampled points are off {case.id} to working precision")
    return pts


@lru_cache(maxsize=256)
def sample_arrays(case: CurveCase, n, seed=0):
    """Coordinates of sample_points(case, n, seed) as read-only arrays (X, Y), cached."""
    pts = sample_points(case, n, seed=seed)
    X = np.array([x for x, _, _ in pts], dtype=float)
    Y = np.array([y for _, y, _ in pts], dtype=float)
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


def _solve_y(case, x):
    """Real y with P(x, y) = 0, for the y-quadratic/Weierstrass families."""
    p, g = case.params, case.record.g
    if g is None:  # y^2 = rhs(x)
        head, rhs = case.rewrite_rule()
        v = rhs.eval(x, 0.0)
        if v < 0:
            return []
        return [math.sqrt(v), -math.sqrt(v)] if v > 0 else [0.0]
    # x*y^2 + a*y - G(x) = 0
    a = p.get("a", 0.0)
    G = g(p, x)
    if abs(x) < 1e-9:
        return [] if a == 0.0 else [G / a]
    disc = a * a + 4.0 * x * G
    if disc < 0:
        return []
    r = math.sqrt(disc)
    return [(-a + r) / (2 * x), (-a - r) / (2 * x)]


def _real_locus_xs(case, rng, n, spread):
    if case.record.xs is not None:
        return case.record.xs(case.params, rng, n, spread)
    # scan for the real locus of the xy^2 family
    grid = np.linspace(-4.0 * spread, 4.0 * spread, 4001)
    ok = [x for x in grid if abs(x) > 1e-3 and _solve_y(case, float(x))]
    if not ok:
        raise UnsupportedCase(f"could not locate real points of {case.id}")
    return [float(ok[rng.integers(0, len(ok))] + rng.uniform(-1e-4, 1e-4)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Pattern-based normalization into the canonical families


def normalize(p: BivarPoly):
    """Map a recognized cubic onto its canonical case.

    Returns (CurveCase, AffineMap) where the map sends input-curve points
    onto the canonical curve.  Raises Unsupported for patterns outside
    the recognized families.
    """
    if p.degree() != 3:
        raise Unsupported("input is not a cubic")
    support = set(p.coeffs)
    c = dict(p.coeffs)

    if all(j >= 1 for (_, j) in support):  # y * conic: no irreducible family has y | p
        case, amap = _normalize_reducible(p)
    elif support <= {(0, 2), (3, 0), (2, 0), (1, 0), (0, 0)} and (0, 2) in c and (3, 0) in c:
        case, amap = _normalize_weierstrass(c)
    elif (1, 2) in c and support <= {(1, 2), (0, 1), (3, 0), (2, 0), (1, 0), (0, 0)}:
        case, amap = _normalize_newton(c)
    elif (1, 1) in c and support <= {(1, 1), (3, 0), (2, 0), (1, 0), (0, 0)} and (3, 0) in c:
        case, amap = _normalize_xy(c)
    elif (0, 1) in c and (3, 0) in c and support <= {(0, 1), (3, 0), (2, 0), (1, 0), (0, 0)}:
        case, amap = _normalize_yx3(c)
    else:
        raise Unsupported("cubic outside the recognized monomial patterns")
    _verify_map(case, amap, p)
    return case, amap


def _verify_map(case, amap, p_in, n=100, seed=7):
    """Sampled zeros of p_in must land on the canonical curve under amap."""
    P = case.defining_poly()
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(40 * n):
        x = float(rng.uniform(-4, 4))
        # solve p_in(x, y) = 0 for y by root finding in y
        ymax = max(j for _, j in p_in.coeffs)
        co = [0.0] * (ymax + 1)
        for (i, j), v in p_in.coeffs.items():
            co[j] += v * x**i
        q = UnivarPoly(co)
        if q.degree() is None or q.is_zero() or q.degree() < 1:
            continue
        for y in cubic_real_roots(q):
            u, v = amap.apply(x, y)
            scale = max(1.0, P.max_abs_coeff()) * (1.0 + abs(u) + abs(v)) ** 3
            if abs(P.eval(u, v)) > 1e-7 * scale:
                raise Unsupported(
                    f"normalization verification failed for {case.id} at ({x:.3g},{y:.3g})"
                )
            checked += 1
        if checked >= n:
            return
    if checked == 0:
        raise Unsupported("could not sample input curve for verification")


def _normalize_weierstrass(c):
    s = c[(0, 2)]
    g3 = -c.get((3, 0), 0.0) / s
    g2 = -c.get((2, 0), 0.0) / s
    g1 = -c.get((1, 0), 0.0) / s
    g0 = -c.get((0, 0), 0.0) / s
    # curve: y^2 = g3 x^3 + g2 x^2 + g1 x + g0
    if g3 == 0.0:
        raise Unsupported("not a cubic in x")
    refl = g3 < 0
    if refl:
        g3, g2, g1, g0 = -g3, g2, -g1, g0  # substitute x -> -x
    amap_x = AffineMap(a=-1.0 if refl else 1.0)
    roots = np.roots([g3, g2, g1, g0])
    reals = sorted(z.real for z in roots if abs(z.imag) <= 1e-7 * (1 + abs(z)))

    def finish(case_id, params, shift, lam):
        # x' = lam*(x - shift), y' = nu*y with nu^2 = lam^3 / g3
        nu = math.sqrt(lam**3 / g3)
        m = amap_x.then(AffineMap(a=lam, c=-lam * shift)).then(AffineMap(e=nu))
        return make_case(case_id, params), m

    def distinct(vals, tol=1e-7):
        out = []
        for v in vals:
            for u, _ in out:
                if abs(v - u) <= tol * (1 + abs(v)):
                    break
            else:
                out.append((v, vals.count(v)))
        grouped = []
        for v, _ in out:
            mult = sum(1 for w in vals if abs(w - v) <= tol * (1 + abs(v)))
            grouped.append((v, mult))
        return grouped

    groups = distinct(reals)
    if len(reals) == 3 and len(groups) == 3:
        r1, r2, r3 = sorted(reals)
        return finish("P1", {"a": r2 - r1, "b": r3 - r1}, r1, 1.0)
    if len(reals) == 3 and len(groups) == 1:
        return finish("P3", {}, groups[0][0], 1.0)
    if len(reals) == 1:
        rho = reals[0]
        pair = [z - rho for z in roots if abs(z.imag) > 1e-7 * (1 + abs(z))]
        if len(pair) != 2 or abs(pair[0].real) > 1e-7 * (1 + abs(pair[0])):
            raise Unsupported("connected smooth form requires a pure-imaginary pair")
        return finish("P2", {"c": abs(pair[0].imag)}, rho, 1.0)
    if len(groups) == 2:
        dbl = next(v for v, m in groups if m == 2)
        sim = next(v for v, m in groups if m == 1)
        if dbl > sim:
            return finish("P4", {}, sim, 1.0 / (dbl - sim))
        return finish("P5", {}, dbl, 1.0 / (sim - dbl))
    raise Unsupported("unrecognized root pattern for the y^2 family")


def _normalize_newton(c):
    s = c[(1, 2)]
    a = c.get((0, 1), 0.0) / s
    b = -c.get((3, 0), 0.0) / s
    cc = -c.get((2, 0), 0.0) / s
    d = -c.get((1, 0), 0.0) / s
    e = -c.get((0, 0), 0.0) / s
    # normalized input: x y^2 + a y - b x^3 - cc x^2 - d x - e
    if b == 0.0 and cc == 0.0:
        return make_case("P6", {"a": a, "d": d, "e": e}), AffineMap()
    if b == 0.0:
        if cc < 0.0:
            # pass to -P(-x, y): the x^2 coefficient flips sign
            case, m0 = _normalize_newton(
                {(1, 2): 1.0, (0, 1): -a, (2, 0): cc, (1, 0): -d, (0, 0): e}
            )
            return case, AffineMap(a=-1.0).then(m0)
        # (x, y) -> (cc*x, y) carries the curve onto P7(a*cc, d, e*cc)
        case = make_case("P7", {"a": a * cc, "d": d, "e": e * cc})
        return case, AffineMap(a=cc)
    lam = math.sqrt(abs(b))
    # (x, y) -> (lam*x, y): coefficient pattern becomes (a*lam, sign(b), cc/lam, d, e*lam)
    a2, c2, d2, e2 = a * lam, cc / lam, d, e * lam
    if b > 0:
        cid = "P8" if a2 == 0.0 else "P10"
    else:
        cid = "P9" if a2 == 0.0 else "P11"
    params = {"c": c2, "d": d2, "e": e2}
    if a2 != 0.0:
        params["a"] = a2
    case = make_case(cid, params)
    return case, AffineMap(a=lam)


def _normalize_xy(c):
    s = c[(1, 1)]
    c3 = -c.get((3, 0), 0.0) / s
    c2 = -c.get((2, 0), 0.0) / s
    c1 = -c.get((1, 0), 0.0) / s
    c0 = -c.get((0, 0), 0.0) / s
    if c3 == 0.0:
        raise Unsupported("xy family requires a cubic in x")
    # (x, y) -> (x, y/c3) carries x y = c(x) onto the monic form
    case = make_case("P12", {"c2": c2 / c3, "c1": c1 / c3, "c0": c0 / c3})
    return case, AffineMap(e=1.0 / c3)


def _normalize_yx3(c):
    s = c[(0, 1)]
    c3 = -c.get((3, 0), 0.0) / s
    c2 = -c.get((2, 0), 0.0) / s
    c1 = -c.get((1, 0), 0.0) / s
    c0 = -c.get((0, 0), 0.0) / s
    if c3 == 0.0:
        raise Unsupported("degenerate")
    # x-shift kills the x^2 term, an affine shear removes the linear part,
    # and an x-scale makes the cubic monic: y = g(x) = c3 u^3 + c1h u + c0h
    # in u = x + c2/(3 c3).
    shift = c2 / (3.0 * c3)
    c1h = 3 * c3 * shift * shift - 2 * c2 * shift + c1
    c0h = -c3 * shift**3 + c2 * shift * shift - c1 * shift + c0
    lam = math.copysign(abs(c3) ** (1.0 / 3.0), c3)
    m = AffineMap(a=1.0, c=shift).then(AffineMap(a=lam, d=-c1h, f=-c0h))
    case = make_case("P13", {})
    return case, m


def _normalize_reducible(p: BivarPoly):
    """(case, map) of a cubic y * q; normalize verifies the map."""
    # strip one factor of y
    q = BivarPoly({(i, j - 1): v for (i, j), v in p.coeffs.items()})
    qs = dict(q.coeffs)
    lead = max(abs(v) for v in qs.values())

    def g(i, j):
        return qs.get((i, j), 0.0)

    # parallel-lines family: quadratic in y only
    if all(i == 0 for (i, _) in qs):
        c0, c1, c2 = g(0, 0), g(0, 1), g(0, 2)
        if abs(c2) < 1e-12 * lead:
            raise Unsupported("degenerate line pair")
        c0, c1 = c0 / c2, c1 / c2
        disc = c1 * c1 - 4 * c0
        if disc <= 1e-12:
            raise Unsupported("coincident or complex parallel lines")
        ra = (-c1 + math.sqrt(disc)) / 2.0
        rb = (-c1 - math.sqrt(disc)) / 2.0
        a_, b_ = -ra, -rb
        return make_case("P26", {"a": a_, "b": b_}), AffineMap()
    for cid in ("P17", "P18", "P21", "P27", "P28", "P29"):
        case = make_case(cid, {})
        if _match_up_to_scale(p, case.defining_poly()):
            return case, AffineMap()
    if set(qs) == {(1, 0), (0, 1), (1, 1)}:  # y(cx x + cy y + cxy xy) -> P22 by (cx x, cy y)
        cx, cy = g(1, 0), g(0, 1)
        return make_case("P22", {"a": g(1, 1) / (cx * cy)}), AffineMap(a=cx, e=cy)
    # y(1 - x^2)-type three lines map onto yx(y+1) by an explicit alt; the
    # mixed shapes below would take them and refuse the line pair
    if _match_up_to_scale(p, BivarPoly({(0, 1): 1.0, (2, 1): -1.0})):
        return make_case("P28", {}), AffineMap(a=0.0, b=1.0, c=0.0, d=0.5, e=0.0, f=-0.5)
    if abs(g(1, 0)) < 1e-12 * lead and abs(g(1, 1)) < 1e-12 * lead and abs(g(2, 0)) > 0:
        return _normalize_mixed(g(0, 0), g(0, 1), g(2, 0), g(0, 2), lead)
    raise Unsupported("reducible cubic outside the recognized shapes")


def _normalize_mixed(c0, ay, b, cy, lead):
    """Scale y*(c0 + ay*y + b*x^2 + cy*y^2) onto a canonical mixed case.

    The point map is (x, y) -> (lam*x, mu*y).  The input and every target
    case are even in x, so the sign of lam does not matter; normalize
    certifies the map by the sampled pushforward.
    """

    def try_case(cid, params, lam, mu):
        try:
            return make_case(cid, params), AffineMap(a=lam, e=mu)
        except InvalidParams:
            return None

    if abs(c0) < 1e-12 * lead:
        if abs(cy) < 1e-12 * lead:
            if abs(ay) < 1e-12 * lead:
                raise Unsupported("degenerate conic through the origin")
            # y(ay*y + b*x^2): parabola through origin -> P17 (conic x^2 - y)
            lam = 1.0 / math.sqrt(abs(b))
            mu = -math.copysign(1.0, b) / ay
            got = try_case("P17", {}, lam, mu)
            if got:
                return got
            raise Unsupported("parabola-through-origin scaling failed")
        if abs(ay) < 1e-12 * lead:
            # y(b*x^2 + cy*y^2): three concurrent lines when signs differ
            if b * cy < 0:
                got = try_case("P27", {}, 1.0 / math.sqrt(abs(b)), 1.0 / math.sqrt(abs(cy)))
                if got:
                    return got
            raise Unsupported("x^2, y^2 conic without real lines")
        # y(ay*y + b*x^2 + cy*y^2) -> y(a2*y + x^2 +- y^2) via (lam*x, y)
        target_cy = 1.0 if b * cy > 0 else -1.0
        cid = "P14" if target_cy > 0 else "P23"
        rho = target_cy / cy
        lam = math.sqrt(rho * b)
        a2 = rho * ay
        got = try_case(cid, {"a": a2}, lam, 1.0)
        if got:
            return got
        raise Unsupported("origin conic scaling failed")
    # constant term present: normalize it to 1
    ayn, bn, cyn = ay / c0, b / c0, cy / c0
    if abs(cyn) < 1e-12:
        if abs(ayn) < 1e-12:
            raise Unsupported("conic degenerates to parallel lines")
        cid = "P19" if bn > 0 else "P20"
        got = try_case(cid, {}, math.sqrt(abs(bn)), ayn)
        if got:
            return got
        raise Unsupported("parabolic scaling failed")
    lam = math.sqrt(abs(bn))
    mu = math.sqrt(abs(cyn))
    a2 = ayn / mu
    cid = {(True, True): "P15", (False, False): "P16", (True, False): "P24",
           (False, True): "P25"}[(bn > 0, cyn > 0)]
    got = try_case(cid, {"a": a2}, lam, mu)
    if got:
        return got
    raise Unsupported("mixed-type scaling failed")


def _match_up_to_scale(p, q, tol=1e-9):
    keys = set(p.coeffs) | set(q.coeffs)
    ratio = None
    for k in keys:
        a, b = p.coeffs.get(k, 0.0), q.coeffs.get(k, 0.0)
        if b == 0.0:
            if abs(a) > tol * p.max_abs_coeff():
                return False
            continue
        r = a / b
        if ratio is None:
            ratio = r
        elif abs(r - ratio) > tol * max(1.0, abs(ratio)):
            return False
    return ratio is not None and ratio != 0.0

"""Catalog of the 29 canonical plane-cubic cases.

Each case id P1..P29 carries: parameter constraints, the defining cubic
(its rewrite rules modulo the curve ideal are the cubic solved for one head
monomial), a rational parametrization (where one exists), the positivity
multiplier with its selected cubic root, and sign flags for the reducible
cases whose line and conic meet in non-real points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .poly import (
    BivarPoly,
    RationalElem,
    UnivarPoly,
    UnsupportedCase,
    cubic_real_roots,
)

CASE_IDS = tuple(f"P{i}" for i in range(1, 30))

#: ids handled by the nonnegative-line/conic sign-flag theorem
CHI_CASES = ("P15", "P19", "P24")

#: ids with a constructive univariate lift (atom extraction supported)
CONSTRUCTIVE_CASES = ("P3", "P4", "P5", "P6", "P12", "P13")


class InvalidParams(ValueError):
    """Parameters violate the case's validity constraints."""


class NotApplicable(ValueError):
    """Operation defined only for other case families."""


class Unsupported(ValueError):
    """Cubic outside the recognized normalization patterns."""


_PARAM_NAMES = {
    "P1": ("a", "b"),
    "P2": ("c",),
    "P6": ("a", "d", "e"),
    "P7": ("a", "d", "e"),
    "P8": ("c", "d", "e"),
    "P9": ("c", "d", "e"),
    "P10": ("a", "c", "d", "e"),
    "P11": ("a", "c", "d", "e"),
    "P12": ("c2", "c1", "c0"),
    "P14": ("a",),
    "P15": ("a",),
    "P16": ("a",),
    "P22": ("a",),
    "P23": ("a",),
    "P24": ("a",),
    "P25": ("a",),
    "P26": ("a", "b"),
}

_K_MIN = {
    "P6": 1, "P17": 1, "P21": 1, "P22": 1, "P27": 1, "P28": 1,
}


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

    def det(self):
        return self.a * self.e - self.b * self.d

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


@dataclass(frozen=True)
class CurveCase:
    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _validate(self.id, self.params)

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, CurveCase) and self.key() == other.key()

    def key(self):
        return (self.id, tuple(sorted(self.params.items())))

    # -- defining data ------------------------------------------------

    def defining_poly(self) -> BivarPoly:
        return _defining_poly(self.id, self.params)

    def factors(self):
        """Irreducible factors for reducible cases, else [defining_poly]."""
        return _factors(self.id, self.params)

    def rewrite_rule(self):
        return _rewrite_rule(self, False)

    def low_rewrite_rule(self):
        return _rewrite_rule(self, True)

    @property
    def k_min(self):
        return _K_MIN.get(self.id, 2)

    def is_v2(self):
        return self.id in CHI_CASES

    def is_constructive(self):
        return self.id in CONSTRUCTIVE_CASES

    def has_parametrization(self):
        return self.id not in ("P1", "P2", "P7", "P8", "P9", "P10", "P11")

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
    want = _PARAM_NAMES.get(case_id, ())
    missing = [p for p in want if p not in params]
    if missing:
        raise InvalidParams(f"{case_id} requires parameters {missing}")
    extra = [p for p in params if p not in want]
    if extra:
        raise InvalidParams(f"{case_id} does not take parameters {extra}")
    return CurveCase(case_id, {k: float(v) for k, v in params.items()})


def _validate(cid, p):
    tol = 1e-8
    if cid == "P1":
        if not (0.0 < p["a"] < p["b"]):
            raise InvalidParams("P1 requires 0 < a < b")
    elif cid == "P2":
        if p["c"] == 0.0:
            raise InvalidParams("P2 requires c != 0")
    elif cid == "P6":
        a, d, e = p["a"], p["d"], p["e"]
        # reducible exactly when a=0,e=0 or (a != 0 and e^2 = a^2 d)
        if a == 0.0 and abs(e) <= tol:
            raise InvalidParams("P6 with a=0 requires e != 0 (else reducible)")
        if a != 0.0 and abs(e * e - a * a * d) <= tol * max(1.0, a * a, e * e):
            raise InvalidParams("P6 requires e^2 != a^2*d (else reducible)")
    elif cid in ("P8", "P9"):
        if p["e"] == 0.0:
            raise InvalidParams(f"{cid} requires e != 0")
    elif cid in ("P10", "P11"):
        if p["a"] == 0.0 or p["e"] == 0.0:
            raise InvalidParams(f"{cid} requires a != 0 and e != 0")
    elif cid == "P12":
        if abs(p["c0"]) <= tol:
            raise InvalidParams("P12 requires c(0) != 0 (else reducible)")
    elif cid == "P14":
        if p["a"] == 0.0:
            raise InvalidParams("P14 requires a != 0")
    elif cid == "P15":
        if not abs(p["a"]) > 2.0:
            raise InvalidParams("P15 requires |a|>2")
    elif cid in ("P22", "P23"):
        if p["a"] == 0.0:
            raise InvalidParams(f"{cid} requires a != 0")
    elif cid == "P24":
        if abs(abs(p["a"]) - 2.0) <= tol:
            raise InvalidParams("P24 requires |a| != 2")
    elif cid == "P25":
        if abs(abs(p["a"]) - 2.0) <= tol:
            raise InvalidParams("P25 requires |a| != 2 (conic irreducible)")
    elif cid == "P26":
        a, b = p["a"], p["b"]
        if a == 0.0 or b == 0.0 or a == b:
            raise InvalidParams("P26 requires a != 0, b != 0, a != b")


# ---------------------------------------------------------------------------
# Defining polynomials, factorizations and rewrite rules

_X = BivarPoly.x
_Y = BivarPoly.y
_M = BivarPoly.monomial
_C = BivarPoly.const


def _defining_poly(cid, p):
    fs = _factors(cid, p)
    out = fs[0]
    for f in fs[1:]:
        out = out * f
    return out


def _factors(cid, p):
    if cid == "P1":
        a, b = p["a"], p["b"]
        return [_M(0, 2) - _M(3, 0) + _M(2, 0, a + b) - _M(1, 0, a * b)]
    if cid == "P2":
        c = p["c"]
        return [_M(0, 2) - _M(3, 0) - _M(1, 0, c * c)]
    if cid == "P3":
        return [_M(0, 2) - _M(3, 0)]
    if cid == "P4":
        return [_M(0, 2) - _M(3, 0) + _M(2, 0, 2.0) - _M(1, 0)]
    if cid == "P5":
        return [_M(0, 2) - _M(3, 0) + _M(2, 0)]
    if cid == "P6":
        a, d, e = p["a"], p["d"], p["e"]
        return [_M(1, 2) + _M(0, 1, a) - _M(1, 0, d) - _C(e)]
    if cid == "P7":
        a, d, e = p["a"], p["d"], p["e"]
        return [_M(1, 2) + _M(0, 1, a) - _M(2, 0) - _M(1, 0, d) - _C(e)]
    if cid == "P8":
        c, d, e = p["c"], p["d"], p["e"]
        return [_M(1, 2) - _M(3, 0) - _M(2, 0, c) - _M(1, 0, d) - _C(e)]
    if cid == "P9":
        c, d, e = p["c"], p["d"], p["e"]
        return [_M(1, 2) + _M(3, 0) - _M(2, 0, c) - _M(1, 0, d) - _C(e)]
    if cid == "P10":
        a, c, d, e = p["a"], p["c"], p["d"], p["e"]
        return [_M(1, 2) + _M(0, 1, a) - _M(3, 0) - _M(2, 0, c) - _M(1, 0, d) - _C(e)]
    if cid == "P11":
        a, c, d, e = p["a"], p["c"], p["d"], p["e"]
        return [_M(1, 2) + _M(0, 1, a) + _M(3, 0) - _M(2, 0, c) - _M(1, 0, d) - _C(e)]
    if cid == "P12":
        c2, c1, c0 = p["c2"], p["c1"], p["c0"]
        return [_M(1, 1) - _M(3, 0) - _M(2, 0, c2) - _M(1, 0, c1) - _C(c0)]
    if cid == "P13":
        return [_Y() - _M(3, 0)]
    if cid == "P14":
        a = p["a"]
        return [_Y(), _M(0, 1, a) + _M(2, 0) + _M(0, 2)]
    if cid == "P15":
        a = p["a"]
        return [_Y(), _C(1.0) + _M(0, 1, a) + _M(2, 0) + _M(0, 2)]
    if cid == "P16":
        a = p["a"]
        return [_Y(), _C(1.0) + _M(0, 1, a) - _M(2, 0) - _M(0, 2)]
    if cid == "P17":
        return [_Y(), _M(2, 0) - _Y()]
    if cid == "P18":
        return [_Y(), _X() - _M(0, 2)]
    if cid == "P19":
        return [_Y(), _C(1.0) + _Y() + _M(2, 0)]
    if cid == "P20":
        return [_Y(), _C(1.0) + _Y() - _M(2, 0)]
    if cid == "P21":
        return [_Y(), _C(1.0) - _M(1, 1)]
    if cid == "P22":
        a = p["a"]
        return [_Y(), _X() + _Y() + _M(1, 1, a)]
    if cid == "P23":
        a = p["a"]
        return [_Y(), _M(0, 1, a) + _M(2, 0) - _M(0, 2)]
    if cid == "P24":
        a = p["a"]
        return [_Y(), _C(1.0) + _M(0, 1, a) + _M(2, 0) - _M(0, 2)]
    if cid == "P25":
        a = p["a"]
        return [_Y(), _C(1.0) + _M(0, 1, a) - _M(2, 0) + _M(0, 2)]
    if cid == "P26":
        a, b = p["a"], p["b"]
        return [_Y(), _C(a) + _Y(), _C(b) + _Y()]
    if cid == "P27":
        return [_Y(), _X() - _Y(), _X() + _Y()]
    if cid == "P28":
        return [_Y(), _X(), _Y() + _C(1.0)]
    if cid == "P29":
        return [_Y(), _C(1.0) + _X() - _Y(), _C(1.0) - _X() - _Y()]
    raise InvalidParams(cid)


#: the monomial each defining cubic is solved for; P1-P5 carry (high, low):
#: y^2 for reduce_on_curve and the degree-minimal x^3 for normal_low
_HEADS = {
    **dict.fromkeys(("P1", "P2", "P3", "P4", "P5"), ((0, 2), (3, 0))),
    **dict.fromkeys(("P6", "P7", "P8", "P9", "P10", "P11", "P21", "P22", "P28"), (1, 2)),
    **dict.fromkeys(("P12", "P13"), (3, 0)),
    **dict.fromkeys(("P14", "P18", "P23", "P26", "P29"), (0, 3)),
    **dict.fromkeys(("P15", "P16", "P17", "P19", "P20", "P24", "P25", "P27"), (2, 1)),
}


@lru_cache(maxsize=512)
def _rewrite_rule(case, low):
    """(head, rhs) with head = rhs on the curve: the defining cubic solved for head.

    Cached per case (CurveCase hashes and compares by its key).
    """
    head = _HEADS[case.id]
    if isinstance(head[0], tuple):
        head = head[1 if low else 0]
    P = case.defining_poly()
    c = P.coeffs[head]
    return head, BivarPoly({m: -v / c for m, v in P.coeffs.items() if m != head})


# ---------------------------------------------------------------------------
# Parametrizations

_ONE = UnivarPoly([1.0])
_T = UnivarPoly([0.0, 1.0])


def _comp(xn, xd, yn, yd, excl=(), factor=0):
    return ParComponent(
        UnivarPoly(xn), UnivarPoly(xd), UnivarPoly(yn), UnivarPoly(yd),
        tuple(excl), factor,
    )


def parametrization(case: CurveCase) -> Parametrization:
    cid, p = case.id, case.params
    if cid == "P3":
        return Parametrization(
            (_comp([0, 0, 1], [1], [0, 0, 0, 1], [1]),),
            ("s'(0) = 0 for pullbacks s of polynomial functions",),
        )
    if cid == "P4":
        return Parametrization(
            (_comp([0, 0, 1], [1], [0, -1, 0, 1], [1]),),
            ("s(1) = s(-1) for pullbacks s of polynomial functions",),
        )
    if cid == "P5":
        return Parametrization(
            (_comp([1, 0, 1], [1], [0, 1, 0, 1], [1]),),
            ("s(i) = s(-i) for pullbacks s; the isolated origin is not reached",),
        )
    if cid == "P6":
        a, d, e = p["a"], p["d"], p["e"]
        excl = ()
        if d >= 0.0:
            r = math.sqrt(d)
            excl = (r, -r) if r > 0 else (0.0,)
        return Parametrization(
            (_comp([e, -a], [-d, 0, 1], [0, 1], [1], excl),),
            ("numerator weight condition at t^2 = d for pullbacks q/h2^i",),
        )
    if cid == "P12":
        c2, c1, c0 = p["c2"], p["c1"], p["c0"]
        return Parametrization(
            (_comp([0, 1], [1], [c0, c1, c2, 1], [0, 1], (0.0,)),),
            ("p_0 = p_{3i} * c0^i for pullbacks p/t^i",),
        )
    if cid == "P13":
        return Parametrization(
            (_comp([0, 1], [1], [0, 0, 0, 1], [1]),),
            ("coefficient of t^{3i-1} vanishes for degree-i pullbacks",),
        )
    line = _comp([0, 1], [1], [0], [1], factor=0)
    if cid == "P14":
        a = p["a"]
        conic = _comp([a / 2, 0, -a / 2], [1, 0, 1], [-a / 2, -a, -a / 2], [1, 0, 1], factor=1)
        return Parametrization((line, conic), ("f(0) = g(-1)", "f'(0) = 2*g'(-1)/a"))
    if cid == "P15":
        a = p["a"]
        r = math.sqrt(a * a / 4.0 - 1.0)
        conic = _comp([0, 2 * r], [1, 0, 1], [-r - a / 2, 0, r - a / 2], [1, 0, 1], factor=1)
        return Parametrization(
            (line, conic),
            ("f(i) = g(t0) at the non-real intersection (not evaluated numerically)",),
        )
    if cid == "P16":
        a = p["a"]
        r = math.sqrt(1.0 + a * a / 4.0)
        conic = _comp([0, 2 * r], [1, 0, 1], [-r + a / 2, 0, r + a / 2], [1, 0, 1], factor=1)
        tm = 0.5 * (a - math.sqrt(4.0 + a * a))
        tp = 0.5 * (-a + math.sqrt(4.0 + a * a))
        return Parametrization(
            (line, conic),
            (f"f(-1) = g(t-) with t- = {tm:.12g}", f"f(1) = g(t+) with t+ = {tp:.12g}"),
        )
    if cid == "P17":
        conic = _comp([0, 1], [1], [0, 0, 1], [1], factor=1)
        return Parametrization((line, conic), ("f(0) = g(0)", "f'(0) = g'(0)"))
    if cid == "P18":
        conic = _comp([0, 0, 1], [1], [0, 1], [1], factor=1)
        return Parametrization((line, conic), ("f(0) = g(0)", "f_i = g_{2i}"))
    if cid == "P19":
        conic = _comp([0, 1], [1], [-1, 0, -1], [1], factor=1)
        return Parametrization(
            (line, conic),
            ("f(i) = g(i) at the non-real intersection (not evaluated numerically)",),
        )
    if cid == "P20":
        conic = _comp([0, 1], [1], [-1, 0, 1], [1], factor=1)
        return Parametrization((line, conic), ("f(-1) = g(-1)", "f(1) = g(1)"))
    if cid == "P21":
        conic = _comp([0, 1], [1], [1], [0, 1], (0.0,), factor=1)
        return Parametrization((line, conic), ("f_{i-1} = g_{i-1}", "f_i = g_i"))
    if cid == "P22":
        a = p["a"]
        conic = _comp([0, 1], [1], [0, -1], [1, a], (-1.0 / a,), factor=1)
        return Parametrization((line, conic), ("f(0) = g(0)", "f_i = g_{2i}/a^i"))
    if cid == "P23":
        a = p["a"]
        conic = _comp([0, a], [-1, 0, 1], [0, 0, a], [-1, 0, 1], (1.0, -1.0), factor=1)
        return Parametrization((line, conic), ("f(0) = g(0)", "f'(0) = -g'(0)/a"))
    if cid == "P24":
        a = p["a"]
        r = math.sqrt(1.0 + a * a / 4.0)
        conic = _comp([0, 2 * r], [-1, 0, 1], [r - a / 2, 0, r + a / 2], [-1, 0, 1],
                      (1.0, -1.0), factor=1)
        return Parametrization(
            (line, conic),
            ("f(i) = g(t0) at the non-real intersection (not evaluated numerically)",),
        )
    if cid == "P25":
        a = p["a"]
        conic = _comp([1, a, 1], [a, 2], [-1, 0, 1], [a, 2], (-a / 2.0,), factor=1)
        return Parametrization((line, conic), ("f(-1) = g(-1)", "f(1) = g(1)"))
    if cid == "P26":
        a, b = p["a"], p["b"]
        l2 = _comp([0, 1], [1], [-a], [1], factor=1)
        l3 = _comp([0, 1], [1], [-b], [1], factor=2)
        return Parametrization(
            (line, l2, l3),
            ("f_i = g_i = h_i", "b*(g_{i-1} - f_{i-1}) = a*(h_{i-1} - f_{i-1})"),
        )
    if cid == "P27":
        l2 = _comp([0, 1], [1], [0, 1], [1], factor=1)
        l3 = _comp([0, 1], [1], [0, -1], [1], factor=2)
        return Parametrization(
            (line, l2, l3),
            ("f(0) = g(0) = h(0)", "g'(0) - f'(0) = f'(0) - h'(0)"),
        )
    if cid == "P28":
        l2 = _comp([0, 1], [1], [-1], [1], factor=2)
        l3 = _comp([0], [1], [0, 1], [1], factor=1)
        return Parametrization(
            (line, l2, l3),
            ("f(0) = h(0)", "g(0) = h(-1)", "f_i = g_i"),
        )
    if cid == "P29":
        l2 = _comp([0, 1], [1], [1, 1], [1], factor=1)
        l3 = _comp([0, 1], [1], [1, -1], [1], factor=2)
        return Parametrization(
            (line, l2, l3),
            ("f(-1) = g(-1)", "f(1) = h(1)", "g(0) = h(0)"),
        )
    raise UnsupportedCase(f"{cid} has no rational parametrization")


# ---------------------------------------------------------------------------
# Multipliers


def multiplier(case: CurveCase) -> Multiplier:
    cid, p = case.id, case.params
    one = BivarPoly.const(1.0)
    if cid in ("P1", "P2"):
        return Multiplier(RationalElem(_X(), one))
    if cid == "P7":
        a, d, e = p["a"], p["d"], p["e"]
        q = UnivarPoly([a * a / 4.0, e, d, 1.0])
        alpha = cubic_real_roots(q)[0]
        return Multiplier(RationalElem(_X() - _C(alpha), one), alpha, q, "smallest")
    if cid in ("P8", "P9"):
        c, d, e = p["c"], p["d"], p["e"]
        sgn = 1.0 if cid == "P8" else -1.0
        q = UnivarPoly([1.0 * (1.0 if cid == "P8" else -1.0), c, d, e])
        roots = cubic_real_roots(q)
        rule = "smallest" if e > 0 else "largest"
        alpha = roots[0] if e > 0 else roots[-1]
        # (e/|e|)(1/x - alpha) = (1/|e|)(y^2 -+ x^2 - c x - d)(1 - alpha*x) on C
        quad = _M(0, 2) - _M(2, 0, sgn) - _M(1, 0, c) - _C(d)
        fpoly = quad * (one - _M(1, 0, alpha)) * (1.0 / abs(e))
        return Multiplier(RationalElem(fpoly, one), alpha, q, rule)
    if cid in ("P10", "P11"):
        a, c, d, e = p["a"], p["c"], p["d"], p["e"]
        if cid == "P10":
            q = UnivarPoly(
                [a * a * c * c / 4.0 - c * d * e + e * e, d * d - a * a + c * e, -2 * d, 1.0]
            )
            sgn = -1.0
        else:
            q = UnivarPoly(
                [a * a * c * c / 4.0 - c * d * e - e * e, d * d + a * a + c * e, -2 * d, 1.0]
            )
            sgn = 1.0
        alpha = cubic_real_roots(q)[0]
        fpoly = _M(0, 2) + _M(2, 0, sgn) - _M(1, 0, c) - _C(alpha)
        return Multiplier(RationalElem(fpoly, one), alpha, q, "smallest")
    return Multiplier(RationalElem(one, one))


# ---------------------------------------------------------------------------
# Sign flags for the non-real-intersection reducible cases


def chi_flags(case: CurveCase):
    """(chi1, chi2): signs of the line factor on the conic and vice versa.

    On the line y = 0 every conic factor equals 1 + x^2 > 0, so chi2 = 1.
    On the P15 ellipse x^2 + (y + a/2)^2 = a^2/4 - 1 (|a| > 2) y has the
    sign of -a; on the P19 conic y = -1 - x^2 < 0; the two y-roots of the
    P24 hyperbola multiply to -(1 + x^2), so y takes both signs there.
    """
    if case.id not in CHI_CASES:
        raise NotApplicable(f"chi flags undefined for {case.id}")
    if case.id == "P15":
        chi1 = -1 if case.params["a"] > 0 else 1
    else:
        chi1 = {"P19": -1, "P24": 0}[case.id]
    return chi1, 1


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
    assert all(
        abs(P.eval(x, y)) < 1e-8 * max(1.0, P.max_abs_coeff() * (1 + abs(x) + abs(y)) ** 3)
        for x, y, _ in pts
    )
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
    cid, p = case.id, case.params
    if cid in ("P1", "P2"):
        head, rhs = case.rewrite_rule()
        v = rhs.eval(x, 0.0)
        if v < 0:
            return []
        return [math.sqrt(v), -math.sqrt(v)] if v > 0 else [0.0]
    # x*y^2 + a*y - G(x) = 0
    a = p.get("a", 0.0)
    G = {
        "P7": lambda: x * x + p["d"] * x + p["e"],
        "P8": lambda: x**3 + p["c"] * x * x + p["d"] * x + p["e"],
        "P9": lambda: -(x**3) + p["c"] * x * x + p["d"] * x + p["e"],
        "P10": lambda: x**3 + p["c"] * x * x + p["d"] * x + p["e"],
        "P11": lambda: -(x**3) + p["c"] * x * x + p["d"] * x + p["e"],
    }[cid]()
    if cid in ("P8", "P9"):
        a = 0.0
    if abs(x) < 1e-9:
        return [] if a == 0.0 else [G / a]
    disc = a * a + 4.0 * x * G
    if disc < 0:
        return []
    r = math.sqrt(disc)
    return [(-a + r) / (2 * x), (-a - r) / (2 * x)]


def _real_locus_xs(case, rng, n, spread):
    cid, p = case.id, case.params
    if cid == "P1":
        a, b = p["a"], p["b"]
        out = []
        for _ in range(n):
            if rng.random() < 0.5:
                out.append(float(rng.uniform(1e-3, a - 1e-3)))
            else:
                out.append(float(rng.uniform(b + 1e-3, b + spread)))
        return out
    if cid == "P2":
        return [float(rng.uniform(1e-3, 2 * spread)) for _ in range(n)]
    # scan for the real locus of the xy^2 family
    grid = np.linspace(-4.0 * spread, 4.0 * spread, 4001)
    ok = [x for x in grid if abs(x) > 1e-3 and _solve_y(case, float(x))]
    if not ok:
        raise UnsupportedCase(f"could not locate real points of {cid}")
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

    if support <= {(0, 2), (3, 0), (2, 0), (1, 0), (0, 0)} and (0, 2) in c and (3, 0) in c:
        case, amap = _normalize_weierstrass(c)
    elif (1, 2) in c and support <= {(1, 2), (0, 1), (3, 0), (2, 0), (1, 0), (0, 0)}:
        case, amap = _normalize_newton(c)
    elif (1, 1) in c and support <= {(1, 1), (3, 0), (2, 0), (1, 0), (0, 0)} and (3, 0) in c:
        case, amap = _normalize_xy(c)
    elif (0, 1) in c and (3, 0) in c and support <= {(0, 1), (3, 0), (2, 0), (1, 0), (0, 0)}:
        case, amap = _normalize_yx3(c)
    elif all(j >= 1 for (_, j) in support):
        case, amap = _normalize_reducible(p)
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
        case = make_case("P26", {"a": a_, "b": b_})
        amap = AffineMap()
        _verify_map(case, amap, p)
        return case, amap
    for cid in ("P17", "P18", "P21", "P27", "P28"):
        case = make_case(cid, {})
        if _match_up_to_scale(p, case.defining_poly()):
            amap = AffineMap()
            _verify_map(case, amap, p)
            return case, amap
    if abs(g(1, 0)) < 1e-12 * lead and abs(g(1, 1)) < 1e-12 * lead and abs(g(2, 0)) > 0:
        return _normalize_mixed(p, g(0, 0), g(0, 1), g(2, 0), g(0, 2), lead)
    # y(1 - x^2)-type three lines map onto yx(y+1) by an explicit alt
    if _match_up_to_scale(p, BivarPoly({(0, 1): 1.0, (2, 1): -1.0})):
        case = make_case("P28", {})
        amap = AffineMap(a=0.0, b=1.0, c=0.0, d=0.5, e=0.0, f=-0.5)
        _verify_map(case, amap, p)
        return case, amap
    raise Unsupported("reducible cubic outside the recognized shapes")


def _normalize_mixed(p, c0, ay, b, cy, lead):
    """Scale y*(c0 + ay*y + b*x^2 + cy*y^2) onto a canonical mixed case.

    The point map is (x, y) -> (lam*x, mu*y); candidate sign choices are
    enumerated and the winner is certified by the sampled pushforward.
    """

    def try_case(cid, params, lam, mu):
        try:
            case = make_case(cid, params)
        except InvalidParams:
            return None
        for la in (lam, -lam):
            amap = AffineMap(a=la, e=mu)
            try:
                _verify_map(case, amap, p)
                return case, amap
            except Unsupported:
                continue
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

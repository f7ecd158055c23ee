"""Ordered bases of the function spaces attached to each canonical case.

basis_Bk builds the 3k-element basis of the degree-k polynomial functions
on the curve, basis_Vk the companion localizing space, and basis_Rk1 the
degree-(k-1) space used by the non-real-intersection cases.  For the six
constructively solved cases, combined_lift exposes the (3k+1)-element
union basis together with its univariate numerators; the pair of
elements unique to each side marks the single undetermined entry of the
lifted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveCase, NotApplicable, multiplier
from .poly import BivarPoly, RationalElem, UnivarPoly, normal_low

_M = BivarPoly.monomial
_C = BivarPoly.const


class KTooSmall(ValueError):
    def __init__(self, case_id, k, k_min):
        super().__init__(f"{case_id} requires k >= {k_min}, got {k}")
        self.k_min = k_min


@dataclass(frozen=True)
class BasisElement:
    kind: str  # "monomial" | "rational" | "composite"
    label: str
    rat: RationalElem
    exps: tuple | None = None  # (i, j) for monomials

    @staticmethod
    def monomial(i, j):
        return BasisElement("monomial", _mono_label(i, j), RationalElem(_M(i, j), _C(1.0)), (i, j))

    @staticmethod
    def poly(p, label):
        return BasisElement("composite", label, RationalElem(p, _C(1.0)))

    @staticmethod
    def rational(num, den, label):
        return BasisElement("rational", label, RationalElem(num, den))

    def eval(self, x, y):
        return self.rat.eval(x, y)

    def is_poly(self):
        return self.rat.denominator.degree() == 0


@dataclass(frozen=True)
class Basis:
    case: CurveCase
    k: int
    space: str  # "Bk" | "Vk" | "Rk1"
    elements: tuple
    partial: bool = False  # P10/P11: one localizing element is not computed

    def labels(self):
        return [e.label for e in self.elements]

    def __len__(self):
        return len(self.elements)


def _mono_label(i, j):
    if i == 0 and j == 0:
        return "1"
    xs = "x" if i == 1 else f"x^{i}" if i else ""
    ys = "y" if j == 1 else f"y^{j}" if j else ""
    return xs + ys


def _monos(pairs):
    return [BasisElement.monomial(i, j) for i, j in pairs]


def _check_k(case, k):
    if k < case.k_min:
        raise KTooSmall(case.id, k, case.k_min)


# ---------------------------------------------------------------------------
# Monomial patterns


def _pattern_weier(k):
    """1, x, y, x^2, xy, y^2, ..., x^2 y^(d-2), x y^(d-1), y^d."""
    out = [(0, 0), (1, 0), (0, 1)]
    if k >= 2:
        out += [(2, 0), (1, 1), (0, 2)]
    for d in range(3, k + 1):
        out += [(2, d - 2), (1, d - 1), (0, d)]
    return out


def _pattern_xcol(k):
    """x^k, x^(k-1), x^(k-1)y, ..., x, xy, 1, y, ..., y^k  (rational type 1)."""
    out = [(k, 0)]
    for j in range(k - 1, 0, -1):
        out += [(j, 0), (j, 1)]
    out.append((0, 0))
    out += [(0, j) for j in range(1, k + 1)]
    return out


def _pattern_xxy(k):
    """1, x, y, x^2, xy, y^2, x^3, x^2 y, y^3, ..., x^d, x^(d-1)y, y^d."""
    out = [(0, 0), (1, 0), (0, 1)]
    if k >= 2:
        out += [(2, 0), (1, 1), (0, 2)]
    for d in range(3, k + 1):
        out += [(d, 0), (d - 1, 1), (0, d)]
    return out


def _pattern_xmajor(k):
    """1, x, y, x^2, xy, y^2, ..., x^d, x^(d-1)y, x^(d-2)y^2."""
    out = [(0, 0), (1, 0), (0, 1)]
    for d in range(2, k + 1):
        out += [(d, 0), (d - 1, 1), (d - 2, 2)]
    return out


def _pattern_ymajor(k):
    """1, x, y, x^2, xy, y^2, ..., x^d, x y^(d-1), y^d."""
    out = [(0, 0), (1, 0), (0, 1)]
    for d in range(2, k + 1):
        out += [(d, 0), (1, d - 1), (0, d)]
    return out


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


def _p16_family_elements(k):
    """_shifted_x_elements, then yx^j (j < k), y^2x^j (j < k-1)."""
    els = _shifted_x_elements(k)
    for j in range(0, k):
        els.append(BasisElement.monomial(j, 1))
    for j in range(0, k - 1):
        els.append(BasisElement.monomial(j, 2))
    return els


def basis_Bk(case: CurveCase, k: int) -> Basis:
    _check_k(case, k)
    cid = case.id
    if cid in ("P1", "P2", "P3", "P13"):
        els = _monos(_pattern_weier(k))
    elif cid in ("P4", "P5"):
        els = _pullback_chain_elements(case, k)
    elif cid == "P6":
        els = _monos(_pattern_xcol(k))
    elif cid in ("P7", "P8", "P9", "P10", "P11"):
        els = _monos(_pattern_xxy(k))
    elif cid == "P12":
        els = _monos(_pattern_weier(k))
    elif cid in ("P14", "P23", "P26", "P29"):
        els = _monos(_pattern_xmajor(k))
    elif cid in ("P15", "P19", "P24", "P27"):
        els = _monos(_pattern_ymajor(k))
    elif cid in ("P16", "P25"):
        els = _p16_family_elements(k)
    elif cid == "P17":
        pairs = [(0, 0)] + [(i, 0) for i in range(1, k + 1)]
        pairs += [(0, j) for j in range(1, k + 1)]
        pairs += [(1, j) for j in range(1, k)]
        els = _monos(pairs)
    elif cid == "P18":
        pairs = [(0, 0)] + [(i, 0) for i in range(1, k + 1)]
        for j in range(0, k - 1):
            pairs += [(j, 1), (j, 2)]
        pairs.append((k - 1, 1))
        els = _monos(pairs)
    elif cid == "P20":
        els = _shifted_x_elements(k)
        for j in range(1, k):
            els += [BasisElement.monomial(0, j), BasisElement.monomial(1, j)]
        els.append(BasisElement.monomial(0, k))
    elif cid in ("P21", "P22", "P28"):
        els = _monos(_pattern_xxy(k))
    else:
        raise NotApplicable(cid)
    assert len(els) == 3 * k, (cid, k, len(els))
    return Basis(case, k, "Bk", tuple(els))


def _pullback_chain_elements(case, k):
    """Nodal / isolated-point basis: preimages of 1, t^j -+ t^(j-2)."""
    sign = -1.0 if case.id == "P4" else 1.0
    els = [BasisElement.monomial(0, 0)]
    for j in range(2, 3 * k + 1):
        els.append(_chain_element(case, j, sign))
    return els


def _chain_element(case, j, sign):
    """Polynomial function pulling back to t^j + sign*t^(j-2)."""
    # P4: x = t^2, y = t^3 - t;  P5: x = t^2 + 1, y = t^3 + t
    shift = _C(0.0) if case.id == "P4" else _C(-1.0)
    base = _M(1, 0) + shift  # pulls back to t^2
    if j % 2 == 0:
        p = base ** (j // 2) + sign * base ** (j // 2 - 1)
    else:
        p = base ** ((j - 3) // 2) * _M(0, 1)
    p = normal_low(p, case)
    lbl = f"[t^{j}{'-' if sign < 0 else '+'}t^{j-2}]"
    return BasisElement.poly(p, lbl)


def basis_Vk(case: CurveCase, k: int) -> Basis:
    _check_k(case, k)
    cid = case.id
    if case.is_v2():
        raise NotApplicable(f"{cid} uses the two-factor localizing spaces; see basis_Rk1")
    if cid in ("P1", "P2"):
        bk = basis_Bk(case, k).elements
        els = [bk[0], BasisElement.rational(_M(0, 1), _M(1, 0), "y/x")] + [
            e for e in bk[1:] if e.exps != (0, k)
        ]
        return Basis(case, k, "Vk", tuple(els))
    if cid == "P3":
        bk = basis_Bk(case, k).elements
        els = [BasisElement.rational(_M(0, 1), _M(1, 0), "y/x")] + list(bk[1:])
        return Basis(case, k, "Vk", tuple(els))
    if cid in ("P4", "P5"):
        bk = basis_Bk(case, k).elements
        den = _M(1, 0) - _C(1.0) if cid == "P4" else _M(1, 0)
        lbl = "y/(x-1)" if cid == "P4" else "y/x"
        els = [BasisElement.rational(_M(0, 1), den, lbl)] + list(bk[1:])
        return Basis(case, k, "Vk", tuple(els))
    if cid == "P6":
        bk = basis_Bk(case, k).elements
        els = [BasisElement.monomial(k, 1)] + list(bk[1:])
        return Basis(case, k, "Vk", tuple(els))
    if cid == "P7":
        # the multiplier pole sits over the x-direction: x^k leaves, r7 enters
        mult = multiplier(case)
        a = case.params["a"]
        num = _M(1, 1, 2.0) + _C(a)
        den = _M(1, 0) - _C(mult.alpha)
        r7 = BasisElement.rational(num, den, "(2xy+a)/(x-alpha)")
        els = [r7 if e.exps == (k, 0) else e for e in basis_Bk(case, k).elements]
        return Basis(case, k, "Vk", tuple(els))
    if cid in ("P8", "P9"):
        mult = multiplier(case)
        num = _M(1, 1)
        den = _C(1.0) - _M(1, 0, mult.alpha)
        r = BasisElement.rational(num, den, "xy/(1-alpha*x)")
        els = [r if e.exps == (0, k) else e for e in basis_Bk(case, k).elements]
        return Basis(case, k, "Vk", tuple(els))
    if cid in ("P10", "P11"):
        els = [e for e in basis_Bk(case, k).elements if e.exps != (0, k)]
        return Basis(case, k, "Vk", tuple(els), partial=True)
    if cid == "P12":
        g = normal_low(_M(2 * k, 0), case)
        vstar = BasisElement.poly(_M(0, k) - 2.0 * g, f"y^{k}-2g")
        els = [vstar if e.exps == (0, k) else e for e in basis_Bk(case, k).elements]
        return Basis(case, k, "Vk", tuple(els))
    if cid == "P13":
        rep = BasisElement.monomial(2, k - 1)
        els = [rep if e.exps == (0, k) else e for e in basis_Bk(case, k).elements]
        return Basis(case, k, "Vk", tuple(els))
    # reducible cases, Table 2/3 column
    bk = basis_Bk(case, k).elements
    p = case.params
    if cid == "P14":
        a = p["a"]
        h = BasisElement.rational(_M(0, 1, a) + _M(2, 0) + _M(0, 2), _M(1, 0), "(ay+x^2+y^2)/x")
        return _replace_first(case, k, bk, h)
    if cid == "P16":
        a = p["a"]
        num = _C(-1.0) + _M(0, 1, -2 * a) + _M(2, 0) + _M(0, 2, 2.0)
        h = BasisElement.rational(num, _M(1, 0) + _C(1.0), "(-1-2ay+x^2+2y^2)/(1+x)")
        return _replace_first(case, k, bk, h)
    if cid == "P17":
        h = BasisElement.rational(_M(0, 1), _M(1, 0), "y/x")
        return _replace_first(case, k, bk, h)
    if cid == "P18":
        h = BasisElement.poly(_M(k, 0) - _M(k - 1, 2, 2.0), f"x^{k}-2x^{k-1}y^2")
        return _replace_exps(case, k, bk, (k, 0), h)
    if cid == "P20":
        num = _C(-1.0) + _M(0, 1, -2.0) + _M(2, 0)
        h = BasisElement.rational(num, _M(1, 0) + _C(1.0), "(-1-2y+x^2)/(1+x)")
        return _replace_first(case, k, bk, h)
    if cid == "P21":
        h = BasisElement.monomial(k, 1)
        return _replace_exps(case, k, bk, (k, 0), h)
    if cid == "P22":
        a = p["a"]
        hp = _M(k, 0) + _M(k - 1, 1, 2.0) + _M(k, 1, 2.0 * a)
        h = BasisElement.poly(hp, f"x^{k}+2yx^{k-1}(1+ax)")
        return _replace_exps(case, k, bk, (k, 0), h)
    if cid == "P23":
        a = p["a"]
        h = BasisElement.rational(_M(0, 1, a) + _M(2, 0) - _M(0, 2), _M(1, 0), "(ay+x^2-y^2)/x")
        return _replace_first(case, k, bk, h)
    if cid == "P25":
        a = p["a"]
        num = _C(-1.0) + _M(0, 1, -2 * a) + _M(2, 0) + _M(0, 2, -2.0)
        h = BasisElement.rational(num, _M(1, 0) + _C(1.0), "(-1-2ay+x^2-2y^2)/(1+x)")
        return _replace_first(case, k, bk, h)
    if cid == "P26":
        a = p["a"]
        hp = (_M(0, 2) + _M(0, 1, a)) * _M(k - 1, 0)
        h = BasisElement.poly(hp, f"y(y+a)x^{k-1}")
        return _replace_exps(case, k, bk, (k, 0), h)
    if cid == "P27":
        h = BasisElement.rational(_M(2, 0) - _M(0, 2), _M(1, 0), "(x^2-y^2)/x")
        return _replace_first(case, k, bk, h)
    if cid == "P28":
        h = BasisElement.poly(_M(k, 0) + _M(k, 1, 2.0), f"x^{k}(1+2y)")
        return _replace_exps(case, k, bk, (k, 0), h)
    if cid == "P29":
        # the sign-flipped matching at the intersection point (0, 1) forces
        # every companion element to vanish there
        num = _M(3, 0) - _M(1, 0) + _M(0, 1) + _M(1, 1) - _M(0, 2)
        h = BasisElement.rational(num, _M(1, 0), "(x^3-x+y+xy-y^2)/x")
        els = [h]
        for e in bk[1:]:
            v = e.rat.numerator.eval(0.0, 1.0)
            if v == 0.0:
                els.append(e)
            else:
                els.append(BasisElement.poly(e.rat.numerator - _C(v),
                                             f"{e.label}-{v:g}"))
        return Basis(case, k, "Vk", tuple(els))
    raise NotApplicable(cid)


def _replace_first(case, k, bk, h):
    els = [h] + list(bk[1:])
    return Basis(case, k, "Vk", tuple(els))


def _replace_exps(case, k, bk, exps, h):
    els = [h if e.exps == exps else e for e in bk]
    return Basis(case, k, "Vk", tuple(els))


def basis_Rk1(case: CurveCase, k: int) -> Basis:
    if not case.is_v2():
        raise NotApplicable(f"{case.id} is not a non-real-intersection case")
    _check_k(case, k)
    els = _monos(_pattern_ymajor(k - 1))
    return Basis(case, k, "Rk1", tuple(els))


# ---------------------------------------------------------------------------
# Univariate lift for the constructive cases


@dataclass(frozen=True)
class UnivariateLift:
    """Union basis of B_k and V^(k) with its univariate incarnation.

    elements[r] pulls back to numerators[r](t) / denom(t)^k on the curve;
    the lifted Gram matrix in this basis equals N H N^T for the Hankel H
    of the weighted moments m_j = L(t^j / denom(t)^(2k)).
    """

    case: CurveCase
    k: int
    elements: tuple
    numerators: tuple  # UnivarPoly, ascending coefficients
    denom: UnivarPoly  # per-level denominator (denom^k under each element)
    b_drop: int  # combined index present only in V^(k)
    v_drop: int  # combined index present only in B_k
    unknown: tuple  # the undetermined symmetric entry (row, col)

    def weight_multiplier(self, t):
        """Factor converting classical Hankel weights to curve weights."""
        return self.denom.eval(t) ** (2 * self.k)


def combined_lift(case: CurveCase, k: int) -> UnivariateLift:
    return _combined_lift_cached(case, k)


@lru_cache(maxsize=512)
def _combined_lift_cached(case, k):
    _check_k(case, k)
    cid = case.id
    if not case.is_constructive():
        raise NotApplicable(f"{cid} has no constructive univariate lift")
    T = UnivarPoly([0.0, 1.0])
    one = UnivarPoly([1.0])

    def tpow(n):
        return UnivarPoly([0.0] * n + [1.0])

    if cid in ("P3", "P13"):
        els, nums = [], []
        for w in range(0, 3 * k + 1):
            nums.append(tpow(w))
            if cid == "P13":
                i, j = w % 3, w // 3
                els.append(BasisElement.monomial(i, j))
            else:
                if w == 1:
                    els.append(BasisElement.rational(_M(0, 1), _M(1, 0), "y/x"))
                elif w % 3 == 0:
                    els.append(BasisElement.monomial(0, w // 3))
                elif w % 3 == 2:
                    els.append(BasisElement.monomial(1, (w - 2) // 3))
                else:
                    els.append(BasisElement.monomial(2, (w - 4) // 3))
        if cid == "P3":
            b_drop, v_drop = 1, 0
        else:
            b_drop, v_drop = 3 * k - 1, 3 * k
        unknown = tuple(sorted((b_drop, v_drop)))
        return UnivariateLift(case, k, tuple(els), tuple(nums), one, b_drop, v_drop, unknown)

    if cid in ("P4", "P5"):
        # 1, then V^(k): the rational element over t and the pullback chain
        sign = -1.0 if cid == "P4" else 1.0
        els = [BasisElement.monomial(0, 0)] + list(basis_Vk(case, k).elements)
        nums = [one, T] + [tpow(j) + sign * tpow(j - 2) for j in range(2, 3 * k + 1)]
        return UnivariateLift(case, k, tuple(els), tuple(nums), one, 1, 0, (0, 1))

    if cid == "P6":
        a, d, e = case.params["a"], case.params["d"], case.params["e"]
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
            nums.append(_upow(h2, k) * tpow(j))
        return UnivariateLift(case, k, tuple(els), tuple(nums), h2, 1, 0, (0, 1))

    # P12
    c2, c1, c0 = case.params["c2"], case.params["c1"], case.params["c0"]
    c = UnivarPoly([c0, c1, c2, 1.0])
    g = normal_low(_M(2 * k, 0), case)
    els = [
        BasisElement.monomial(0, k),
        BasisElement.poly(_M(0, k) - 2.0 * g, f"y^{k}-2g"),
    ]
    nums = [_upow(c, k), _upow(c, k) - 2.0 * tpow(3 * k)]
    for j in range(k - 1, 0, -1):
        els.append(BasisElement.monomial(0, j))
        nums.append(_upow(c, j) * tpow(k - j))
    els.append(BasisElement.monomial(0, 0))
    nums.append(tpow(k))
    for i in range(1, 2 * k):
        els.append(BasisElement.poly(normal_low(_M(i, 0), case), _mono_label(i, 0)))
        nums.append(tpow(k + i))
    return UnivariateLift(case, k, tuple(els), tuple(nums), T, 1, 0, (0, 1))


def _upow(p: UnivarPoly, n: int) -> UnivarPoly:
    r = UnivarPoly([1.0])
    for _ in range(n):
        r = r * p
    return r

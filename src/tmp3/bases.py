"""Ordered bases of the function spaces attached to each canonical case.

The bases are read from the case's record in tmp3.curves.  basis_Bk
builds the 3k-element basis of the degree-k polynomial functions on the
curve, basis_Vk the companion localizing space (B_k with the record's
V^(k) rule applied), and basis_Rk1 the degree-(k-1) space used by the
non-real-intersection cases.  For the six constructively solved cases,
combined_lift exposes the (3k+1)-element union basis together with its
univariate numerators; the pair of elements unique to each side marks the
single undetermined entry of the lifted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveCase, NotApplicable, _pattern_ymajor
from .poly import BasisElement, UnivarPoly


class KTooSmall(ValueError):
    def __init__(self, case_id, k, k_min):
        super().__init__(f"{case_id} requires k >= {k_min}, got {k}")
        self.k_min = k_min


@dataclass(frozen=True)
class Basis:
    case: CurveCase
    k: int
    elements: tuple
    partial: bool = False  # P10/P11: one localizing element is not computed

    def labels(self):
        return [e.label for e in self.elements]

    def __len__(self):
        return len(self.elements)


def _check_k(case, k):
    if k < case.k_min:
        raise KTooSmall(case.id, k, case.k_min)


def basis_Bk(case: CurveCase, k: int) -> Basis:
    return _basis_Bk(case, k)


@lru_cache(maxsize=512)
def _basis_Bk(case, k):
    """B_k, built once per (case, k): basis_Vk and the lifts read it too."""
    _check_k(case, k)
    els = case.record.bk(case, k)
    assert len(els) == 3 * k, (case.id, k, len(els))
    return Basis(case, k, tuple(els))


def basis_Vk(case: CurveCase, k: int) -> Basis:
    _check_k(case, k)
    rule = case.record.vk
    if rule is None:
        raise NotApplicable(f"{case.id} uses the two-factor localizing spaces; see basis_Rk1")
    bk = basis_Bk(case, k).elements
    els = rule(case, k, bk)
    return Basis(case, k, tuple(els), partial=len(els) < len(bk))


def basis_Rk1(case: CurveCase, k: int) -> Basis:
    if not case.is_v2():
        raise NotApplicable(f"{case.id} is not a non-real-intersection case")
    _check_k(case, k)
    els = [BasisElement.monomial(i, j) for i, j in _pattern_ymajor(k - 1)]
    return Basis(case, k, tuple(els))


# ---------------------------------------------------------------------------
# Univariate lift for the constructive cases


@dataclass(frozen=True)
class UnivariateLift:
    """Union basis of B_k and V^(k) with its univariate incarnation.

    elements[r] pulls back to numerators[r](t) / denom(t)^k on the curve, a
    numerator of degree <= 3k; multiplication by t on these numerators
    (moment._t_action) gives the atoms of a flat lifted matrix.
    """

    case: CurveCase
    k: int
    elements: tuple
    numerators: tuple  # UnivarPoly, ascending coefficients
    denom: UnivarPoly  # per-level denominator (denom^k under each element)
    b_drop: int  # combined index present only in V^(k)
    v_drop: int  # combined index present only in B_k
    unknown: tuple  # the undetermined symmetric entry (row, col)


def combined_lift(case: CurveCase, k: int) -> UnivariateLift:
    return _combined_lift_cached(case, k)


@lru_cache(maxsize=512)
def _combined_lift_cached(case, k):
    _check_k(case, k)
    if not case.is_constructive():
        raise NotApplicable(f"{case.id} has no constructive univariate lift")
    els, nums, denom, b_drop, v_drop = case.record.lift(case, k, basis_Vk)
    return UnivariateLift(case, k, tuple(els), tuple(nums), denom, b_drop, v_drop,
                          tuple(sorted((b_drop, v_drop))))

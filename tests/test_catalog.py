"""Snapshot of every per-case fact the case catalog hands out.

For each case of CASE_PARAMS and the three P6 sign variants, at k = k_min..5,
the dump holds the parameter names, k_min, rewrite heads, factors,
parametrization, multiplier, chi flags, the three bases and the univariate
lift. Floats are written with ``float.hex`` and polynomial terms in their
stored order, so the digest changes exactly when one of these outputs
changes in the last bit or in its summation order.
"""

import hashlib
import json

from conftest import CASE_PARAMS, P6_VARIANTS
from tmp3 import make_case
from tmp3.bases import basis_Bk, basis_Rk1, basis_Vk, combined_lift
from tmp3.curves import InvalidParams, NotApplicable, chi_flags, multiplier, parametrization
from tmp3.poly import UnsupportedCase

K_MAX = 5

#: sha256 of the dump; changes only with a deliberate change of a case record
DIGEST = "3c324dd2e464b07735710e922a37479c87f6f7570f320de1cec641c4d02ef58d"


def _hex(x):
    return None if x is None else float(x).hex()


def _poly(p):
    return [[i, j, _hex(v)] for (i, j), v in p.coeffs.items()]


def _upoly(p):
    return [_hex(v) for v in p.coeffs]


def _param_names(cid):
    try:
        make_case(cid, {})
    except InvalidParams as exc:
        return str(exc)
    return []


def _elements(els):
    return [[e.label, e.kind, e.exps, _poly(e.rat.numerator), _poly(e.rat.denominator)]
            for e in els]


def _basis(fn, case, k):
    try:
        b = fn(case, k)
    except NotApplicable:
        return None
    return {"elements": _elements(b.elements), "partial": b.partial}


def _lift(case, k):
    try:
        lift = combined_lift(case, k)
    except NotApplicable:
        return None
    return {"elements": _elements(lift.elements),
            "numerators": [_upoly(n) for n in lift.numerators],
            "denom": _upoly(lift.denom), "b_drop": lift.b_drop, "v_drop": lift.v_drop,
            "unknown": list(lift.unknown)}


def _parametrization(case):
    try:
        par = parametrization(case)
    except UnsupportedCase:
        return None
    return {"describe": [c.describe() for c in par.components],
            "excluded_t": [[_hex(t) for t in c.excluded_t] for c in par.components],
            "factor_index": [c.factor_index for c in par.components],
            "matching_conditions": list(par.matching_conditions)}


def _multiplier(case):
    m = multiplier(case)
    return {"numerator": _poly(m.f.numerator), "denominator": _poly(m.f.denominator),
            "alpha": _hex(m.alpha), "selection_rule": m.selection_rule,
            "source_cubic": None if m.source_cubic is None else _upoly(m.source_cubic)}


def _chi(case):
    try:
        return list(chi_flags(case))
    except NotApplicable:
        return None


def case_record(cid, params):
    case = make_case(cid, params)
    return {
        "case": cid, "params": {n: _hex(v) for n, v in params.items()},
        "param_names": _param_names(cid), "k_min": case.k_min,
        "head": [list(case.rewrite_rule()[0]), list(case.low_rewrite_rule()[0])],
        "factors": [_poly(f) for f in case.factors()],
        "defining_poly": _poly(case.defining_poly()),
        "flags": [case.is_v2(), case.is_constructive(), case.has_parametrization()],
        "parametrization": _parametrization(case),
        "multiplier": _multiplier(case),
        "chi": _chi(case),
        "k": {k: {"Bk": _basis(basis_Bk, case, k), "Vk": _basis(basis_Vk, case, k),
                  "Rk1": _basis(basis_Rk1, case, k), "lift": _lift(case, k)}
              for k in range(case.k_min, K_MAX + 1)},
    }


def catalog_dump():
    cases = list(CASE_PARAMS.items()) + [("P6", p) for p in P6_VARIANTS]
    return json.dumps([case_record(cid, p) for cid, p in cases], sort_keys=True)


def test_catalog_snapshot():
    digest = hashlib.sha256(catalog_dump().encode()).hexdigest()
    assert digest == DIGEST

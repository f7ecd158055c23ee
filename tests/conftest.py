import functools
import importlib.util
import pathlib

import numpy as np
import pytest

from tmp3 import make_case

#: representative parameters for every canonical case
CASE_PARAMS = {
    "P1": dict(a=1.0, b=2.0),
    "P2": dict(c=1.0),
    "P3": {},
    "P4": {},
    "P5": {},
    "P6": dict(a=1.0, d=-1.0, e=2.0),
    "P7": dict(a=1.0, d=-1.0, e=2.0),
    "P8": dict(c=0.5, d=-1.0, e=2.0),
    "P9": dict(c=0.5, d=-1.0, e=2.0),
    "P10": dict(a=1.0, c=0.5, d=-1.0, e=2.0),
    "P11": dict(a=1.0, c=0.5, d=-1.0, e=2.0),
    "P12": dict(c2=0.5, c1=-1.0, c0=2.0),
    "P13": {},
    "P14": dict(a=-2.0),
    "P15": dict(a=-3.0),
    "P16": dict(a=1.0),
    "P17": {},
    "P18": {},
    "P19": {},
    "P20": {},
    "P21": {},
    "P22": dict(a=1.0),
    "P23": dict(a=1.0),
    "P24": dict(a=-1.0),
    "P25": dict(a=1.0),
    "P26": dict(a=1.0, b=2.0),
    "P27": {},
    "P28": {},
    "P29": {},
}

#: extra parameter sets exercising the sign branches of the P6 theory
P6_VARIANTS = [
    dict(a=1.0, d=-1.0, e=2.0),
    dict(a=1.0, d=0.0, e=2.0),
    dict(a=0.5, d=1.0, e=3.0),
]

CONSTRUCTIVE = [
    ("P3", {}),
    ("P4", {}),
    ("P5", {}),
    ("P6", P6_VARIANTS[0]),
    ("P6", P6_VARIANTS[1]),
    ("P6", P6_VARIANTS[2]),
    ("P12", CASE_PARAMS["P12"]),
    ("P13", {}),
]


@functools.lru_cache(maxsize=1)
def bench_corpus():
    """bench/corpus.py, which is imported, not edited."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def rounding_bound(p, L):
    """n * u * sum |p_m beta_m|, n the number of terms of p, u = 2^-53: the
    bound decide's witness value must clear."""
    return len(p.coeffs) * 2.0**-53 * sum(abs(c * L.beta[m]) for m, c in p.coeffs.items())


def reference_verify(mu, L):
    """measure.verify as a loop over L's moments and the measure's atoms: the
    deviation |m - beta| / max(1, |beta|), each moment summed over the atoms
    in order, the largest kept by the built-in max."""
    worst = 0.0
    for (i, j), b in L.beta.items():
        s = sum(a.w * a.x**i * a.y**j for a in mu.atoms)
        worst = max(worst, abs(s - b) / max(1.0, abs(b)))
    return worst


def every_case():
    return [make_case(cid, params) for cid, params in CASE_PARAMS.items()]


@pytest.fixture(scope="session")
def all_cases():
    return every_case()


def rel_err(a, b):
    return abs(a - b) / (1.0 + abs(b))


def reference_product(u, v, f, case, k):
    """product_on_curve by its definition, on BivarPoly and without a table.

    Numerator and denominator of u * v * f are taken left to right and
    reduced by normal_low's rewrite. A constant denominator c scales the
    numerator by 1/c; any other one is solved for by least squares over the
    columns x^i y^j * den (i + j <= 2k, irreducible), one row per monomial of
    the columns and the numerator in sorted order, and the solution is
    chopped at 1e-11 of its largest coefficient."""
    from tmp3.poly import BivarPoly, _product, _rewrite_low, as_rational, low_monomials

    u, v, f = as_rational(u), as_rational(v), as_rational(f)
    num = _rewrite_low(_product(u.numerator, v.numerator, f.numerator), case)
    den = _rewrite_low(_product(u.denominator, v.denominator, f.denominator), case)
    if num.is_zero():
        return BivarPoly.zero()
    if den.degree() == 0:
        res = num * (1.0 / den.coeffs[(0, 0)])
        return res if res.degree() <= 2 * k else None
    mons = low_monomials(case, 2 * k)
    cols = [_rewrite_low(BivarPoly.monomial(i, j) * den, case) for i, j in mons]
    idx = {m: r for r, m in enumerate(sorted(set(num.coeffs).union(*(c.coeffs for c in cols))))}
    A = np.zeros((len(idx), len(cols)))
    for c_i, c in enumerate(cols):
        for m, val in c.coeffs.items():
            A[idx[m], c_i] = val
    b = np.zeros(len(idx))
    for m, val in num.coeffs.items():
        b[idx[m]] = val
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.linalg.norm(A @ sol - b) > 1e-8 * max(1.0, np.linalg.norm(b)):
        return None
    p = BivarPoly(dict(zip(mons, sol)))
    return p.chop(1e-11 * max(1.0, p.max_abs_coeff()))


def clear_tables():
    """Empty the symbolic tables that compiled forms and products read."""
    from tmp3 import bases, moment, poly

    for fn in (moment._form, poly._shift_index, poly._normal, poly._quotient, poly._divide,
               poly._division_matrix, bases._basis_Bk, bases._combined_lift_cached):
        fn.cache_clear()

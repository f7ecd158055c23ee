"""Moment functionals on plane cubics and the full decision engine.

A functional is given by its moments beta[i, j] up to degree 2k.  The
engine assembles the moment matrix over B_k and the localizing matrix
over V^(k) (three matrices for the non-real-intersection cases), then
dispatches: positive definiteness settles the nonsingular problem, and
the per-case singular branches use rank restrictions on the univariate
lift, the one-point-mass split at the isolated point, or the unique
degree-(2k+2) extension on the smooth Weierstrass forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .bases import basis_Bk, basis_Rk1, basis_Vk, combined_lift
from .curves import CurveCase, chi_flags
from .linalg import Interval, SymmetricForm, Tolerances
from .poly import BivarPoly, RationalElem, UnivarPoly, normal_low, product_on_curve

_M = BivarPoly.monomial


class IdealViolation(ValueError):
    """The sequence does not vanish on the curve ideal."""


class IncompleteMoments(ValueError):
    pass


@dataclass(frozen=True)
class MomentSequence:
    case: CurveCase
    k: int
    beta: dict

    def __post_init__(self):
        for d in range(2 * self.k + 1):
            for i in range(d + 1):
                if (i, d - i) not in self.beta:
                    raise IncompleteMoments(f"missing moment ({i}, {d - i})")

    def scale(self):
        return max(1.0, max(abs(v) for v in self.beta.values()))

    def value(self, p: BivarPoly):
        """L(p); p must have degree <= 2k."""
        out = 0.0
        for (i, j), c in p.coeffs.items():
            out += c * self.beta[(i, j)]
        return out

    def perturbed(self, delta: dict):
        b = dict(self.beta)
        for key, v in delta.items():
            b[key] = b.get(key, 0.0) + v
        return MomentSequence(self.case, self.k, b)


@dataclass(frozen=True)
class Check:
    name: str
    kind: str  # psd | pd | rank-eq | interval | range | root-avoidance | residual
    passed: bool
    margin: float


@dataclass
class Decision:
    verdict: str  # MomentFunctional | MomentFunctionalOnNonIsolated |
    #              NotMomentFunctional | Inconclusive
    details: list = field(default_factory=list)
    completion_interval: Interval | None = None
    witness_available: bool = False
    note: str = ""
    # internal payloads for witness/extract
    _witness: tuple | None = None
    o_weight: float = 0.0
    singular_branch: str = ""

    def passed(self):
        return self.verdict in ("MomentFunctional", "MomentFunctionalOnNonIsolated")

    def exit_code(self):
        if self.passed():
            return 0
        return 1 if self.verdict == "NotMomentFunctional" else 2


@dataclass(frozen=True)
class DecideOptions:
    tol: Tolerances = linalg.DEFAULT_TOL
    ideal_tol: float = 1e-7


# ---------------------------------------------------------------------------
# Assembly


def check_ideal_vanishing(L: MomentSequence) -> float:
    """max |L(x^a y^b * P)| over a + b <= 2k - 3, relative to the scale."""
    P = L.case.defining_poly()
    worst = 0.0
    for d in range(0, 2 * L.k - 3 + 1):
        for a in range(d + 1):
            b = d - a
            worst = max(worst, abs(L.value(_M(a, b) * P)))
    return worst


def _products(case: CurveCase, k: int, which: str):
    return _products_cached(case.key(), k, which, case)


@lru_cache(maxsize=512)
def _products_cached(case_key, k, which, case):
    """Reduced polynomial representatives for all basis pair products."""
    one = RationalElem(BivarPoly.const(1.0), BivarPoly.const(1.0))
    if which == "Bk":
        els = basis_Bk(case, k).elements
        f = one
    elif which == "Vk":
        els = basis_Vk(case, k).elements
        f = case.multiplier().f
    elif which == "lift":
        els = combined_lift(case, k).elements
        f = one
    else:
        raise ValueError(which)
    n = len(els)
    out = [[None] * n for _ in range(n)]
    for r in range(n):
        for s in range(r, n):
            p = product_on_curve(els[r].rat, els[s].rat, f, case, k)
            out[r][s] = out[s][r] = None if p is None else dict(p.coeffs)
    return tuple(tuple(row) for row in out)


def _assemble(L: MomentSequence, which: str, labels, unknown_expected=None):
    prods = _products(L.case, L.k, which)
    n = len(prods)
    m = np.zeros((n, n))
    unknown = None
    for r in range(n):
        for s in range(r, n):
            p = prods[r][s]
            if p is None:
                if unknown_expected is None:
                    raise AssertionError(
                        f"undetermined {which} entry ({labels[r]}, {labels[s]}) "
                        f"for {L.case.id}")
                if unknown is not None and unknown != (r, s):
                    raise AssertionError("more than one undetermined entry pair")
                unknown = (r, s)
                continue
            v = sum(c * L.beta[key] for key, c in p.items())
            m[r, s] = m[s, r] = v
    if unknown_expected is not None:
        assert unknown == unknown_expected, (unknown, unknown_expected)
    return SymmetricForm(list(labels), m, unknown)


def moment_matrix(L: MomentSequence) -> SymmetricForm:
    """Matrix of L(u*v) over basis_Bk; fully determined for every case."""
    resid = check_ideal_vanishing(L)
    if resid > 1e-6 * L.scale():
        raise IdealViolation(f"ideal residual {resid:.3g}")
    b = basis_Bk(L.case, L.k)
    return _assemble(L, "Bk", b.labels())


def localizing_matrix(L: MomentSequence) -> SymmetricForm:
    """Matrix of L(f*u*v) over basis_Vk (partial basis for P10/P11)."""
    b = basis_Vk(L.case, L.k)
    return _assemble(L, "Vk", b.labels())


def _v2_gram(L, chi, fac, els):
    n = len(els)
    m = np.zeros((n, n))
    for r in range(n):
        for s in range(r, n):
            p = normal_low(els[r].rat.numerator * els[s].rat.numerator * fac, L.case)
            m[r, s] = m[s, r] = chi * L.value(p)
    return SymmetricForm([e.label for e in els], m)


def localizing_matrices_v2(L: MomentSequence):
    """(M1 with chi1*P1, M2 with chi2*P2) over basis_Rk1; M1 None if chi1=0."""
    case = L.case
    c1, c2 = chi_flags(case)
    f1, f2 = case.factors()[0], case.factors()[1]
    els = basis_Rk1(case, L.k).elements
    m1 = None if c1 == 0 else _v2_gram(L, c1, f1, els)
    m2 = _v2_gram(L, c2, f2, els)
    return m1, m2


def _v2_quotient_elements(case, k):
    """Bases of the factor quotients of the degree-(k-1) functions.

    Multiplication by one factor kills the other component, so strict
    local positivity lives on polynomial functions of the opposite
    component: degree <= k-1 on the conic (dimension 2k-1) for the
    line factor, and on the line (dimension k) for the conic factor.
    """
    from .bases import BasisElement

    conic = [BasisElement.monomial(i, 0) for i in range(k)]
    conic += [BasisElement.monomial(i, 1) for i in range(k - 1)]
    line = [BasisElement.monomial(i, 0) for i in range(k)]
    return conic, line


def lift_matrix(L: MomentSequence) -> SymmetricForm:
    """Partial (3k+1) x (3k+1) union-basis matrix with one unknown pair."""
    lift = combined_lift(L.case, L.k)
    labels = [e.label for e in lift.elements]
    return _assemble(L, "lift", labels, unknown_expected=lift.unknown)


def hankel_from_lift(L: MomentSequence, value: float):
    """Classical Hankel congruent to the completed lift matrix.

    With N the numerator-coefficient matrix of the lift basis, the lifted
    Gram matrix is N H N^T; H holds the weighted moments m_0..m_(6k).
    """
    lift = combined_lift(L.case, L.k)
    M = lift_matrix(L).with_value(value).known()
    n = len(lift.elements)
    N = np.zeros((n, n))
    for r, num in enumerate(lift.numerators):
        for i, c in enumerate(num.coeffs):
            N[r, i] = c
    Ninv = np.linalg.inv(N)
    H = Ninv @ M @ Ninv.T
    # enforce the exact Hankel structure by antidiagonal averaging
    m = np.zeros(2 * n - 1)
    cnt = np.zeros(2 * n - 1)
    for i in range(n):
        for j in range(n):
            m[i + j] += H[i, j]
            cnt[i + j] += 1
    m /= cnt
    return m


def generating_polynomial(H) -> UnivarPoly:
    """Monic lowest-degree polynomial whose coefficients lie in ker H."""
    M = H.known() if isinstance(H, SymmetricForm) else np.asarray(H, dtype=float)
    n = M.shape[0]
    scale = max(1.0, float(np.max(np.abs(M))))
    for r in range(n):
        A = M[:, :r]
        col = M[:, r]
        if r == 0:
            if np.linalg.norm(col) <= 1e-10 * scale:
                return UnivarPoly([1.0])
            continue
        sol, *_ = np.linalg.lstsq(A, col, rcond=None)
        if np.linalg.norm(A @ sol - col) <= 1e-8 * scale:
            return UnivarPoly(list(-sol) + [1.0])
    raise ValueError("matrix has trivial kernel")


# ---------------------------------------------------------------------------
# Decision engine


def decide(L: MomentSequence, opts: DecideOptions | None = None) -> Decision:
    opts = opts or DecideOptions()
    tol = opts.tol
    checks = []
    resid = check_ideal_vanishing(L)
    scale = L.scale()
    if resid > opts.ideal_tol * scale:
        raise IdealViolation(f"ideal residual {resid:.3g} exceeds {opts.ideal_tol:.1g}*scale")
    checks.append(Check("ideal_vanishing", "residual", True, -resid / scale))

    case = L.case
    MB = _assemble(L, "Bk", basis_Bk(case, L.k).labels())
    mb = linalg.psd_margin(MB.known())
    mb_pd = mb >= tol.pd
    mb_psd = mb >= -tol.psd
    checks.append(Check("moment_matrix_pd", "pd", mb_pd, mb))

    if case.is_v2():
        return _decide_v2(L, MB, mb, checks, tol)
    if case.id == "P5":
        return _decide_p5(L, MB, mb, checks, tol)

    MV = localizing_matrix(L)
    vb = basis_Vk(case, L.k)
    mv = linalg.psd_margin(MV.known())
    mv_pd = mv >= tol.pd
    mv_psd = mv >= -tol.psd
    checks.append(Check("localizing_matrix_pd", "pd", mv_pd, mv))

    if not mb_psd:
        return _refuted(L, checks, ("moment", MB))
    if not mv_psd:
        return _refuted(L, checks, ("localizing", MV))

    dec = None
    if mb_pd and mv_pd:
        dec = Decision("MomentFunctional", checks)
        if case.is_constructive():
            ivl = completion_interval_for(L, mode="pd")
            checks.append(Check("completion_interval", "interval",
                                not ivl.empty, ivl.width if not ivl.empty else -1.0))
            dec.completion_interval = ivl
            if ivl.empty:
                dec.verdict = "Inconclusive"
                dec.note = "pd checks passed but no pd completion was found"
        if vb.partial:
            dec.verdict = "Inconclusive"
            dec.note = ("necessary conditions only: the localizing basis for this case "
                        "is missing its Riemann-Roch element")
        return dec

    # singular routes
    if case.id in ("P1", "P2"):
        return _decide_elliptic_singular(L, MB, MV, checks, tol)
    if case.id in ("P4", "P6", "P12"):
        dec = _decide_lift_singular(L, checks, tol)
        if dec.verdict != "Inconclusive":
            return dec
        return _constructive_fallback(L, dec.details, tol) or dec
    if case.is_constructive():
        dec = _constructive_fallback(L, checks, tol)
        if dec is not None:
            return dec
    dec = Decision("Inconclusive", checks)
    dec.note = "borderline psd data; no singular theory implemented for this case"
    return dec


def _constructive_fallback(L, checks, tol, o_weight=0.0):
    """Certify borderline psd data by exhibiting a verified measure.

    For the constructively solved cases an extraction that reproduces the
    moments is a proof of existence regardless of eigenvalue margins.
    """
    from . import measure as _measure

    prov = Decision("MomentFunctional", list(checks))
    prov.o_weight = o_weight
    try:
        mu = _measure.extract(L, decision=prov)
    except Exception:
        return None
    resid = _measure.verify(mu, L)
    checks = list(checks)
    checks.append(Check("constructive_witness", "residual", resid < 1e-6,
                        -resid))
    if resid >= 1e-6:
        return None
    dec = Decision("MomentFunctional", checks)
    dec.o_weight = o_weight
    dec.singular_branch = "constructive_witness"
    dec.note = "borderline margins certified by an explicitly recovered measure"
    dec.completion_interval = completion_interval_for(L, mode="psd")
    return dec


def _refuted(L, checks, source):
    dec = Decision("NotMomentFunctional", checks, witness_available=True)
    dec._witness = source
    return dec


def _decide_v2(L, MB, mb, checks, tol):
    """Non-real-intersection cases: moment matrix plus the two factor forms.

    Each factor form is tested on the quotient basis of the opposite
    component; the full degree-(k-1) form always carries the other
    component's functions in its kernel.
    """
    case = L.case
    c1, c2 = chi_flags(case)
    f1, f2 = case.factors()[0], case.factors()[1]
    conic_els, line_els = _v2_quotient_elements(case, L.k)
    ok = mb >= tol.pd
    borderline = mb >= -tol.psd and not ok
    if mb < -tol.psd:
        return _refuted(L, checks, ("moment", MB))
    mats = []
    if c1 != 0:
        m1 = _v2_gram(L, c1, f1, conic_els)
        mats.append(("localizing_chi1_pd", m1, ("v2", 0, m1, conic_els)))
    m2 = _v2_gram(L, c2, f2, line_els)
    mats.append(("localizing_chi2_pd", m2, ("v2", 1, m2, line_els)))
    for name, m, wit in mats:
        mg = linalg.psd_margin(m.known())
        checks.append(Check(name, "pd", mg >= tol.pd, mg))
        if mg < -tol.psd:
            return _refuted(L, checks, wit)
        if mg < tol.pd:
            borderline = True
    if ok and not borderline:
        return Decision("MomentFunctional", checks)
    dec = Decision("Inconclusive", checks)
    dec.note = "singular data on a reducible case the theory leaves open"
    return dec


# -- constructive singular branches (rank restrictions on the lift) ---------


def _lift_rows(L):
    lift = combined_lift(L.case, L.k)
    n = len(lift.elements)
    rows_B = [i for i in range(n) if i != lift.b_drop]
    rows_V = [i for i in range(n) if i != lift.v_drop]
    return lift, rows_B, rows_V


def _rank_eq(Mfull, Msub, tol):
    r_full = linalg.numeric_rank(Mfull, tol.rank)
    r_sub = linalg.numeric_rank(Msub, tol.rank)
    return r_full == r_sub, float(r_sub - r_full)


def _decide_lift_singular(L, checks, tol):
    """Singular branches for P4, P6 and P12 via lift-basis rank equalities."""
    case = L.case
    _, rows_B, rows_V = _lift_rows(L)
    PM = lift_matrix(L)
    MBl = PM.restrict(rows_B).known()
    MVl = PM.restrict(rows_V).known()

    def sub(rows, drop_label_idx):
        rows2 = [r for r in rows if r != drop_label_idx]
        return PM.restrict(rows2).known()

    if case.id == "P12":
        # drop the top q-element (index 0) resp. the top tilde element (1)
        drop_B, drop_V = 0, 1
    else:  # P4, P6: drop the last element (y^k for P6) from either side
        drop_B = drop_V = PM.size - 1
    okA, gA = _rank_eq(MBl, sub(rows_B, drop_B), tol)
    okB, gB = _rank_eq(MVl, sub(rows_V, drop_V), tol)
    checks.append(Check("rank_restriction_B", "rank-eq", okA, gA))
    checks.append(Check("rank_restriction_V", "rank-eq", okB, gB))
    passed = okA or okB
    branch = "rank_B" if okA else ("rank_V" if okB else "")
    if case.id == "P6":
        d = case.params["d"]
        if d == 0.0:
            okU, gU = _rank_eq(MBl, sub(rows_B, 0), tol)
            checks.append(Check("rank_restriction_drop_xk", "rank-eq", okU, gU))
            passed = okU and (okA or okB)
        elif d > 0.0:
            ok_root, margin = _p6_root_avoidance(L, tol)
            checks.append(Check("root_avoidance_sqrt_d", "root-avoidance",
                                ok_root, margin))
            passed = passed and ok_root
    if passed:
        dec = Decision("MomentFunctional", checks)
        dec.singular_branch = branch
        dec.completion_interval = completion_interval_for(L, mode="psd")
        return dec
    dec = Decision("Inconclusive", checks)
    dec.note = "psd but the singular rank conditions fail; by the case theorem " \
               "this indicates no representing measure (reported conservatively)"
    return dec


def _p6_root_avoidance(L, tol):
    d = L.case.params["d"]
    ivl = completion_interval_for(L, mode="psd")
    if ivl.empty:
        return False, -1.0
    m = hankel_from_lift(L, ivl.midpoint())
    n = (len(m) + 1) // 2
    H = np.array([[m[i + j] for j in range(n)] for i in range(n)])
    try:
        g = generating_polynomial(H)
    except ValueError:
        return True, math.inf  # trivial kernel: nothing to avoid
    rd = math.sqrt(d)
    dist = math.inf
    if g.degree() >= 1:
        roots = np.roots(list(reversed(g.coeffs)))
        for r in roots:
            if abs(r.imag) < 1e-6 * (1 + abs(r)):
                dist = min(dist, abs(r.real - rd), abs(r.real + rd))
    return dist > 1e-6, dist


def completion_interval_for(L: MomentSequence, mode="psd") -> Interval:
    """Completion interval of the single unknown entry of the lifted matrix."""
    return linalg.completion_interval(lift_matrix(L), mode=mode)


# -- isolated-point case -----------------------------------------------------


def _p5_schur_data(L):
    PM = lift_matrix(L)
    M = PM.entries
    rest = list(range(2, PM.size))
    Bblk = M[np.ix_(rest, rest)]
    a = M[0, rest]
    b = M[1, rest]
    Bp = linalg.pinv_cutoff(Bblk)
    sigma1 = float(M[0, 0] - a @ Bp @ a)
    sigma2 = float(M[1, 1] - b @ Bp @ b)
    range_b = float(np.linalg.norm(Bblk @ (Bp @ b) - b))
    range_a = float(np.linalg.norm(Bblk @ (Bp @ a) - a))
    return PM, Bblk, sigma1, sigma2, range_a, range_b


def _p5_shift(L: MomentSequence, lam: float) -> MomentSequence:
    """L - lam * (evaluation at the isolated point (0,0))."""
    return L.perturbed({(0, 0): -lam})


def _p5_no_origin_singular(L, checks, tol, tag=""):
    """Rank conditions of the measure-avoiding-the-origin theorem."""
    lift, rows_B, rows_V = _lift_rows(L)
    PM = lift_matrix(L)
    MBl = PM.restrict(rows_B).known()
    MVl = PM.restrict(rows_V).known()
    okP = linalg.psd_margin(MBl) >= -tol.psd and linalg.psd_margin(MVl) >= -tol.psd
    last = PM.size - 1
    okA, gA = _rank_eq(MBl, PM.restrict([r for r in rows_B if r != last]).known(), tol)
    okB, gB = _rank_eq(MVl, PM.restrict([r for r in rows_V if r != last]).known(), tol)
    checks.append(Check(f"rank_restriction_B{tag}", "rank-eq", okA, gA))
    checks.append(Check(f"rank_restriction_V{tag}", "rank-eq", okB, gB))
    return okP and (okA or okB), ("rank_B" if okA else "rank_V" if okB else "")


def _decide_p5(L, MB, mb, checks, tol):
    """Isolated-point engine: split off a point mass at the origin as needed.

    The localizing form over the tilde space is NOT a necessary condition
    here: a point mass at the origin may push it indefinite.  Necessary
    are the moment matrix, the common Schur block B, and b in range(B).
    """
    case = L.case
    PM, Bblk, sigma1, sigma2, range_a, range_b = _p5_schur_data(L)
    scale = L.scale()
    bpsd = linalg.psd_margin(Bblk)
    checks.append(Check("schur_block_psd", "psd", bpsd >= -tol.psd, bpsd))
    checks.append(Check("b_in_range", "range", range_b <= 1e-6 * scale, -range_b / scale))

    if mb < -tol.psd:
        return _refuted(L, checks, ("moment", MB))
    if bpsd < -tol.psd:
        tilde = combined_lift(case, L.k).elements[2:]
        form = SymmetricForm([e.label for e in tilde], Bblk)
        return _refuted(L, checks, ("localizing", form))
    if range_b > 1e-6 * scale:
        return Decision("Inconclusive", checks,
                        note="b outside the range of the Schur block")

    if mb >= tol.pd:
        checks.append(Check("sigma2_positive", "pd", sigma2 > -tol.psd * scale,
                            sigma2 / scale))
        if sigma2 > -tol.psd * scale:
            dec = Decision("MomentFunctionalOnNonIsolated", checks)
            dec.completion_interval = completion_interval_for(L, mode="psd")
            dec.singular_branch = "nonsingular"
            return dec
        checks.append(Check("sigma1_exceeds_minus_sigma2", "pd",
                            sigma1 > -sigma2 - tol.psd * scale, (sigma1 + sigma2) / scale))
        if sigma1 > -sigma2 - tol.psd * scale:
            lam = max(0.5 * (sigma1 + sigma2), 0.0)
            dec = Decision("MomentFunctional", checks)
            dec.o_weight = lam
            dec.singular_branch = "origin_split"
            return dec
        lam0 = sigma1
        checks.append(Check("lambda0_nonneg", "pd", lam0 >= -tol.psd * scale, lam0 / scale))
        if lam0 >= -tol.psd * scale:
            ok, br = _p5_no_origin_singular(
                _p5_shift(L, max(lam0, 0.0)), checks, tol, tag="_lambda0")
            if ok:
                dec = Decision("MomentFunctional", checks)
                dec.o_weight = max(lam0, 0.0)
                dec.singular_branch = f"lambda0:{br}"
                return dec
        return _refuted_p5_sigma(L, checks, sigma1, sigma2, scale, tol)

    # singular moment matrix: prefer a measure avoiding the isolated point,
    # then the lambda0 point-mass branch of the singular theorem
    ok0, br0 = _p5_no_origin_singular(L, checks, tol, tag="")
    if ok0:
        dec = Decision("MomentFunctional", checks)
        dec.singular_branch = f"no_origin:{br0}"
        return dec
    dec = _constructive_fallback(L, checks, tol, o_weight=0.0)
    if dec is not None:
        return dec
    lam0 = sigma1
    checks.append(Check("lambda0_nonneg", "pd", lam0 >= -tol.psd * scale, lam0 / scale))
    if lam0 < -tol.psd * scale:
        return Decision("Inconclusive", checks,
                        note="singular moment matrix with negative point-mass weight")
    ok, br = _p5_no_origin_singular(_p5_shift(L, max(lam0, 0.0)), checks, tol, tag="_lambda0")
    if ok:
        dec = Decision("MomentFunctional", checks)
        dec.o_weight = max(lam0, 0.0)
        dec.singular_branch = f"lambda0:{br}"
        return dec
    dec = _constructive_fallback(L, checks, tol, o_weight=max(lam0, 0.0))
    if dec is not None:
        return dec
    return Decision("Inconclusive", checks,
                    note="singular isolated-point data outside the theorem branches")


def _refuted_p5_sigma(L, checks, sigma1, sigma2, scale, tol):
    """All three isolated-point branches failed with clear margins."""
    if sigma1 < -tol.psd * scale or sigma1 + sigma2 < -1e-6 * scale:
        dec = Decision("NotMomentFunctional", checks, witness_available=False)
        dec.note = "the point-mass interval at the isolated point is empty"
        return dec
    return Decision("Inconclusive", checks, note="borderline isolated-point data")


# -- smooth Weierstrass singular branch --------------------------------------


def _deg_c(i, j):
    return 2 * i + 3 * j


def _mono_of_deg_c(d):
    """The unique monomial x^i y^j with i <= 2 and 2i + 3j = d (d != 1)."""
    if d == 0:
        return (0, 0)
    r = d % 3
    if r == 0:
        return (0, d // 3)
    if r == 2:
        return (1, (d - 2) // 3)
    if d < 4:
        raise ValueError("no monomial of curve-degree 1")
    return (2, (d - 4) // 3)


def _min_degc_kernel_vector(M, elements, tol):
    """Kernel element whose highest curve-degree coordinate is minimal."""
    K = linalg.kernel_basis(M, tol.rank)
    if K.shape[1] == 0:
        return None
    degs = []
    for e in elements:
        if e.kind == "rational":
            degs.append(1)  # y/x
        else:
            degs.append(_deg_c(*e.exps))
    order = np.argsort(-np.asarray(degs))  # highest degree first
    V = K[order, :].copy()
    # column-reduce so later columns have zeros in earlier (higher-deg) rows
    cols = V.shape[1]
    rowp = 0
    for c in range(cols):
        piv = None
        for r in range(rowp, V.shape[0]):
            col_abs = np.abs(V[r, c:])
            if col_abs.max() > 1e-12:
                piv = c + int(np.argmax(col_abs))
                break
        if piv is None:
            break
        V[:, [c, piv]] = V[:, [piv, c]]
        V[:, c] /= V[r, c]
        for cc in range(cols):
            if cc != c:
                V[:, cc] -= V[r, cc] * V[:, c]
        rowp = r + 1
    best = V[:, -1]
    out = np.zeros(len(elements))
    out[order] = best
    n = np.linalg.norm(out)
    return out / n if n > 0 else None


def _decide_elliptic_singular(L, MB, MV, checks, tol):
    """Unique square-positive extension to level k+1 for P1/P2.

    The kernel element of least curve degree pins six new values through
    the orthogonality of its monomial multiples; below-window multiples
    give consistency residuals.  The data is a moment functional exactly
    when the system is consistent and the extended pair of matrices at
    level k+1 stays psd.
    """
    case, k = L.case, L.k
    scale = L.scale()
    mb = linalg.psd_margin(MB.known())
    b_els = basis_Bk(case, k).elements
    v_els = basis_Vk(case, k).elements

    vals = {}
    for d in range(0, 6 * k + 1):
        if d == 1:
            continue
        i, j = _mono_of_deg_c(d)
        vals[d] = L.value(normal_low(_M(i, j), case))

    extra_residuals = []
    if mb < tol.pd:
        vec = _min_degc_kernel_vector(MB.known(), b_els, tol)
        if vec is None:
            return Decision("Inconclusive", checks, note="no numerical kernel found")
        gen = BivarPoly.zero()
        for c, e in zip(vec, b_els):
            gen = gen + float(c) * e.rat.numerator
        gen = normal_low(gen, case)
        branch = "singular"
    else:
        vec = _min_degc_kernel_vector(MV.known(), v_els, tol)
        if vec is None:
            return Decision("Inconclusive", checks, note="no numerical kernel found")
        # gen = x * p_lgen is polynomial (x clears the y/x element)
        gen = BivarPoly.zero()
        for c, e in zip(vec, v_els):
            cleared = product_on_curve(
                e.rat, poly_one_rational(), rational_of(BivarPoly.x()), case, k + 1)
            gen = gen + float(c) * cleared
        gen = normal_low(gen, case)
        branch = "locally_singular"
        # consistency relation from the rational tilde-element: L(y * p_lgen) = 0,
        # realized as L((y/x) * gen) with a polynomial representative.
        yrel = product_on_curve(
            rational_of(gen), poly_one_rational(),
            _yx_rational(), case, k + 1)
        if yrel is not None:
            extra_residuals.append(abs(L.value(yrel)))

    if gen.is_zero():
        return Decision("Inconclusive", checks, note="degenerate kernel element")
    dg = max(_deg_c(i, j) for (i, j) in gen.coeffs)
    new_ds = set(range(6 * k + 1, 6 * k + 7))
    resid_max = max(extra_residuals, default=0.0)
    for w in [w for w in range(0, 6 * k + 7 - dg) if w != 1]:
        prod = normal_low(_M(*_mono_of_deg_c(w)) * gen, case)
        acc = 0.0
        unk = {}
        for (i, j), c in prod.coeffs.items():
            d = _deg_c(i, j)
            if d in vals:
                acc += c * vals[d]
            else:
                unk[d] = unk.get(d, 0.0) + c
        if not unk:
            resid_max = max(resid_max, abs(acc))
            continue
        if len(unk) > 1:
            return Decision("Inconclusive", checks, note="coupled extension system")
        (d_new, coeff), = unk.items()
        if d_new not in new_ds or abs(coeff) < 1e-12:
            return Decision("Inconclusive", checks, note="degenerate extension system")
        vals[d_new] = -acc / coeff
    consistent = resid_max <= 1e-7 * scale
    checks.append(Check("extension_consistent", "residual", consistent,
                        -resid_max / scale))
    if not consistent:
        dec = Decision("NotMomentFunctional", checks, witness_available=False)
        dec.note = "the unique singular extension is inconsistent with the data"
        return dec
    for d in range(6 * k + 1, 6 * k + 7):
        vals.setdefault(d, 0.0)

    beta_ext = {}
    for d2 in range(0, 2 * (k + 1) + 1):
        for i in range(d2 + 1):
            j = d2 - i
            p = normal_low(_M(i, j), case)
            beta_ext[(i, j)] = sum(c * vals[_deg_c(a, b)] for (a, b), c in p.coeffs.items())
    Lext = MomentSequence(case, k + 1, beta_ext)
    MB1 = _assemble(Lext, "Bk", basis_Bk(case, k + 1).labels())
    MV1 = _assemble(Lext, "Vk", basis_Vk(case, k + 1).labels())
    m1 = linalg.psd_margin(MB1.known())
    m2 = linalg.psd_margin(MV1.known())
    checks.append(Check("extension_moment_psd", "psd", m1 >= -tol.psd, m1))
    checks.append(Check("extension_localizing_psd", "psd", m2 >= -tol.psd, m2))
    if m1 >= -tol.psd and m2 >= -tol.psd:
        dec = Decision("MomentFunctional", checks)
        dec.singular_branch = f"elliptic_extension:{branch}"
        return dec
    dec = Decision("NotMomentFunctional", checks, witness_available=False)
    dec.note = "the unique extension fails positivity"
    return dec


def poly_one_rational():
    return RationalElem(BivarPoly.const(1.0), BivarPoly.const(1.0))


def rational_of(p: BivarPoly):
    return RationalElem(p, BivarPoly.const(1.0))


def _yx_rational():
    return RationalElem(BivarPoly.y(), BivarPoly.x())

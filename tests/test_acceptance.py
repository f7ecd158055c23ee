"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import functools

import numpy as np

from conftest import CASE_PARAMS, P6_VARIANTS
from tmp3 import linalg, make_case
from tmp3.bases import basis_Bk, basis_Rk1, basis_Vk, combined_lift
from tmp3.curves import chi_flags, multiplier, parametrization, sample_points
from tmp3.linalg import SymmetricForm, completion_interval
from tmp3.measure import (
    Atom,
    AtomicMeasure,
    ExtractOptions,
    extract,
    generate,
    generate_measure,
    sampled_min_on_curve,
    verify,
    witness,
)
from tmp3.moment import (
    MomentSequence,
    check_ideal_vanishing,
    decide,
    lift_matrix,
    localizing_matrix,
    moment_matrix,
)
from tmp3.poly import BivarPoly

_M = BivarPoly.monomial

ROUNDTRIP_CASES = [
    ("P3", {}),
    ("P4", {}),
    ("P5", {}),
    ("P6", P6_VARIANTS[0]),  # d < 0
    ("P6", P6_VARIANTS[1]),  # d = 0
    ("P6", P6_VARIANTS[2]),  # d > 0
    ("P12", CASE_PARAMS["P12"]),
    ("P13", {}),
]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"[criterion {num}] FAIL - {desc}")
                raise
            print(f"[criterion {num}] PASS - {desc}")
        return wrapper
    return deco


@criterion(1, "alpha anchors for the two smooth non-Weierstrass examples")
def test_criterion_1_alpha_anchors():
    m10 = multiplier(make_case("P10", dict(a=100.0, c=-5.0, d=-1.0, e=3.0)))
    assert m10.source_cubic.coeffs == [62494.0, -10014.0, 2.0, 1.0]
    assert abs(m10.alpha + 104.033) <= 1e-2
    m11 = multiplier(make_case("P11", dict(a=1.0, c=-7.0, d=1.0, e=3.0)))
    assert m11.source_cubic.coeffs == [24.25, -19.0, -2.0, 1.0]
    assert abs(m11.alpha + 4.091) <= 1e-2


@criterion(2, "determined localizing entries match the measure-side formulas")
def test_criterion_2_determined_entries():
    case = make_case("P1", dict(a=1.0, b=2.0))
    mu = generate_measure(case, 9, 3, seed=23)
    L = MomentSequence(case, 3, mu.moments(3))
    MV = localizing_matrix(L)
    lab = MV.labels
    i1, i2 = lab.index("x^2y"), lab.index("xy^2")

    def raw(i, j):
        return sum(a.w * a.x**i * a.y**j for a in mu.atoms)

    pairs = [
        (MV.known()[i1, i1], raw(2, 4) + 3 * raw(4, 2) - 2 * raw(3, 2)),
        (MV.known()[i1, i2], raw(1, 5) + 3 * raw(3, 3) - 2 * raw(2, 3)),
        # the x y^4 moment enters the third identity (the x y^3 index printed
        # at the source is inconsistent with the curve relation's degrees)
        (MV.known()[i2, i2], raw(0, 6) + 3 * raw(2, 4) - 2 * raw(1, 4)),
    ]
    for got, want in pairs:
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


@criterion(3, "Hankel index map for the twisted-cubic-style case is exact")
def test_criterion_3_gamma_index_map():
    case = make_case("P13")
    k = 3
    L, mu = generate(case, k, n_atoms=9, seed=31)
    lift = combined_lift(case, k)
    assert len(lift.elements) == 3 * k + 1
    PM = lift_matrix(L)
    # gamma_7 = beta_{1,2} and gamma_i = beta_{i mod 3, floor(i/3)} for i <= 18
    M = PM.entries
    for r in range(PM.size):
        for s in range(PM.size):
            i = r + s
            if (min(r, s), max(r, s)) == PM.unknown:
                continue
            assert M[r, s] == L.beta[(i % 3, i // 3)]
    assert M[3, 4] == L.beta[(1, 2)]  # gamma_7


@criterion(4, "380 seeded round trips: decide, extract, verify, atom bound")
def test_criterion_4_roundtrip():
    for cid, params in ROUNDTRIP_CASES:
        case = make_case(cid, params)
        for k in range(case.k_min, 4):
            for seed in range(20):
                L, mu = generate(case, k, n_atoms=3 * k, seed=seed)
                dec = decide(L)
                assert dec.passed(), (cid, params, k, seed, dec.verdict, dec.note)
                rec = extract(L, decision=dec)
                resid = verify(rec, L)
                assert resid < 1e-6, (cid, k, seed, resid)
                assert len(rec) <= 3 * k + 1, (cid, k, seed, len(rec))


@criterion(5, "perturbed data refuted with a sound separating witness, all 29 cases")
def test_criterion_5_negative_soundness():
    for cid, params in CASE_PARAMS.items():
        case = make_case(cid, params)
        k = max(case.k_min, 2)
        L, mu = generate(case, k, n_atoms=3 * k, seed=3)
        x0, y0, _ = sample_points(case, 1, seed=17)[0]
        point = {key: x0 ** key[0] * y0 ** key[1] for key in L.beta}
        L2 = None
        delta = 0.05
        for _ in range(80):
            cand = L.perturbed({key: -delta * v for key, v in point.items()})
            if linalg.psd_margin(moment_matrix(cand).known()) < -1e-4:
                L2 = cand
                break
            delta *= 1.7
        assert L2 is not None, cid
        dec = decide(L2)
        assert dec.verdict == "NotMomentFunctional", (cid, dec.verdict)
        p = witness(L2, decision=dec)
        assert sampled_min_on_curve(p, case, n=500) >= -1e-8, cid
        assert L2.value(p) < -1e-10 * L2.scale(), cid


@criterion(6, "true unknown lies in the psd interval; verdict is completion-invariant")
def test_criterion_6_completion():
    for cid, params in ROUNDTRIP_CASES:
        case = make_case(cid, params)
        k = 2
        L, mu = generate(case, k, n_atoms=3 * k, seed=6)
        lift = combined_lift(case, k)
        e0 = lift.elements[lift.unknown[0]]
        e1 = lift.elements[lift.unknown[1]]
        v_true = sum(a.w * e0.eval(a.x, a.y) * e1.eval(a.x, a.y) for a in mu.atoms)
        ivl = completion_interval(lift_matrix(L)).psd
        assert not ivl.empty, cid
        slack = 1e-7 * (1 + abs(v_true))
        assert ivl.lo - slack <= v_true <= ivl.hi + slack, (cid, v_true, ivl)
        dec0 = decide(L)
        for v in [ivl.lo + ivl.width * (i + 1) / 6 for i in range(5)]:
            rec = extract(L, ExtractOptions(completion="value", completion_value=v),
                          decision=dec0)
            assert verify(rec, L) < 1e-6
            # the measure completes the unknown pair with v
            got = sum(a.w * e0.eval(a.x, a.y) * e1.eval(a.x, a.y) for a in rec.atoms)
            assert abs(got - v) <= 1e-6 * abs(v), (cid, got, v)
        assert dec0.passed()


@criterion(7, "hand-built singular instances pass through their theorem branches")
def test_criterion_7_singular_branches():
    # two atoms on the nodal curve at k=2
    case = make_case("P4")
    mu = AtomicMeasure((Atom(4.0, 6.0, 2.0), Atom(0.25, -0.375, 1.0)))
    L = MomentSequence(case, 2, mu.moments(2))
    dec = decide(L)
    assert dec.verdict == "MomentFunctional" and dec.singular_branch.startswith("rank")
    rec = extract(L, decision=dec)
    got = sorted((a.x, a.y, a.w) for a in rec.atoms)
    want = sorted((a.x, a.y, a.w) for a in mu.atoms)
    assert np.allclose(np.array(got), np.array(want), atol=1e-6)

    # two atoms on the rational xy = c(x) curve at k=2
    p12 = CASE_PARAMS["P12"]
    case = make_case("P12", p12)
    cpoly = lambda t: t**3 + p12["c2"] * t**2 + p12["c1"] * t + p12["c0"]
    mu = AtomicMeasure((Atom(0.8, cpoly(0.8) / 0.8, 1.5),
                        Atom(-1.1, cpoly(-1.1) / -1.1, 0.7)))
    L = MomentSequence(case, 2, mu.moments(2))
    dec = decide(L)
    assert dec.verdict == "MomentFunctional" and dec.singular_branch.startswith("rank")
    rec = extract(L, decision=dec)
    assert verify(rec, L) < 1e-6
    assert np.allclose(sorted(a.x for a in rec.atoms), [-1.1, 0.8], atol=1e-6)

    # d > 0 instance whose atoms' parameters avoid +-sqrt(d)
    pars = dict(a=0.5, d=1.0, e=3.0)
    case = make_case("P6", pars)

    def p6_atom(t, w):
        return Atom((-pars["a"] * t + pars["e"]) / (t * t - pars["d"]), t, w)

    mu = AtomicMeasure((p6_atom(0.3, 1.0), p6_atom(2.0, 0.8), p6_atom(-1.7, 1.2)))
    L = MomentSequence(case, 2, mu.moments(2))
    dec = decide(L)
    assert dec.verdict == "MomentFunctional"
    assert any(c.name == "root_avoidance_sqrt_d" and c.passed for c in dec.details)
    # the flat lift's nodes are the parameters 0.3, 2.0, -1.7: nearest to 1 is 0.3
    root = next(c for c in dec.details if c.name == "root_avoidance_sqrt_d")
    assert abs(root.margin - 0.7) < 1e-6
    rec = extract(L, decision=dec)
    assert np.allclose(sorted(a.y for a in rec.atoms), [-1.7, 0.3, 2.0], atol=1e-6)

    # disconnected Weierstrass curve with atoms on an extra conic relation
    case = make_case("P1", dict(a=1.0, b=2.0))
    pts = sample_points(case, 5, seed=9)
    A = np.array([[1, x, y, x * x, x * y, y * y] for x, y, _ in pts])
    assert np.linalg.matrix_rank(A) == 5
    rng = np.random.default_rng(9)
    mu = AtomicMeasure(tuple(Atom(x, y, float(rng.uniform(0.4, 1.2)))
                             for x, y, _ in pts))
    L = MomentSequence(case, 2, mu.moments(2))
    dec = decide(L)
    assert dec.verdict == "MomentFunctional"
    assert dec.singular_branch.startswith("elliptic_extension")

    # isolated-point curve with a point mass at the origin
    case = make_case("P5")

    def p5_atom(t, w):
        return Atom(t * t + 1, t**3 + t, w)

    mu = AtomicMeasure((p5_atom(0.5, 1.0), p5_atom(-0.9, 0.6), p5_atom(1.3, 1.1),
                        Atom(0.0, 0.0, 0.7)))
    L = MomentSequence(case, 2, mu.moments(2))
    dec = decide(L)
    assert dec.verdict == "MomentFunctional"
    assert dec.singular_branch.startswith("lambda0")
    rec = extract(L, decision=dec)
    got = sorted((a.x, a.y, a.w) for a in rec.atoms)
    want = sorted((a.x, a.y, a.w) for a in mu.atoms)
    assert np.allclose(np.array(got), np.array(want), atol=1e-6)


@criterion(8, "invariant suites: ideal, Gram identity, size laws, Albert, chi signs")
def test_criterion_8_invariants():
    # ideal-vanishing residual for all generated data
    for cid, params in CASE_PARAMS.items():
        case = make_case(cid, params)
        for k in range(case.k_min, 4):
            L, mu = generate(case, k, n_atoms=3 * k, seed=8)
            assert check_ideal_vanishing(L) < 1e-9 * L.scale(), (cid, k)

            # Gram identity for the moment matrix ...
            bk = basis_Bk(case, k)
            M = moment_matrix(L).known()
            G = np.zeros_like(M)
            for a in mu.atoms:
                v = np.array([e.eval(a.x, a.y) for e in bk.elements])
                G += a.w * np.outer(v, v)
            assert np.abs(M - G).max() < 1e-9 * max(1.0, np.abs(G).max()), (cid, k)

            # ... and the localizing matrix where one exists
            if not case.is_v2():
                vb = basis_Vk(case, k)
                f = case.multiplier().f
                MV = localizing_matrix(L).known()
                GV = np.zeros_like(MV)
                for a in mu.atoms:
                    w = np.array([e.eval(a.x, a.y) for e in vb.elements])
                    GV += a.w * f.eval(a.x, a.y) * np.outer(w, w)
                assert np.abs(MV - GV).max() < 1e-9 * max(1.0, np.abs(GV).max()), (cid, k)

    # basis size law up to k = 4
    for cid, params in CASE_PARAMS.items():
        case = make_case(cid, params)
        for k in range(case.k_min, 5):
            assert len(basis_Bk(case, k)) == 3 * k
            if case.is_v2():
                assert len(basis_Rk1(case, k)) == 3 * (k - 1)
            else:
                vb = basis_Vk(case, k)
                assert len(vb) == (3 * k - 1 if vb.partial else 3 * k)
                assert vb.partial == (cid in ("P10", "P11"))

    # Albert criterion on 100 random symmetric matrices, read from the shared
    # decomposition: the pair (0, 1) on top, D = rows 2..5 below
    def is_psd(M, tol):
        return np.linalg.eigvalsh(M)[0] >= -tol * max(1.0, np.abs(M).max())

    rng = np.random.default_rng(88)
    for trial in range(100):
        n = 6
        if trial % 2 == 0:
            A = rng.standard_normal((n, n + 1))
            Mx = A @ A.T
        else:
            Mx = rng.standard_normal((n, n))
            Mx = 0.5 * (Mx + Mx.T)
        comp = completion_interval(SymmetricForm(list("abcdef"), Mx.copy(), unknown=(0, 1)))
        s1, s2, c0, ra, rb = comp.schur
        range_ok = max(ra, rb) <= 1e-8 * max(1.0, np.abs(Mx).max())
        d = Mx[0, 1] - c0
        crit = (is_psd(comp.D, 1e-9) and range_ok
                and is_psd(np.array([[s1, d], [d, s2]]), 1e-7))
        assert crit == is_psd(Mx, 1e-9)

    # chi-flag sign consistency on 200 samples
    for cid in ("P15", "P19", "P24"):
        case = make_case(cid, CASE_PARAMS[cid])
        c1, c2 = chi_flags(case)
        f1, f2 = case.factors()
        par = parametrization(case)
        line, conic = par.components[0], par.components[1]
        rng = np.random.default_rng(5)
        n_checked = 0
        while n_checked < 200:
            t = float(rng.uniform(-3, 3))
            if any(abs(t - ex) < 1e-2 for ex in conic.excluded_t):
                continue
            if c1 != 0:
                v = c1 * f1.eval(conic.x_at(t), conic.y_at(t))
                assert v >= -1e-8 * max(1.0, abs(v))
            v2 = c2 * f2.eval(line.x_at(t), line.y_at(t))
            assert v2 >= -1e-8 * max(1.0, abs(v2))
            n_checked += 1

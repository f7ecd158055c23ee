import numpy as np
import pytest

from conftest import (CASE_PARAMS, CONSTRUCTIVE, P6_VARIANTS, bench_corpus, clear_tables,
                      reference_product)
from tmp3 import linalg, make_case, measure, moment, poly
from tmp3.bases import basis_Bk, basis_Rk1, basis_Vk, combined_lift
from tmp3.curves import chi_flags, sample_points
from tmp3.measure import Atom, AtomicMeasure, extract, generate, generate_measure, verify
from tmp3.moment import (
    IdealViolation,
    MomentSequence,
    _form,
    _v2_quotient_elements,
    check_ideal_vanishing,
    decide,
    _Lift,
    _t_action,
    lift_matrix,
    localizing_matrices_v2,
    localizing_matrix,
    moment_matrix,
)
from tmp3.poly import BivarPoly, normal_low

_M = BivarPoly.monomial


class TestIdealVanishing:
    def test_measure_data_vanishes(self):
        for cid, params in CONSTRUCTIVE[:4]:
            case = make_case(cid, params)
            L, _ = generate(case, 2, n_atoms=6, seed=0)
            assert check_ideal_vanishing(L) < 1e-9 * L.scale()

    def test_perturbation_detected(self):
        case = make_case("P4")
        L, _ = generate(case, 3, n_atoms=9, seed=0)
        L2 = L.perturbed({(0, 2): 1.0})
        # P4 = y^2 - x^3 + 2x^2 - x has y^2-coefficient 1
        assert check_ideal_vanishing(L2) >= 1.0 - 1e-9

    def test_zero_sequence(self):
        case = make_case("P4")
        beta = {(i, j): 0.0 for i in range(7) for j in range(7) if i + j <= 4}
        assert check_ideal_vanishing(MomentSequence(case, 2, beta)) == 0.0


class TestMomentMatrix:
    def test_rank_one_single_atom(self):
        case = make_case("P4")
        mu = AtomicMeasure((Atom(4.0, 6.0, 1.0),))
        L = MomentSequence(case, 2, mu.moments(2))
        M = moment_matrix(L)
        assert linalg.numeric_rank(M.known()) == 1

    def test_ideal_violation_raises(self):
        case = make_case("P4")
        L, _ = generate(case, 2, n_atoms=6, seed=0)
        with pytest.raises(IdealViolation):
            moment_matrix(L.perturbed({(0, 2): 5.0}))

    @pytest.mark.parametrize("cid,params", list(CASE_PARAMS.items()))
    def test_gram_identity(self, cid, params):
        """Assembled matrices equal the weighted sums of evaluation outer
        products, for every case and k up to 3."""
        case = make_case(cid, params)
        mult = case.multiplier()
        for k in range(case.k_min, 4):
            mu = generate_measure(case, 3 * k, k, seed=6)
            L = MomentSequence(case, k, mu.moments(k))
            bk = basis_Bk(case, k)
            M = moment_matrix(L).known()
            G = np.zeros_like(M)
            for a in mu.atoms:
                v = np.array([e.eval(a.x, a.y) for e in bk.elements])
                G += a.w * np.outer(v, v)
            scale = max(1.0, np.abs(G).max())
            assert np.abs(M - G).max() < 1e-9 * scale
            if case.is_v2():
                continue
            vb = basis_Vk(case, k)
            MV = localizing_matrix(L).known()
            GV = np.zeros_like(MV)
            for a in mu.atoms:
                w = np.array([e.eval(a.x, a.y) for e in vb.elements])
                GV += a.w * mult.f.eval(a.x, a.y) * np.outer(w, w)
            scale = max(1.0, np.abs(GV).max())
            assert np.abs(MV - GV).max() < 1e-9 * scale

    def test_determined_entries_p1(self):
        """example-Weier formulas recomputed from the generating measure."""
        case = make_case("P1", dict(a=1.0, b=2.0))
        mu = generate_measure(case, 9, 3, seed=11)
        L = MomentSequence(case, 3, mu.moments(3))
        MV = localizing_matrix(L)
        lab = MV.labels
        i1, i2 = lab.index("x^2y"), lab.index("xy^2")

        def raw(i, j):
            return sum(a.w * a.x**i * a.y**j for a in mu.atoms)

        b52 = raw(2, 4) + 3 * raw(4, 2) - 2 * raw(3, 2)
        b43 = raw(1, 5) + 3 * raw(3, 3) - 2 * raw(2, 3)
        # the third identity needs x y^4, not x y^3 (index typo upstream)
        b34 = raw(0, 6) + 3 * raw(2, 4) - 2 * raw(1, 4)
        assert abs(MV.known()[i1, i1] - b52) < 1e-9 * (1 + abs(b52))
        assert abs(MV.known()[i1, i2] - b43) < 1e-9 * (1 + abs(b43))
        assert abs(MV.known()[i2, i2] - b34) < 1e-9 * (1 + abs(b34))


class TestLocalizing:
    def test_p7_fully_determined_and_quadratic(self):
        case = make_case("P7", CASE_PARAMS["P7"])
        L, mu = generate(case, 2, n_atoms=6, seed=2)
        MV = localizing_matrix(L)
        assert MV.unknown is None
        # f * r7^2 = q7(x)/(x - alpha), a quadratic: check via polynomial division
        m = case.multiplier()
        q = np.array(list(reversed(m.source_cubic.coeffs)))
        quot, rem = np.polydiv(q, np.array([1.0, -m.alpha]))
        assert abs(rem[0]) < 1e-8 * max(1.0, np.abs(q).max())
        vb = basis_Vk(case, 2)
        r_idx = next(i for i, e in enumerate(vb.elements) if e.kind == "rational")
        # the basis element is (2xy+a)/(x-alpha), so f*r^2 = 4*q7(x)/(x-alpha)
        want = 4.0 * sum(a.w * np.polyval(quot, a.x) for a in mu.atoms)
        got = MV.known()[r_idx, r_idx]
        assert got == pytest.approx(want, rel=1e-8)

    def test_lift_unknown_positions(self):
        case = make_case("P3")
        PM = lift_matrix(generate(case, 2, n_atoms=6, seed=0)[0])
        assert PM.unknown == (0, 1)
        case = make_case("P13")
        PM = lift_matrix(generate(case, 3, n_atoms=9, seed=0)[0])
        assert PM.unknown == (8, 9)

    def test_v2_matrices(self):
        m1, m2 = localizing_matrices_v2(
            generate(make_case("P24", dict(a=-1.0)), 2, n_atoms=6, seed=0)[0])
        assert m1 is None and m2 is not None

        case = make_case("P19")
        mu = AtomicMeasure((Atom(0.7, 0.0, 1.3),))  # one atom on the line
        L = MomentSequence(case, 2, mu.moments(2))
        _, m2 = localizing_matrices_v2(L)
        assert linalg.numeric_rank(m2.known()) <= 1
        assert linalg.psd_margin(m2.known()) >= -linalg.DEFAULT_TOL.psd

    def test_p15_circle_only_measure(self):
        case = make_case("P15", dict(a=-3.0))
        pts = [p for p in sample_points(case, 24, seed=4) if p[2] == 1][:5]
        mu = AtomicMeasure(tuple(Atom(x, y, 0.5 + 0.1 * i)
                                 for i, (x, y, _) in enumerate(pts)))
        L = MomentSequence(case, 2, mu.moments(2))
        m1, m2 = localizing_matrices_v2(L)
        assert linalg.psd_margin(m1.known()) >= -1e-9


class TestDecide:
    def test_roundtrip_positive(self):
        case = make_case("P4")
        L, _ = generate(case, 2, n_atoms=6, seed=3)
        dec = decide(L)
        assert dec.verdict == "MomentFunctional"
        assert all(c.margin > 0 for c in dec.details if c.kind == "pd")

    def test_two_atom_singular_rank_branch(self):
        case = make_case("P4")
        mu = AtomicMeasure((Atom(4.0, 6.0, 2.0), Atom(0.25, -0.375, 1.0)))
        L = MomentSequence(case, 2, mu.moments(2))
        dec = decide(L)
        assert dec.verdict == "MomentFunctional"
        assert dec.singular_branch.startswith("rank")

    def test_negative_beta00(self):
        case = make_case("P4")
        L, _ = generate(case, 2, n_atoms=6, seed=3)
        L2 = L.perturbed({(0, 0): -2.0 * L.beta[(0, 0)]})
        dec = decide(L2)
        assert dec.verdict == "NotMomentFunctional"
        assert dec.witness_available

    def test_completion_value_invariance(self):
        """Verdicts do not depend on how the unknown entry is completed."""
        from tmp3.measure import ExtractOptions, extract, verify

        case = make_case("P12", CASE_PARAMS["P12"])
        L, _ = generate(case, 2, n_atoms=6, seed=5)
        dec = decide(L)
        ivl = linalg.completion_interval(lift_matrix(L)).pd
        verdicts = {dec.verdict}
        for v in [ivl.lo + ivl.width * (i + 1) / 6 for i in range(5)]:
            mu = extract(L, ExtractOptions(completion="value", completion_value=v))
            assert verify(mu, L) < 1e-6
        assert verdicts == {"MomentFunctional"}

    def test_p10_partial_inconclusive_positive(self):
        case = make_case("P10", CASE_PARAMS["P10"])
        L, _ = generate(case, 2, n_atoms=6, seed=4)
        dec = decide(L)
        assert dec.verdict == "Inconclusive"
        assert "necessary conditions" in dec.note

    def test_rank_bounded_by_atoms(self):
        case = make_case("P6", CASE_PARAMS["P6"])
        for n in (2, 4, 6):
            mu = generate_measure(case, n, 2, seed=n)
            L = MomentSequence(case, 2, mu.moments(2))
            assert linalg.numeric_rank(moment_matrix(L).known()) <= n


class TestEllipticSingular:
    def _conic_atoms(self, case, seed=9):
        pts = sample_points(case, 5, seed=seed)
        A = np.array([[1, x, y, x * x, x * y, y * y] for x, y, _ in pts])
        _, _, Vt = np.linalg.svd(A)
        assert np.max(np.abs(A @ Vt[-1])) < 1e-9
        rng = np.random.default_rng(seed)
        return AtomicMeasure(tuple(Atom(x, y, float(rng.uniform(0.4, 1.2)))
                                   for x, y, _ in pts))

    def test_unique_extension_branch(self):
        case = make_case("P1", dict(a=1.0, b=2.0))
        mu = self._conic_atoms(case)
        L = MomentSequence(case, 2, mu.moments(2))
        dec = decide(L)
        assert dec.verdict == "MomentFunctional"
        assert dec.singular_branch.startswith("elliptic_extension")

    def test_extension_detects_fake(self):
        case = make_case("P1", dict(a=1.0, b=2.0))
        mu = self._conic_atoms(case)
        atoms = list(mu.atoms)
        atoms[1] = Atom(atoms[1].x, atoms[1].y, -0.5)
        L = MomentSequence(case, 2, AtomicMeasure(tuple(atoms)).moments(2))
        assert decide(L).verdict == "NotMomentFunctional"

    def test_locally_singular_branch(self):
        """Kernel only in the localizing matrix: pin five zeros of x*h and
        find the sixth real zero on the curve, so the moment matrix stays pd."""
        case = make_case("P1", dict(a=1.0, b=2.0))
        q = lambda x: x * (x - 1.0) * (x - 2.0)
        funcs = lambda x, y: np.array([y, x, x * x, x * y, x**3, x * x * y])
        pts5 = [(x, y) for x, y, _ in sample_points(case, 5, seed=1)]
        A = np.array([funcs(x, y) for x, y in pts5])
        c = np.linalg.svd(A)[2][-1]

        def f(x, sgn):
            return c @ funcs(x, sgn * np.sqrt(max(q(x), 0.0)))

        extra = None
        for lo, hi in ((1e-6, 1.0), (2.0, 8.0)):
            xs = np.linspace(lo, hi, 20001)
            for sgn in (1.0, -1.0):
                vals = [f(x, sgn) for x in xs]
                for i in range(len(xs) - 1):
                    if vals[i] * vals[i + 1] < 0:
                        a_, b_ = xs[i], xs[i + 1]
                        for _ in range(80):
                            m_ = 0.5 * (a_ + b_)
                            if f(a_, sgn) * f(m_, sgn) <= 0:
                                b_ = m_
                            else:
                                a_ = m_
                        x0 = 0.5 * (a_ + b_)
                        y0 = sgn * np.sqrt(max(q(x0), 0.0))
                        if all(abs(x0 - x) + abs(y0 - y) > 1e-4 for x, y in pts5):
                            extra = (x0, y0)
        assert extra is not None
        rng = np.random.default_rng(1)
        mu = AtomicMeasure(tuple(Atom(x, y, float(rng.uniform(0.4, 1.2)))
                                 for x, y in pts5 + [extra]))
        L = MomentSequence(case, 2, mu.moments(2))
        from tmp3 import linalg

        assert linalg.psd_margin(moment_matrix(L).known()) > 1e-8
        assert abs(linalg.psd_margin(localizing_matrix(L).known())) < 1e-9
        dec = decide(L)
        assert dec.verdict == "MomentFunctional"
        assert dec.singular_branch == "elliptic_extension:locally_singular"

    @pytest.mark.parametrize("cid", ["P1", "P2"])
    def test_extension_moments_match_the_sum(self, cid):
        """The level-(k+1) moments from the compiled reductions equal the
        built-in sum over each normal_low(x^i y^j) bit for bit, also where
        every term is a zero of either sign."""
        case = make_case(cid, CASE_PARAMS[cid])
        rng = np.random.default_rng(0)
        for k in range(2, 6):
            degs = [d for d in range(6 * k + 7) if d != 1]
            for vals in (dict(zip(degs, rng.standard_normal(len(degs)).tolist())),
                         dict(zip(degs, (rng.standard_normal(len(degs)) * 1e150).tolist())),
                         dict.fromkeys(degs, -0.0)):
                want = [sum(c * vals[2 * a + 3 * b] for (a, b), c in
                            normal_low(BivarPoly.monomial(i, d - i), case).coeffs.items())
                        for d in range(2 * k + 3) for i in range(d + 1)]
                got = moment._extension_moments(case, k, vals)
                assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def _p13_flat_nodes(ts, ws, k):
    """The nodes of the lift of the atoms (t, t^3) on P13 at its left flat completion."""
    mu = AtomicMeasure(tuple(Atom(t, t**3, w) for t, w in zip(ts, ws)))
    lift = _Lift(MomentSequence(make_case("P13"), k, mu.moments(k)))
    return lift.nodes(lift.completion.psd.lo)


class TestLiftNodes:
    """At a flat completion the nodes are the atoms' parameters (x = t on P13)."""

    def test_two_atoms(self):
        assert np.allclose(_p13_flat_nodes([0.0, 1.0], [1.0, 1.0], 2), [0.0, 1.0])

    def test_single_atom(self):
        assert np.allclose(_p13_flat_nodes([1.7], [1.0], 2), [1.7])

    def test_three_random_atoms(self):
        rng = np.random.default_rng(12)
        ts = rng.uniform(-2, 2, 3)
        nodes = _p13_flat_nodes(ts, rng.uniform(0.5, 1.5, 3), 3)
        assert np.allclose(nodes, np.sort(ts), atol=1e-8)


# -- reference: the compiled forms against a direct walk of the products ------

ALL_CASES = [(cid, params) for cid, params in CASE_PARAMS.items() if cid != "P6"]
ALL_CASES += [("P6", params) for params in P6_VARIANTS]


def _reference_gram(L, els, product, chi=1.0):
    """chi * L(product(u_r, u_s)) entry by entry; NaN where the product is None."""
    n = len(els)
    m = np.zeros((n, n))
    for r in range(n):
        for s in range(r, n):
            p = product(els[r], els[s])
            m[r, s] = m[s, r] = np.nan if p is None else chi * L.value(p)
    return m


def _reference_ideal(L):
    P = L.case.defining_poly()
    return max((abs(L.value(_M(a, d - a) * P))
                for d in range(2 * L.k - 2) for a in range(d + 1)), default=0.0)


def _data(case, k):
    """Genuine moments, the same minus twice an atom, and noise off the ideal."""
    mu = generate_measure(case, 3 * k + 1, k, seed=k)
    L = MomentSequence(case, k, mu.moments(k))
    a = mu.atoms[0]
    refuted = L.perturbed({key: -2.0 * a.w * a.x ** key[0] * a.y ** key[1] for key in L.beta})
    rng = np.random.default_rng(k)
    noisy = L.perturbed({key: float(rng.standard_normal()) for key in L.beta})
    return L, refuted, noisy


@pytest.mark.parametrize("cid,params", ALL_CASES)
def test_compiled_forms_match_reference(cid, params):
    case = make_case(cid, params)
    one = BivarPoly.const(1.0)
    for k in (2, 3):
        if k < case.k_min:
            continue

        def on_curve(f):
            return lambda u, v: reference_product(u.rat, v.rat, f, case, k)

        def times(fac):
            return lambda u, v: normal_low(u.rat.numerator * v.rat.numerator * fac, case)

        for L, on_ideal in zip(_data(case, k), (True, True, False)):
            assert check_ideal_vanishing(L) == _reference_ideal(L)
            # moment_matrix refuses data off the ideal; the form itself does not
            beta = moment._beta_vector(L)
            got = (moment_matrix(L) if on_ideal else _form(case, k, "Bk").matrix(beta)).entries
            want = _reference_gram(L, basis_Bk(case, k).elements, on_curve(one))
            assert np.array_equal(got, want, equal_nan=True)
            if case.is_v2():
                chis = chi_flags(case)
                facs = case.factors()
                rk1 = basis_Rk1(case, k).elements
                m1, m2 = localizing_matrices_v2(L)
                for i, m in enumerate((m1, m2)):
                    want = _reference_gram(L, rk1, times(facs[i]), chis[i])
                    if chis[i] == 0:
                        assert m is None
                    else:
                        assert np.array_equal(m.entries, want, equal_nan=True)
                    els = _v2_quotient_elements(case, k)[i]
                    want = _reference_gram(L, els, times(facs[i]), chis[i])
                    got = _form(case, k, f"Q{i}").matrix(beta).entries
                    assert np.array_equal(got, want, equal_nan=True)
            else:
                want = _reference_gram(L, basis_Vk(case, k).elements,
                                       on_curve(case.multiplier().f))
                assert np.array_equal(localizing_matrix(L).entries, want, equal_nan=True)
            if case.is_constructive():
                want = _reference_gram(L, combined_lift(case, k).elements, on_curve(one))
                assert np.array_equal(lift_matrix(L).entries, want, equal_nan=True)


def _form_kinds(case):
    """The compiled forms a case has."""
    kinds = ["Bk"] + (["Q0", "Q1", "R0", "R1"] if case.is_v2() else ["Vk"])
    return kinds + (["lift"] if case.is_constructive() else [])


def _reference_compile(case, k, which):
    """(pair, mon, coef, unknown) of a form by the per-pair walk: the terms of
    reference_product(u, v, f) (Bk, Vk, lift) or of normal_low(u * v * factor)
    (Q, R), pair by pair and term by term."""
    one = BivarPoly.const(1.0)
    if which[0] in "QR":
        fac = case.factors()[int(which[1])]
        els = (_v2_quotient_elements(case, k)[int(which[1])] if which[0] == "Q"
               else basis_Rk1(case, k).elements)

        def product(u, v):
            return normal_low(u.rat.numerator * v.rat.numerator * fac, case)
    else:
        if which == "Bk":
            els, f = basis_Bk(case, k).elements, one
        elif which == "Vk":
            els, f = basis_Vk(case, k).elements, case.multiplier().f
        else:
            els, f = combined_lift(case, k).elements, one

        def product(u, v):
            return reference_product(u.rat, v.rat, f, case, k)
    n = len(els)
    pair, mon, coef, unknown = [], [], [], None
    for r in range(n):
        for s in range(r, n):
            p = product(els[r], els[s])
            if p is None:
                unknown = (r, s)
                continue
            for (i, j), c in p.coeffs.items():
                pair.append(r * n + s)
                mon.append((i + j) * (i + j + 1) // 2 + i)
                coef.append(c)
    return (np.array(pair, dtype=np.intp), np.array(mon, dtype=np.intp),
            np.array(coef, dtype=float), unknown)


def _compiled(case, ks):
    """The arrays of every form of the case at each k, compiled in the order of ks."""
    out = {}
    for k in ks:
        for which in _form_kinds(case):
            form = _form(case, k, which)
            out[k, which] = (form.pair, form.mon, form.coef, form.unknown)
    return out


@pytest.mark.parametrize("label", [c[0] for c in bench_corpus().CASES])
def test_ideal_rows_match_comprehension(label):
    """The graded indices of the ideal rows, computed on exponent arrays, are
    the per-term _mon_index of x^a y^b * P in row order, P's terms in P's
    order, at every k = 2..6 of every corpus label."""
    _, cid, params = next(c for c in bench_corpus().CASES if c[0] == label)
    case = make_case(cid, params)
    P = case.defining_poly().coeffs
    for k in range(max(2, case.k_min), 7):
        exps = [(a, d - a) for d in range(2 * k - 2) for a in range(d + 1)]
        want = [poly._mon_index(a + i, b + j) for a, b in exps for i, j in P]
        row, mon, coef, n = moment._ideal_rows(case, k)
        assert mon.dtype == np.intp and mon.tolist() == want and n == len(exps)
        assert row.tolist() == [r for r in range(n) for _ in P]
        assert coef.tolist() == list(P.values()) * n


def _same_arrays(got, want):
    return got[3] == want[3] and all(
        np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got[:3], want[:3]))


@pytest.mark.parametrize("label", [c[0] for c in bench_corpus().CASES])
def test_compiled_arrays_match_reference(label):
    """Every compiled form of every corpus label at k = 2..6 has the arrays of
    the per-pair walk, bit for bit, compiled from empty tables in ascending k
    and again in descending k (the normal-form table is shared by every k)."""
    _, cid, params = next(c for c in bench_corpus().CASES if c[0] == label)
    case = make_case(cid, params)
    ks = [k for k in range(2, 7) if k >= case.k_min]
    for order in (ks, ks[::-1]):
        clear_tables()
        got = _compiled(case, order)
        for (k, which), arrays in got.items():
            assert _same_arrays(arrays, _reference_compile(case, k, which)), (k, which)


@pytest.mark.parametrize("cid", ["P7", "P4"])
def test_product_on_curve_only_for_rational_pairs(monkeypatch, cid):
    """Compiling every form at k = 3 after k = 2 runs one division (one lstsq)
    per distinct ordered (u, v, f, k) with a denominator, shared by the forms
    holding it, and none for a product of polynomials."""
    case = make_case(cid, CASE_PARAMS[cid])
    clear_tables()
    _compiled(case, [2])
    divided, solves = [], []
    real_divide, real_lstsq = poly._divide, np.linalg.lstsq

    def divide(case, dmax, num, den):
        divided.append((num, den))
        return real_divide(case, dmax, num, den)

    def lstsq(*args, **kwargs):
        solves.append(args)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(poly, "_divide", divide)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    _compiled(case, [3])
    rational = set()
    for which in _form_kinds(case):
        form = _form(case, 3, which)
        assert form.f.denominator.degree() == 0
        facs = [poly._factor(e.rat) for e in form.elements]
        dens = [e.rat.denominator.degree() > 0 for e in form.elements]
        rational |= {(facs[r], facs[s], poly._factor(form.f)) for r in range(len(facs))
                     for s in range(r, len(facs)) if dens[r] or dens[s]}
    assert rational
    assert set(divided) == {poly._quotient(case, *key) for key in rational}
    assert len(solves) == len(rational)


def test_tables_shared_across_k(monkeypatch):
    """Compiling the P7 Vk form at k = 3 after k = 2 rewrites only the products
    that k = 3 adds, each once, and gives the arrays of a compile from cleared
    tables."""
    case = make_case("P7", CASE_PARAMS["P7"])
    inputs = []
    real = poly.rewrite

    def rewrite(p, head, rhs):
        inputs.append(tuple(p.coeffs.items()))
        return real(p, head, rhs)

    monkeypatch.setattr(poly, "rewrite", rewrite)

    def compile_vk(k):
        del inputs[:]
        form = _form(case, k, "Vk")
        return list(inputs), (form.pair, form.mon, form.coef, form.unknown)

    clear_tables()
    at2, _ = compile_vk(2)
    after2, warm = compile_vk(3)
    clear_tables()
    alone, cold = compile_vk(3)
    assert len(set(alone)) == len(alone) and len(set(after2)) == len(after2)
    assert set(after2) == set(alone) - set(at2)
    assert 0 < len(after2) < len(alone)
    assert _same_arrays(warm, cold)


def test_compiled_arrays_are_read_only():
    """The cached arrays of a form and of the ideal rows refuse in-place writes."""
    case = make_case("P4")
    form = _form(case, 3, "Vk")
    for a in (form.pair, form.mon, form.coef, *moment._ideal_rows(case, 3)[:3]):
        with pytest.raises(ValueError):
            a[0] = a[0]


@pytest.mark.parametrize("cid,params", CONSTRUCTIVE)
def test_t_action_matches_reference(cid, params):
    """t * (F phi)_r = (T^T phi)_r as polynomials, F phi has degree <= 3k - 1
    off row p, and on genuine data B = T'^T M F'^T, the Gram matrix of
    L(t u v), is symmetric."""
    case = make_case(cid, params)
    for k in range(2, 6):
        lift = combined_lift(case, k)
        n = len(lift.elements)
        N = np.zeros((n, n))
        for r, num in enumerate(lift.numerators):
            N[r, :len(num.coeffs)] = num.coeffs
        Fp, Tt = _t_action(case, k)
        assert Fp.shape == Tt.shape == (n - 1, n)
        FN = Fp @ N
        scale = np.max(np.abs(N))
        assert np.max(np.abs(FN[:, -1])) <= 1e-12 * scale
        # t * (F phi)_r against T^T phi, coefficient by coefficient
        tF = np.zeros_like(FN)
        tF[:, 1:] = FN[:, :-1]
        assert np.allclose(Tt @ N, tF, rtol=0, atol=1e-9 * scale)
        L, _ = generate(case, k, n_atoms=3 * k + 1, seed=k)
        lf = _Lift(L)
        if lf.completion.psd.empty:
            continue
        M = lf.form.with_value(lf.completion.psd.midpoint()).known()
        B = Tt @ M @ Fp.T
        assert np.max(np.abs(B - B.T)) <= 1e-8 * np.max(np.abs(B))


_PD = ("ideal_vanishing", "moment_matrix_pd", "localizing_matrix_pd")
_P5 = ("ideal_vanishing", "moment_matrix_pd", "schur_block_psd", "b_in_range")
_RANK = ("rank_restriction_B", "rank_restriction_V")

#: (case, params, k, atoms, seed, mass at the origin, verdict, branch, the
#: decision's check names in order): one instance per way through the lift
LIFT_ROUTES = [
    ("P4", {}, 2, 2, 0, 0.0, "MomentFunctional", "rank_B", _PD + _RANK),
    ("P6", P6_VARIANTS[0], 3, 10, 0, 0.0, "MomentFunctional", "constructive_witness",
     _PD + _RANK + ("constructive_witness",)),
    ("P6", P6_VARIANTS[1], 4, 13, 0, 0.0, "Inconclusive", "",  # the measure fails too
     _PD + _RANK + ("rank_restriction_drop_xk",)),
    ("P12", CASE_PARAMS["P12"], 3, 9, 1, 0.0, "MomentFunctional", "constructive_witness",
     _PD + _RANK + ("constructive_witness",)),
    ("P3", {}, 2, 2, 0, 0.0, "MomentFunctional", "constructive_witness",
     _PD + ("constructive_witness",)),
    ("P13", {}, 2, 2, 0, 0.0, "MomentFunctional", "constructive_witness",
     _PD + ("constructive_witness",)),
    ("P5", {}, 2, 6, 0, 0.0, "MomentFunctionalOnNonIsolated", "nonsingular",
     _P5 + ("sigma2_positive",)),
    ("P5", {}, 2, 6, 1, 0.0, "MomentFunctional", "constructive_witness",
     _P5 + _RANK + ("constructive_witness",)),
    ("P5", {}, 2, 1, 0, 0.5, "MomentFunctional", "lambda0:rank_B",  # shifts L
     _P5 + _RANK + ("lambda0_nonneg", "rank_restriction_B_lambda0",
                    "rank_restriction_V_lambda0")),
    ("P5", {}, 2, 5, 0, 0.5, "MomentFunctional", "origin_split",  # shifts L
     _P5 + ("sigma2_positive", "sigma1_exceeds_minus_sigma2")),
]


def _block_d(PM):
    """The block of a lifted matrix that avoids its unknown pair."""
    rest = [i for i in range(PM.size) if i not in PM.unknown]
    return PM.entries[np.ix_(rest, rest)]


@pytest.mark.parametrize("cid,params,k,n,seed,w0,verdict,branch",
                         [row[:-1] for row in LIFT_ROUTES])
def test_lift_assembled_once_per_functional(monkeypatch, cid, params, k, n, seed, w0,
                                            verdict, branch):
    """decide followed by extract assembles the lifted matrix of each functional
    (L, or a point-mass shift of it on P5) once, and each lift record
    decomposes its own block D at most once: one eigvalsh and at most one
    pseudo-inverse per record, also when a shift holds an equal D.  The
    checks come in the order of the steps: the rank checks before
    constructive_witness, and lambda0_nonneg between P5's two tries.  Each
    endpoint of a record is fitted (one lstsq) and verified at most once,
    whether decide or extract reads its measure first."""
    case = make_case(cid, params)
    mu = generate_measure(case, n, k, seed=seed)
    if w0:
        mu = AtomicMeasure(mu.atoms + (Atom(0.0, 0.0, w0),))
    L = MomentSequence(case, k, mu.moments(k))
    assembled, forms, decomposed, eigs, pinvs = [], [], [], [], []
    real_lift, real_eig, real_pinv = moment.lift_matrix, np.linalg.eigvalsh, linalg.pinv_cutoff
    real_completion = linalg.completion_interval
    real_fit, real_lstsq, real_verify = measure._fit, np.linalg.lstsq, measure.verify
    fits, lstsqs, verifies, inside = [], [], [], [None]

    def counting_lift(L, *args, **kwargs):
        assembled.append(tuple(sorted(L.beta.items())))
        forms.append(real_lift(L, *args, **kwargs))
        return forms[-1]

    def counting_fit(work, v):
        inside[0] = (id(work), v)
        fits.append(inside[0])
        try:
            return real_fit(work, v)
        finally:
            inside[0] = None

    def counting_lstsq(*args, **kwargs):
        if inside[0] is not None:
            lstsqs.append(inside[0])
        return real_lstsq(*args, **kwargs)

    def counting_verify(*args, **kwargs):
        verifies.append(inside[0])
        return real_verify(*args, **kwargs)

    def counting_completion(form, *args, **kwargs):
        decomposed.append(form)
        return real_completion(form, *args, **kwargs)

    def counting_eig(M, *args, **kwargs):
        eigs.append(np.array(M))
        return real_eig(M, *args, **kwargs)

    def counting_pinv(M, *args, **kwargs):
        pinvs.append(np.array(M))
        return real_pinv(M, *args, **kwargs)

    monkeypatch.setattr(moment, "lift_matrix", counting_lift)
    monkeypatch.setattr(linalg, "completion_interval", counting_completion)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eig)
    monkeypatch.setattr(linalg, "pinv_cutoff", counting_pinv)
    monkeypatch.setattr(measure, "_fit", counting_fit)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    monkeypatch.setattr(measure, "verify", counting_verify)
    dec = decide(L)
    assert (dec.verdict, dec.singular_branch) == (verdict, branch)
    row = (cid, params, k, n, seed, w0, verdict, branch)
    assert tuple(c.name for c in dec.details) == next(r[-1] for r in LIFT_ROUTES
                                                      if r[:-1] == row)
    fitted = len(fits)
    if dec.passed():
        extract(L, decision=dec)
        assert any(PM is dec.lift.form for PM in forms)
        if branch == "constructive_witness":
            assert len(fits) == fitted  # extract reads the measure decide accepted
    # one fit per (record, endpoint), each with one lstsq and at most one
    # verify; no verify outside a fit
    assert len(set(fits)) == len(fits) and sorted(lstsqs) == sorted(fits)
    assert set(verifies) <= set(fits) and len(set(verifies)) == len(verifies)
    assert assembled and len(set(assembled)) == len(assembled)
    # every decomposition is of a lift record's form, and each record's at most once
    assert all(any(PM is F for F in forms) for PM in decomposed)
    assert all(sum(PM is F for F in decomposed) <= 1 for PM in forms)
    if dec.passed():
        assert any(PM is dec.lift.form for PM in decomposed)
    # records that hold equal D arrays (a P5 shift changes no entry of D)
    # decompose them once each: one eigvalsh, at most one pseudo-inverse
    for PM in forms:
        D = _block_d(PM)
        same = sum(np.array_equal(_block_d(F), D) for F in decomposed)
        n_eig = sum(M.shape == D.shape and np.array_equal(M, D) for M in eigs)
        n_pinv = sum(M.shape == D.shape and np.array_equal(M, D) for M in pinvs)
        assert n_eig == same and n_pinv <= n_eig
    if branch in ("lambda0:rank_B", "origin_split"):
        assert len(forms) == 2 and np.array_equal(_block_d(forms[0]), _block_d(forms[1]))


def test_passing_decision_reports_the_interval_of_its_lift():
    """A passing decision that carries a lift reports that lift's completion
    interval: the bounds of its psd interval (a pd pass reports the open pd
    interval, whose bounds are the same).  The grid is that of
    tools/atom_census.py at k = 2..4, n in {k, 2k, 3k+1}, seeds 1-2."""
    corpus = bench_corpus()
    labels = [label for label, _, _ in corpus.CASES]
    seen = set()
    for label, cid, params in corpus.CASES:
        if cid not in corpus.CONSTRUCTIVE:
            continue
        case = make_case(cid, params)
        for k in (2, 3, 4):
            for n in (k, 2 * k, 3 * k + 1):
                for seed in (1, 2):
                    mu = generate_measure(case, n, k, seed=[seed, labels.index(label), k, n])
                    dec = decide(MomentSequence(case, k, mu.moments(k)))
                    if not dec.passed() or dec.lift is None:
                        continue
                    ivl, psd = dec.completion_interval, dec.lift.completion.psd
                    assert ivl is not None and not psd.empty, (label, k, n, seed)
                    assert (ivl.lo, ivl.hi) == (psd.lo, psd.hi), (label, k, n, seed)
                    seen.add(dec.singular_branch.split(":")[0])
    assert {"", "rank_B", "constructive_witness", "no_origin"} <= seen, seen


def test_p5_origin_split_extracts():
    """The point mass split off at the isolated point is the midpoint of the
    admissible masses [-sigma2, sigma1], the decision reports the psd interval
    of the shifted lift it carries, and the extraction after it reproduces the
    moments (a genuine measure plus an atom at the origin)."""
    case = make_case("P5")
    split = 0
    for k in (2, 3, 4):
        for n in range(3 * k - 2, 3 * k + 2):
            for seed in range(6):
                for w0 in (0.25, 0.5, 1.0):
                    mu = generate_measure(case, n, k, seed=seed)
                    mu = AtomicMeasure(mu.atoms + (Atom(0.0, 0.0, w0),))
                    L = MomentSequence(case, k, mu.moments(k))
                    dec = decide(L)
                    assert dec.passed(), (k, n, seed, w0, dec.verdict)
                    if dec.singular_branch != "origin_split":
                        continue
                    split += 1
                    assert dec.o_weight > 0.1 * w0, (k, n, seed, w0, dec.o_weight)
                    assert dec.lift.L.beta[(0, 0)] == L.beta[(0, 0)] - dec.o_weight
                    assert dec.lift.target is L
                    psd = dec.lift.completion.psd
                    ivl = dec.completion_interval
                    assert ivl is not None and (ivl.lo, ivl.hi) == (psd.lo, psd.hi)
                    assert verify(extract(L, decision=dec), L) < 1e-6, (k, n, seed, w0)
    assert split == 162


def test_decide_tolerance_reaches_the_lift():
    """DecideOptions(tol=...) moves the lift's completion intervals too: a P3
    functional a 1e-9 point mass below a genuine measure has an empty psd
    interval at the default tolerance and a nonempty one at tol.psd = 1e-6,
    where the singular routine certifies it by a verified measure."""
    case = make_case("P3")
    mu = generate_measure(case, 3, 2, seed=0)
    z = mu.atoms[2]
    L = MomentSequence(case, 2, AtomicMeasure(mu.atoms[:2] + (Atom(z.x, z.y, -1e-9),)).moments(2))
    loose = linalg.DEFAULT_TOL.replace(psd=1e-6)
    assert linalg.completion_interval(lift_matrix(L)).psd.empty
    assert not linalg.completion_interval(lift_matrix(L), loose).psd.empty
    assert not decide(L).passed()
    dec = decide(L, moment.DecideOptions(tol=loose))
    assert (dec.verdict, dec.singular_branch) == ("MomentFunctional", "constructive_witness")
    assert not dec.completion_interval.empty
    assert verify(extract(L, decision=dec), L) < 1e-6

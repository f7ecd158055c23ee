import math

import numpy as np
import pytest

from conftest import CASE_PARAMS, CONSTRUCTIVE, P6_VARIANTS, reference_verify, rounding_bound
from tmp3 import Certificate, SymmetricForm, make_case, moment, verify_certificate
from tmp3.measure import (
    Atom,
    AtomicMeasure,
    ExtractOptions,
    ExtractionFailed,
    NoWitness,
    extract,
    generate,
    generate_measure,
    sampled_min_on_curve,
    verify,
    witness,
)
from tmp3.curves import sample_points
from tmp3.linalg import DEFAULT_TOL
from tmp3.moment import MomentSequence, _form, decide
from tmp3.poly import UnsupportedCase


def _p13_lift(ts, ws, k):
    """The lift of L, the atoms (t, t^3) with weights ws on P13."""
    mu = AtomicMeasure(tuple(Atom(t, t**3, w) for t, w in zip(ts, ws)))
    return moment._Lift(MomentSequence(make_case("P13"), k, mu.moments(k)))


def _extracted(lift, opts=None):
    """The measure of _Lift.extract, without its residual."""
    return lift.extract(opts)[0]


class TestFlatMeasure:
    """The measure of a lift at its flat completions (_Lift.extract)."""

    def test_two_atoms(self):
        # delta_-1 + 2*delta_1 on x = t
        lift = _p13_lift([-1.0, 1.0], [1.0, 2.0], 2)
        got = sorted((a.x, a.w) for a in _extracted(lift).atoms)
        assert got == [(pytest.approx(-1.0), pytest.approx(1.0)),
                       (pytest.approx(1.0), pytest.approx(2.0))]

    def test_single_atom(self):
        c = 0.8
        lift = _p13_lift([c], [1.0], 3)
        (a,) = _extracted(lift).atoms
        assert (a.x, a.y, a.w) == (pytest.approx(c), pytest.approx(c**3), pytest.approx(1.0))

    def test_roundtrip_four_atoms(self):
        rng = np.random.default_rng(0)
        ts = np.sort(rng.uniform(-2, 2, 4))
        while np.min(np.diff(ts)) < 1e-3:
            ts = np.sort(rng.uniform(-2, 2, 4))
        lift = _p13_lift(ts, rng.uniform(0.5, 1.5, 4), 3)
        mu = _extracted(lift)
        assert len(mu) == 4
        assert np.allclose(sorted(a.x for a in mu.atoms), ts, atol=1e-6)

    def test_not_psd(self):
        # a negative mass: the block D is indefinite and no completion is psd
        lift = _p13_lift([0.5, 1.0], [1.0, -1.0], 2)
        assert lift.completion.psd.empty
        with pytest.raises(ExtractionFailed, match="no psd completion"):
            lift.extract()

    def test_flat_exactness_separated(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            ts = np.sort(rng.uniform(-2, 2, 3))
            if np.min(np.diff(ts)) < 1e-3:
                continue
            lift = _p13_lift(ts, rng.uniform(0.3, 1.4, 3), 3)
            mu = _extracted(lift)
            assert np.allclose(sorted(a.x for a in mu.atoms), ts, atol=1e-6)


class TestExtract:
    def test_p13_single_atom(self):
        case = make_case("P13")
        mu = AtomicMeasure((Atom(2.0, 8.0, 1.0),))
        L = MomentSequence(case, 2, mu.moments(2))
        rec = extract(L)
        assert len(rec) == 1
        a = rec.atoms[0]
        assert (a.x, a.y) == (pytest.approx(2.0), pytest.approx(8.0))
        assert a.w == pytest.approx(1.0)

    def test_p4_single_atom_weight_two(self):
        case = make_case("P4")
        mu = AtomicMeasure((Atom(4.0, 6.0, 2.0),))
        L = MomentSequence(case, 2, mu.moments(2))
        rec = extract(L)
        assert len(rec) == 1
        assert rec.atoms[0].w == pytest.approx(2.0)
        assert rec.atoms[0].x == pytest.approx(4.0)

    def test_p6_two_atoms(self):
        # x y^2 = 1: atoms at t=1 and t=2 -> (1, 1) and (1/4, 2)
        case = make_case("P6", dict(a=0.0, d=0.0, e=1.0))
        mu = AtomicMeasure((Atom(1.0, 1.0, 1.0), Atom(0.25, 2.0, 3.0)))
        L = MomentSequence(case, 2, mu.moments(2))
        rec = extract(L)
        assert verify(rec, L) < 1e-7
        ts = sorted(a.y for a in rec.atoms)
        assert ts == [pytest.approx(1.0), pytest.approx(2.0)]
        ws = sorted(a.w for a in rec.atoms)
        assert ws == [pytest.approx(1.0, abs=1e-7), pytest.approx(3.0, abs=1e-7)]

    def test_unsupported_case(self):
        case = make_case("P1", dict(a=1.0, b=2.0))
        L, _ = generate(case, 2, n_atoms=6, seed=0)
        with pytest.raises(UnsupportedCase):
            extract(L)

    def test_p5_origin_split_recovery(self):
        case = make_case("P5")

        def atom(t, w):
            return Atom(t * t + 1, t**3 + t, w)

        mu = AtomicMeasure((atom(0.5, 1.0), atom(-0.9, 0.6), atom(1.3, 1.1),
                            Atom(0.0, 0.0, 0.7)))
        L = MomentSequence(case, 2, mu.moments(2))
        dec = decide(L)
        assert dec.verdict == "MomentFunctional"
        assert dec.o_weight == pytest.approx(0.7, abs=1e-8)
        rec = extract(L, decision=dec)
        assert verify(rec, L) < 1e-6
        origin = [a for a in rec.atoms if abs(a.x) + abs(a.y) < 1e-8]
        assert len(origin) == 1 and origin[0].w == pytest.approx(0.7, abs=1e-7)


class TestRequestedCompletion:
    """A requested completion is the convex combination of the endpoint measures."""

    def _lift(self):
        case = make_case("P4")
        L, _ = generate(case, 2, n_atoms=7, seed=1)
        lift = moment._Lift(L)
        assert lift.completion.psd.width > 0
        return L, lift

    def test_named_points_combine_the_endpoints(self):
        L, lift = self._lift()
        ends = [_extracted(lift, opts=ExtractOptions(completion="value",
                                                     completion_value=v))
                for v in (lift.completion.psd.lo, lift.completion.psd.hi)]
        assert all(len(mu) <= 6 for mu in ends)
        for mode in ("left", "midpoint", "right"):
            mu = _extracted(lift, opts=ExtractOptions(completion=mode))
            assert verify(mu, L) < 1e-6 and len(mu) <= 12
            assert len(mu) == len(ends[0]) + len(ends[1])

    def test_value_outside_the_interval_fails(self):
        _, lift = self._lift()
        v = lift.completion.psd.hi + lift.completion.psd.width
        with pytest.raises(ExtractionFailed, match="outside the psd interval"):
            lift.extract(ExtractOptions(completion="value", completion_value=v))


#: genuine 3k+1-atom data at k = 5, 6 that the monomial-Hankel extraction
#: failed on (ExtractionFailed after a passing verdict): (case, params, k,
#: seed of generate).  P6 with d = 0 decides no such data at k = 5, 6, and
#: P6 with d > 0 extracts none at k = 6.
HIGH_K_ROUNDTRIPS = [
    ("P4", {}, 5, 0),
    ("P4", {}, 6, 4),
    ("P5", {}, 5, 0),
    ("P5", {}, 6, 0),
    ("P6", P6_VARIANTS[0], 5, 0),
    ("P6", P6_VARIANTS[0], 6, 2),
    ("P6", P6_VARIANTS[2], 5, 6),
]


@pytest.mark.parametrize("cid,params,k,seed", HIGH_K_ROUNDTRIPS)
def test_high_k_roundtrip(cid, params, k, seed):
    """The flat-endpoint measure reproduces L to 1e-6 with at most 3k atoms,
    besides P5's point mass at the origin."""
    L, _ = generate(make_case(cid, params), k, n_atoms=3 * k + 1, seed=seed)
    dec = decide(L)
    assert dec.passed()
    mu = extract(L, decision=dec)
    assert verify(mu, L) < 1e-6
    assert all(a.w > 0 for a in mu.atoms)
    assert len(mu) - (dec.o_weight > 0) <= 3 * k


def _loop_moments(mu, k):
    return {(i, d - i): sum(a.w * a.x**i * a.y**(d - i) for a in mu.atoms)
            for d in range(2 * k + 1) for i in range(d + 1)}


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("cid,params", CONSTRUCTIVE)
def test_verify_and_moments_match_the_loop(cid, params):
    """verify and AtomicMeasure.moments, computed in arrays, equal the loop
    over moments and atoms bit for bit: on a generated measure, on it with
    every weight nudged, and on another measure, at k = 2..6 and n in
    {k, 3k+1}."""
    case = make_case(cid, params)
    for k in range(2, 7):
        for n in (k, 3 * k + 1):
            mu = generate_measure(case, n, k, seed=k)
            L = MomentSequence(case, k, mu.moments(k))
            want = _loop_moments(mu, k)
            assert list(L.beta) == list(want)
            assert _hexes(L.beta.values()) == _hexes(want.values())
            nudged = AtomicMeasure(tuple(Atom(a.x, a.y, a.w * (1 + 1e-7 * r))
                                         for r, a in enumerate(mu.atoms)))
            other = generate_measure(case, n, k, seed=k + 100)
            for nu in (mu, nudged, other):
                assert verify(nu, L).hex() == reference_verify(nu, L).hex()


def test_verify_and_moments_edge_cases_match_the_loop():
    """The empty measure, NaN moments (skipped as max skips them), a sum that
    is a lone -0.0, and a power that overflows (OverflowError, as before)."""
    case = make_case("P4")
    mu = generate_measure(case, 4, 2, seed=0)
    L = MomentSequence(case, 2, mu.moments(2))
    empty = AtomicMeasure(())
    assert empty.moments(2) == dict.fromkeys(L.beta, 0)
    assert verify(empty, L).hex() == reference_verify(empty, L).hex()
    for key in ((0, 0), (1, 0)):
        bad = L.perturbed({key: math.nan})
        assert verify(mu, bad).hex() == reference_verify(mu, bad).hex()
    neg = AtomicMeasure((Atom(0.0, -1.0, 1.0),))
    assert _hexes(neg.moments(2).values()) == _hexes(_loop_moments(neg, 2).values())
    far = AtomicMeasure(mu.atoms + (Atom(1e200, 1.0, 1.0),))
    for compute in (lambda: reference_verify(far, L), lambda: verify(far, L),
                    lambda: far.moments(2)):
        with pytest.raises(OverflowError):
            compute()


class TestVerifyGenerate:
    def test_verify_perturbed_weight(self):
        case = make_case("P3")
        mu = AtomicMeasure((Atom(1.0, 1.0, 1.0),))
        L = MomentSequence(case, 2, mu.moments(2))
        mu2 = AtomicMeasure((Atom(1.0, 1.0, 2.0),))
        # every moment is off by the doubled weight: |2-1|/max(1, 1)
        assert verify(mu2, L) == pytest.approx(1.0)

    def test_verify_bound_is_relative_to_max_one_beta(self):
        """A moment off by 1.5e-6 where |beta| = 1 fails the 1e-6 bound."""
        case = make_case("P3")
        mu = AtomicMeasure((Atom(1.0, 1.0, 1.0),))
        L = MomentSequence(case, 2, mu.moments(2))
        assert all(b == 1.0 for b in L.beta.values())
        off = AtomicMeasure((Atom(1.0, 1.0, 1.0 + 1.5e-6),))
        assert verify(off, L) == pytest.approx(1.5e-6)
        assert not verify(off, L) < 1e-6

    def test_empty_measure_zero_sequence(self):
        case = make_case("P4")
        beta = {(i, j): 0.0 for i in range(5) for j in range(5) if i + j <= 4}
        assert verify(AtomicMeasure(()), MomentSequence(case, 2, beta)) == 0.0

    def test_unit_atom_on_p3(self):
        case = make_case("P3")
        mu = AtomicMeasure((Atom(1.0, 1.0, 1.0),))
        L = MomentSequence(case, 2, mu.moments(2))
        assert all(v == pytest.approx(1.0) for v in L.beta.values())

    def test_p26_ideal_residual(self):
        from tmp3.moment import check_ideal_vanishing

        case = make_case("P26", dict(a=1.0, b=2.0))
        L, mu = generate(case, 3, n_atoms=9, seed=7)
        assert check_ideal_vanishing(L) < 1e-10 * L.scale()

    def test_determinism(self):
        case = make_case("P6", CASE_PARAMS["P6"])
        m1 = generate_measure(case, 6, 2, seed=42)
        m2 = generate_measure(case, 6, 2, seed=42)
        assert m1 == m2


class TestWitness:
    def test_constant_witness(self):
        case = make_case("P4")
        beta = {(i, j): 0.0 for i in range(5) for j in range(5) if i + j <= 4}
        beta[(0, 0)] = -1.0
        L = MomentSequence(case, 2, beta)
        dec = decide(L)
        assert dec.verdict == "NotMomentFunctional"
        p = witness(L, decision=dec)
        assert L.value(p) < 0

    def test_localizing_witness_p3(self):
        case = make_case("P3")
        L, mu = generate(case, 2, n_atoms=6, seed=8)
        # inflating beta20 eventually breaks the localizing matrix first
        from tmp3 import linalg
        from tmp3.moment import localizing_matrix

        L2 = None
        for delta in np.geomspace(0.1, 1e4, 40):
            cand = L.perturbed({(0, 1): -delta})
            if linalg.psd_margin(localizing_matrix(cand).known()) < -1e-4:
                L2 = cand
                break
        assert L2 is not None
        dec = decide(L2)
        if dec.verdict == "NotMomentFunctional" and dec.witness_available:
            p = witness(L2, decision=dec)
            assert L2.value(p) < -1e-10 * L2.scale()
            assert sampled_min_on_curve(p, case) >= -1e-8

    def test_v2_witness_p19(self):
        case = make_case("P19")
        L, mu = generate(case, 2, n_atoms=6, seed=9)
        L2 = None
        from tmp3 import linalg
        from tmp3.moment import _form

        # subtract a point mass on the line: keeps the ideal, eventually
        # drives the chi2-factor matrix indefinite
        x0 = 0.8
        pe = {key: x0 ** key[0] * 0.0 ** key[1] for key in L.beta}
        for delta in np.geomspace(0.05, 1e4, 50):
            cand = L.perturbed({key: -delta * v for key, v in pe.items()})
            m2 = _form(case, 2, "Q1").matrix(moment._beta_vector(cand))
            if linalg.psd_margin(m2.known()) < -1e-4:
                L2 = cand
                break
        assert L2 is not None
        dec = decide(L2)
        assert dec.verdict == "NotMomentFunctional"
        p = witness(L2, decision=dec)
        assert L2.value(p) < -1e-10 * L2.scale()
        assert sampled_min_on_curve(p, case) >= -1e-8

    def test_no_witness_on_pass(self):
        case = make_case("P4")
        L, _ = generate(case, 2, n_atoms=6, seed=1)
        with pytest.raises(NoWitness):
            witness(L)


def _vk_refuted():
    """P3: a genuine 7-atom measure minus a 0.01 point mass; V^(k) holds y/x."""
    case = make_case("P3")
    mu = generate_measure(case, 8, 2, seed=0)
    z = mu.atoms[7]
    return case, mu.atoms[:7] + (Atom(z.x, z.y, -0.01),), "Vk"


def _q0_refuted():
    """P15: a genuine 7-atom measure plus a seeded signed measure of weight ~0.01."""
    case = make_case("P15", CASE_PARAMS["P15"])
    mu = generate_measure(case, 15, 2, seed=2)
    signed = np.random.default_rng(2).standard_normal(8)
    return case, mu.atoms[:7] + tuple(
        Atom(a.x, a.y, 0.01 * c) for a, c in zip(mu.atoms[7:], signed)), "Q0"


def _p5_schur_refuted():
    """P5: two atoms, a mass of 1e6 at the isolated point and a 1e-6 point mass
    subtracted elsewhere.  The moment matrix fails only by -6e-11 of its scale,
    inside the psd tolerance, while the Schur block, which the origin mass
    does not reach, fails by -1.8e-5 of its own."""
    case = make_case("P5")
    mu = generate_measure(case, 3, 2, seed=0)
    z = mu.atoms[2]
    return case, mu.atoms[:2] + (Atom(0.0, 0.0, 1e6), Atom(z.x, z.y, -1e-6)), "schur"


# the compiled form each refuting check reads; P5's Schur block is its rows 2:
_REFUTING_FORM = {"moment_matrix_pd": "Bk", "localizing_matrix_pd": "Vk",
                  "localizing_chi1_pd": "Q0", "localizing_chi2_pd": "Q1",
                  "schur_block_psd": "schur"}


def _refuting(L, dec):
    """(which, form, failing matrix) of the check whose margin is below -tol.psd,
    and the invariant: a refutation carries a witness, and nothing else does."""
    assert (dec.verdict == "NotMomentFunctional") == (dec.witness is not None)
    name = next(c.name for c in dec.details if c.margin < -DEFAULT_TOL.psd)
    which = _REFUTING_FORM[name]
    if which == "schur":
        return which, _form(L.case, L.k, "lift"), moment._Lift(L).completion.D
    form = _form(L.case, L.k, which)
    return which, form, form.matrix(moment._beta_vector(L)).known()


@pytest.mark.parametrize("build", [_vk_refuted, _q0_refuted, _p5_schur_refuted])
def test_refutation_witness(build):
    """Refutations from the localizing form, a two-factor form and P5's Schur
    block: each witness p has L(p) < 0 and p >= 0 on the curve, up to the
    rounding of its terms."""
    case, atoms, which = build()
    k = 2
    L = MomentSequence(case, k, AtomicMeasure(atoms).moments(k))
    dec = decide(L)
    assert dec.verdict == "NotMomentFunctional"
    got, form, M = _refuting(L, dec)
    assert got == which
    if which == "Vk":  # the witness clears the denominator of y/x
        assert any(e.rat.denominator.degree() > 0 for e in form.elements)
    p = witness(L, decision=dec)
    assert p is dec.witness and L.value(p) < 0
    # p is the failing form read backwards: L(p) = g^T M g up to rounding
    g = np.linalg.eigh(M)[1][:, 0]
    assert abs(L.value(p) - g @ M @ g) <= rounding_bound(p, L)
    _assert_nonnegative_on_curve(p, case)


def _assert_nonnegative_on_curve(p, case):
    for x, y, _ in sample_points(case, 200, seed=1):
        terms = [c * x**i * y**j for (i, j), c in p.coeffs.items()]
        assert sum(terms) >= -1e-8 * sum(map(abs, terms)), (x, y)


def _bk_refuted():
    """P3: a genuine 7-atom measure minus a point mass of 10; B_k fails first."""
    case = make_case("P3")
    mu = generate_measure(case, 8, 2, seed=0)
    z = mu.atoms[7]
    return case, mu.atoms[:7] + (Atom(z.x, z.y, -10.0),), "Bk"


@pytest.mark.parametrize("build", [_bk_refuted, _vk_refuted])
def test_witness_is_rank_one_certificate(build):
    """The witness of a B_k or V^(k) refutation is the v1 certificate with the
    refuting Gram matrix g g^T on its term and zeros on the other; the
    sampled residual checks the adjoint map pointwise on the curve."""
    case, atoms, which = build()
    k = 2
    L = MomentSequence(case, k, AtomicMeasure(atoms).moments(k))
    dec = decide(L)
    assert dec.verdict == "NotMomentFunctional"
    got, _, M = _refuting(L, dec)
    assert got == which
    p = witness(L, decision=dec)
    g = np.linalg.eigh(M)[1][:, 0]
    labels = {w: list(_form(case, k, w).labels) for w in ("Bk", "Vk")}
    grams = {w: SymmetricForm(lab, np.zeros((len(lab), len(lab)))) for w, lab in labels.items()}
    grams[which] = SymmetricForm(labels[which], np.outer(g, g))
    res = verify_certificate(p, Certificate("v1", grams["Bk"], grams["Vk"]), case, k)
    assert res.ok(), res


def test_p5_witness_under_a_heavy_isolated_mass():
    """P5 with a mass of 1e3 at the isolated point and a tiny mass subtracted
    elsewhere: the Schur block refutes, and its witness vanishes at the origin,
    so L(p) is tiny against L's scale yet far below the rounding bound of its
    own terms; each refutation has a sound witness."""
    case = make_case("P5")
    refuted = 0
    for n, seed in ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (3, 0)):
        mu = generate_measure(case, n + 1, 2, seed=seed)
        z = mu.atoms[n]
        for eps in (5.6e-12, 1e-11, 3e-11, 1e-10):
            atoms = mu.atoms[:n] + (Atom(0.0, 0.0, 1e3), Atom(z.x, z.y, -eps))
            L = MomentSequence(case, 2, AtomicMeasure(atoms).moments(2))
            dec = decide(L)
            if not (dec.verdict == "NotMomentFunctional" and dec.witness_available):
                continue
            refuted += 1
            p = witness(L, decision=dec)
            assert L.value(p) < 0, (n, seed, eps)
            # the value the signed measure gives p, which the origin mass does not reach
            exact = sum(a.w * p.eval(a.x, a.y) for a in atoms)
            assert L.value(p) == pytest.approx(exact, rel=1e-5), (n, seed, eps)
            _assert_nonnegative_on_curve(p, case)
    assert refuted == 12


class TestRoundTripSubset:
    @pytest.mark.parametrize("cid,params", CONSTRUCTIVE)
    def test_roundtrip(self, cid, params):
        case = make_case(cid, params)
        for k in range(case.k_min, 4):
            for seed in (0, 1):
                L, mu = generate(case, k, n_atoms=3 * k, seed=seed)
                dec = decide(L)
                assert dec.passed(), (cid, k, seed, dec.verdict)
                rec = extract(L, decision=dec)
                assert verify(rec, L) < 1e-6
                assert len(rec) <= 3 * k + 1

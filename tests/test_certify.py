import numpy as np
import pytest

from conftest import bench_corpus, clear_tables
from tmp3 import make_case
from tmp3.bases import basis_Bk, basis_Rk1, basis_Vk
from tmp3.certify import (
    Certificate,
    NotPsd,
    ShapeMismatch,
    reassemble_gram,
    sos_from_gram,
    verify_certificate,
)
from tmp3.curves import chi_flags, multiplier, sample_arrays
from tmp3.linalg import SymmetricForm
from tmp3.poly import BivarPoly, RationalElem, normal_low, product_on_curve

_M = BivarPoly.monomial
_C = BivarPoly.const


def _coeff_vec(labels, pairs):
    v = np.zeros(len(labels))
    for lbl, c in pairs:
        v[labels.index(lbl)] = c
    return v


class TestVerifyCertificate:
    def test_forward_square_nodal(self):
        case = make_case("P4")
        k = 2
        b = basis_Bk(case, k)
        vec = _coeff_vec(b.labels(), [("1", 2.0), ("[t^2-t^0]", 1.0)])  # 1+x
        g0 = SymmetricForm(b.labels(), np.outer(vec, vec))
        p = (_C(1.0) + _M(1, 0)) ** 2
        res = verify_certificate(p, Certificate("v1", g0), case, k)
        assert res.sampled < 1e-10
        assert res.symbolic is not None and res.symbolic < 1e-10

    def test_example_weier_identity(self):
        """x*(y/x)^2 equals q(x) on the disconnected Weierstrass curve."""
        case = make_case("P1", dict(a=1.0, b=2.0))
        k = 2
        b0 = basis_Bk(case, k)
        v = basis_Vk(case, k)
        g0 = SymmetricForm(b0.labels(), np.zeros((len(b0), len(b0))))
        w = _coeff_vec(v.labels(), [("y/x", 1.0)])
        g1 = SymmetricForm(v.labels(), np.outer(w, w))
        q = (_M(1, 0) - _C(1.0)) * (_M(1, 0) - _C(2.0))
        res = verify_certificate(q, Certificate("v1", g0, g1), case, k)
        assert res.sampled < 1e-10
        assert res.symbolic < 1e-10

    def test_perturbation_detected(self):
        case = make_case("P4")
        k = 2
        b = basis_Bk(case, k)
        vec = _coeff_vec(b.labels(), [("1", 2.0), ("[t^2-t^0]", 1.0)])
        g0 = SymmetricForm(b.labels(), np.outer(vec, vec))
        eps = 1e-3
        p = (_C(1.0) + _M(1, 0)) ** 2 + _M(1, 0, eps)
        res = verify_certificate(p, Certificate("v1", g0), case, k)
        assert res.sampled > eps / 100
        assert res.symbolic > eps / 100

    def test_v2_certificate(self):
        case = make_case("P19")
        k = 2
        b0 = basis_Bk(case, k)
        br = basis_Rk1(case, k)
        g0 = SymmetricForm(b0.labels(), np.zeros((len(b0), len(b0))))
        h = _coeff_vec(br.labels(), [("1", 1.0)])
        g2 = SymmetricForm(br.labels(), np.outer(h, h))
        chi1, chi2 = chi_flags(case)
        p = normal_low(float(chi2) * case.factors()[1], case)
        res = verify_certificate(p, Certificate("v2", g0, None, g2), case, k)
        assert res.sampled < 1e-10

    def test_shape_mismatch(self):
        case = make_case("P4")
        g0 = SymmetricForm(["1"], np.eye(1))
        with pytest.raises(ShapeMismatch):
            verify_certificate(_C(1.0), Certificate("v1", g0), case, 2)

    def test_not_psd(self):
        case = make_case("P4")
        b = basis_Bk(case, 2)
        M = np.zeros((6, 6))
        M[0, 0] = -1.0
        with pytest.raises(NotPsd):
            verify_certificate(_C(1.0), Certificate("v1", SymmetricForm(b.labels(), M)),
                               case, 2)


class TestSosFromGram:
    def test_identity(self):
        sq = sos_from_gram(SymmetricForm(["a", "b"], np.eye(2)), None)
        assert len(sq) == 2
        assert np.allclose(reassemble_gram(sq, 2), np.eye(2))

    def test_rank_one(self):
        w = np.array([1.0, 2.0, -1.0])
        sq = sos_from_gram(SymmetricForm(list("abc"), np.outer(w, w)), None)
        assert len(sq) == 1
        assert np.allclose(np.abs(sq[0]), np.abs(w))

    def test_random_roundtrip(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        Q = A @ A.T
        sq = sos_from_gram(SymmetricForm([str(i) for i in range(6)], Q), None)
        assert len(sq) <= 6
        assert np.abs(reassemble_gram(sq, 6) - Q).max() < 1e-9 * np.abs(Q).max()

    def test_rejects_indefinite(self):
        M = np.diag([1.0, -1.0])
        with pytest.raises(NotPsd):
            sos_from_gram(SymmetricForm(["a", "b"], M), None)


def _combination_squares(els, A, f, case, k):
    """sum over columns l of f * (sum_r A[r, l] els[r])^2 as a polynomial on the curve.

    Plain polynomial squares, left unreduced, when f is None and every element
    is a polynomial; otherwise each square goes through product_on_curve over
    the common denominator, never through the checker's product table.
    """
    if f is None:
        out = BivarPoly.zero()
        for col in A.T:
            u = sum((float(c) * e.rat.numerator for c, e in zip(col, els)), BivarPoly.zero())
            out = out + u * u
        return out
    dens = {tuple(sorted(e.rat.denominator.coeffs.items())): e.rat.denominator for e in els}
    common = _C(1.0)
    for d in dens.values():
        common = common * d
    out = BivarPoly.zero()
    for col in A.T:
        num = BivarPoly.zero()
        for c, e in zip(col, els):
            pad = _C(float(c))
            for key, d in dens.items():
                if key != tuple(sorted(e.rat.denominator.coeffs.items())):
                    pad = pad * d
            num = num + e.rat.numerator * pad
        u = RationalElem(num, common)
        out = out + product_on_curve(u, u, f, case, k)
    return out


def _random_v1_certificate(case, k, seed):
    """(p, certificate) from random psd Gram matrices A A^T over basis_Bk and basis_Vk."""
    rng = np.random.default_rng(seed)
    p, grams = BivarPoly.zero(), []
    for basis, f in ((basis_Bk(case, k), None), (basis_Vk(case, k), multiplier(case).f)):
        n = len(basis)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        p = p + _combination_squares(basis.elements, A, f, case, k)
        grams.append(SymmetricForm(basis.labels(), A @ A.T))
    return p, Certificate("v1", *grams)


def _random_v2_certificate(case, k, seed):
    """(p, certificate) over basis_Bk and basis_Rk1 with the factor signs."""
    rng = np.random.default_rng(seed)
    b0, br = basis_Bk(case, k), basis_Rk1(case, k)
    A0 = rng.standard_normal((len(b0), len(b0))) / np.sqrt(len(b0))
    p = _combination_squares(b0.elements, A0, None, case, k)
    grams = [SymmetricForm(b0.labels(), A0 @ A0.T)]
    for chi, fac in zip(chi_flags(case), case.factors()):
        if chi == 0:
            grams.append(None)
            continue
        A = rng.standard_normal((len(br), len(br))) / np.sqrt(len(br))
        p = p + float(chi) * fac * _combination_squares(br.elements, A, None, case, k)
        grams.append(SymmetricForm(br.labels(), A @ A.T))
    return p, Certificate("v2", *grams)


# P6 (d = 0), P7, P9 at k = 4 and P11 at k = 2..4 were rejected while the
# sampled residual was divided only by p's largest coefficient; a shifted
# P12 certificate at k = 5, 6 nearly passed under that scaling.
@pytest.mark.parametrize("cid,params,k", [
    ("P6", dict(a=1.0, d=0.0, e=2.0), 4),
    ("P7", dict(a=1.0, d=-1.0, e=2.0), 4),
    ("P9", dict(c=0.5, d=-1.0, e=2.0), 4),
    ("P11", dict(a=1.0, c=0.5, d=-1.0, e=2.0), 2),
    ("P11", dict(a=1.0, c=0.5, d=-1.0, e=2.0), 3),
    ("P11", dict(a=1.0, c=0.5, d=-1.0, e=2.0), 4),
    ("P12", dict(c2=0.5, c1=-1.0, c0=2.0), 5),
    ("P12", dict(c2=0.5, c1=-1.0, c0=2.0), 6),
])
@pytest.mark.parametrize("seed", [1, 2])
def test_random_certificate_scale_aware(cid, params, k, seed):
    case = make_case(cid, params)
    p, cert = _random_v1_certificate(case, k, seed)
    assert verify_certificate(p, cert, case, k).ok()
    assert not verify_certificate(p + 1.0, cert, case, k).ok()


@pytest.mark.parametrize("cid,params", [("P15", dict(a=-3.0)), ("P19", {}),
                                        ("P24", dict(a=-1.0))])
@pytest.mark.parametrize("k", [2, 3])
def test_v2_symbolic_residual(cid, params, k):
    case = make_case(cid, params)
    p, cert = _random_v2_certificate(case, k, seed=5)
    res = verify_certificate(p, cert, case, k)
    assert res.symbolic is not None and res.symbolic < 1e-10
    assert res.ok()
    bad = verify_certificate(p + _M(1, 0, 1e-3), cert, case, k)
    assert bad.symbolic > 1e-5
    assert not bad.ok()


# An exact sparse Gram matrix plus solver-sized noise (or a tiny diagonal
# entry) reaches monomials where p has no coefficient: their residual is
# absolute, not relative to the near-zero contributions alone.
@pytest.mark.parametrize("noise", ["psd", "diagonal"])
def test_sparse_gram_with_tiny_entries(noise):
    case = make_case("P4")
    k = 2
    b = basis_Bk(case, k)
    vec = _coeff_vec(b.labels(), [("1", 2.0), ("[t^2-t^0]", 1.0)])  # 1+x
    G = np.outer(vec, vec)
    if noise == "psd":
        B = np.random.default_rng(0).standard_normal((len(b), len(b)))
        G = G + 1e-15 * (B @ B.T)
    else:
        G[-1, -1] += 1e-20
    p = (_C(1.0) + _M(1, 0)) ** 2
    res = verify_certificate(p, Certificate("v1", SymmetricForm(b.labels(), G)), case, k)
    assert res.symbolic is not None and res.symbolic < 1e-10
    assert res.ok()
    assert not verify_certificate(p + 1.0, Certificate("v1", SymmetricForm(b.labels(), G)),
                                  case, k).ok()


# ---------------------------------------------------------------------------
# The sampled residual reads a power table and a per-form table: same bits


CORPUS = bench_corpus()


def _corpus_certificate(label, k, seed):
    """(case, p, certificate) of the corpus certificate of label at k."""
    _, cid, params = next(c for c in CORPUS.CASES if c[0] == label)
    rec = CORPUS.make_certificate(seed, label, cid, params, k)

    def gram(key, labels):
        return None if rec[key] is None else SymmetricForm(labels, rec[key])

    cert = Certificate(rec["form"], gram("gram0", rec["labels0"]),
                       gram("gram1", rec["labels1"]), gram("gram2", rec["labels1"]))
    return make_case(cid, params), BivarPoly(CORPUS.poly_from_list(rec["p"])), cert


def _reference_sampled(p, terms, case):
    """The sampled residual with p and every element evaluated term by term at
    each call, through RationalElem.eval_array."""
    X, Y = sample_arrays(case, 200, seed=11)
    total, scale = np.zeros(X.shape), np.zeros(X.shape)
    for (i, j), c in p.coeffs.items():
        t = c * X**i * Y**j
        total, scale = total - t, scale + np.abs(t)
    pole = np.zeros(X.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for form, g in terms:
            V, bad = map(np.array, zip(*(e.rat.eval_array(X, Y) for e in form.elements)))
            fv, fbad = form.f.eval_array(X, Y)
            G = g.known()
            total += form.chi * fv * np.sum(V * (G @ V), axis=0)
            scale += np.abs(fv) * np.sum(np.abs(V) * (np.abs(G) @ np.abs(V)), axis=0)
            pole |= bad.any(axis=0) | fbad
        r = np.abs(total) / np.maximum(1.0, scale)
    return float(np.max(r[~pole], initial=0.0))


@pytest.mark.parametrize("label", [c[0] for c in CORPUS.CASES])
def test_sampled_residual_matches_reference(label, monkeypatch):
    """Valid and shifted corpus certificates (seed 2, k = 2..4): the sampled
    residual, which reads every element from its form's cached values,
    equals the term-by-term evaluation at each call bit for bit.  P7-P9
    bring a rational V^(k) element (the partial V^(k) of P10 and P11 has
    none), other cases composite elements or a non-constant multiplier."""
    from tmp3 import certify

    seen = []

    def recording(p, terms, case):
        seen.append((p, terms, case))
        return sampled(p, terms, case)

    sampled = certify._sampled_residual
    monkeypatch.setattr(certify, "_sampled_residual", recording)
    rational = False
    for k in (2, 3, 4):
        case, p, cert = _corpus_certificate(label, k, seed=2)
        for q in (p, p + 1.0):
            res = verify_certificate(q, cert, case, k)
            assert res.sampled == _reference_sampled(*seen[-1])
        rational |= any(e.kind == "rational" for form, _ in seen[-1][1] for e in form.elements)
    assert rational or label not in ("P7", "P8", "P9")


def test_caches_do_not_change_bits():
    """Certificate residuals and rational products, cold, warm, and after the
    per-form values, the power tables, the sample points and the symbolic
    tables (normal forms, quotients, divisions, division matrices, bases and
    forms) are cleared."""
    from tmp3 import certify, poly
    from tmp3.moment import _form

    def clear():
        certify._form_values.cache_clear()
        certify._power.cache_clear()
        sample_arrays.cache_clear()
        clear_tables()

    def outputs():
        out = []
        for label in ("P3", "P5", "P7", "P8", "P15"):
            for k in (2, 3):
                case, p, cert = _corpus_certificate(label, k, seed=1)
                for q in (p, p + 1.0):
                    res = verify_certificate(q, cert, case, k)
                    out.append((res.sampled, res.symbolic))
                for which in ("Bk",) if case.is_v2() else ("Bk", "Vk"):
                    form = _form(case, k, which)
                    for u in form.elements:
                        for v in form.elements:
                            if u.rat.denominator.degree() > 0 or v.rat.denominator.degree() > 0:
                                r = product_on_curve(u.rat, v.rat, form.f, case, k)
                                out.append(None if r is None else list(r.coeffs.items()))
        return out

    clear()
    cold = outputs()
    assert certify._form_values.cache_info().currsize > 0
    assert certify._power.cache_info().currsize > 0
    assert poly._division_matrix.cache_info().currsize > 0
    assert poly._normal.cache_info().currsize > 0
    warm = outputs()
    clear()
    assert outputs() == cold == warm
    assert any(isinstance(o, list) for o in cold)


def test_power_rows_are_read_only():
    """The cached powers of the sample coordinates and the cached values of a
    form (its elements, its multiplier, its pole mask) refuse in-place writes."""
    from tmp3 import certify
    from tmp3.moment import _form

    case, p, cert = _corpus_certificate("P3", 2, seed=1)
    verify_certificate(p, cert, case, 2)
    with pytest.raises(ValueError):
        certify._power(case, 0, 2)[0] = 1.0
    for a in certify._form_values(_form(case, 2, "Bk"), case):
        with pytest.raises(ValueError):
            a[0] = 0

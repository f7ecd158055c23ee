import dataclasses

import numpy as np
import pytest

from conftest import CASE_PARAMS, clear_tables
from tmp3 import make_case
from tmp3.bases import KTooSmall, basis_Bk, basis_Rk1, basis_Vk, combined_lift
from tmp3.curves import NotApplicable, sample_points
from tmp3.moment import _form
from tmp3.poly import BasisElement, PoleError


def _gram_rank(case, elements, n_pts, seed=13):
    pts = sample_points(case, 4 * n_pts, seed=seed)
    rows = []
    for x, y, _ in pts:
        try:
            rows.append([e.eval(x, y) for e in elements])
        except PoleError:
            continue
        if len(rows) >= n_pts:
            break
    V = np.array(rows)
    s = np.linalg.svd(V, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0]))


class TestSizeLaws:
    @pytest.mark.parametrize("cid", list(CASE_PARAMS))
    def test_sizes(self, cid):
        case = make_case(cid, CASE_PARAMS[cid])
        for k in range(case.k_min, 5):
            assert len(basis_Bk(case, k)) == 3 * k
            if case.is_v2():
                assert len(basis_Rk1(case, k)) == 3 * (k - 1)
            else:
                vb = basis_Vk(case, k)
                if cid in ("P10", "P11"):
                    assert vb.partial and len(vb) == 3 * k - 1
                else:
                    assert not vb.partial and len(vb) == 3 * k

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            basis_Bk(make_case("P1", dict(a=1.0, b=2.0)), 1)

    def test_rk1_only_for_v2(self):
        with pytest.raises(NotApplicable):
            basis_Rk1(make_case("P4"), 2)
        with pytest.raises(NotApplicable):
            basis_Vk(make_case("P19"), 2)


class TestTableOrders:
    def test_p1_k2(self):
        b = basis_Bk(make_case("P1", dict(a=1.0, b=2.0)), 2)
        assert b.labels() == ["1", "x", "y", "x^2", "xy", "y^2"]

    def test_p6_k2_order(self):
        b = basis_Bk(make_case("P6", dict(a=1.0, d=-1.0, e=2.0)), 2)
        assert b.labels() == ["x^2", "x", "xy", "1", "y", "y^2"]

    def test_p17_k3(self):
        b = basis_Bk(make_case("P17"), 3)
        assert b.labels() == ["1", "x", "x^2", "x^3", "y", "y^2", "y^3", "xy", "xy^2"]

    def test_p4_vk(self):
        v = basis_Vk(make_case("P4"), 2)
        assert v.labels()[0] == "y/(x-1)"
        assert len(v) == 6

    def test_p21_vk_k2(self):
        v = basis_Vk(make_case("P21"), 2)
        assert "x^2y" in v.labels() and "x^2" not in v.labels()

    def test_p13_vk(self):
        v = basis_Vk(make_case("P13"), 3)
        assert "x^2y^2" in v.labels() and "y^3" not in v.labels()

    def test_weier_localizing_row_order(self):
        v = basis_Vk(make_case("P1", dict(a=1.0, b=2.0)), 3)
        assert v.labels() == ["1", "y/x", "x", "y", "x^2", "xy", "y^2", "x^2y", "xy^2"]


class TestIndependence:
    @pytest.mark.parametrize("cid", list(CASE_PARAMS))
    def test_gram_rank_full(self, cid):
        case = make_case(cid, CASE_PARAMS[cid])
        for k in range(case.k_min, 5):
            bk = basis_Bk(case, k)
            assert _gram_rank(case, bk.elements, 6 * k + 5) == len(bk)
            if case.is_v2():
                rb = basis_Rk1(case, k)
                assert _gram_rank(case, rb.elements, 6 * k + 5) == len(rb)
            else:
                vb = basis_Vk(case, k)
                assert _gram_rank(case, vb.elements, 6 * k + 5) == len(vb)


class TestPullbackConstraints:
    def test_p4_tilde_sign_flip(self):
        case = make_case("P4")
        for e in basis_Vk(case, 2).elements:
            # tilde functions satisfy s(1) = -s(-1); both curve points exist
            from tmp3.poly import eval_pullback

            a = eval_pullback(e.rat, case, 1.0 + 1e-9)
            b = eval_pullback(e.rat, case, -1.0 + 1e-9)
            assert a == pytest.approx(-b, abs=1e-6)

    def test_p13_tilde_degree(self):
        case = make_case("P13")
        k = 3
        for e in basis_Vk(case, k).elements:
            i, j = e.exps
            assert i + 3 * j <= 3 * k - 1

    def test_p12_g_element_pullback(self):
        params = CASE_PARAMS["P12"]
        case = make_case("P12", params)
        k = 2
        v = basis_Vk(case, k)
        vstar = v.elements[-1]
        from tmp3.poly import UnivarPoly

        c = UnivarPoly([params["c0"], params["c1"], params["c2"], 1.0])
        for t in (0.7, -1.3, 2.1):
            want = (c.eval(t) ** k - 2 * t ** (3 * k)) / t**k
            got = vstar.rat.eval(t, c.eval(t) / t)
            assert got == pytest.approx(want, rel=1e-9)


class TestCombinedLift:
    def test_unknown_positions(self):
        for cid, params in CASE_PARAMS.items():
            case = make_case(cid, params)
            if not case.is_constructive():
                continue
            k = 2
            lift = combined_lift(case, k)
            assert len(lift.elements) == 3 * k + 1
            if cid == "P13":
                assert lift.unknown == (3 * k - 1, 3 * k)
            else:
                assert lift.unknown == (0, 1)

    def test_numerator_matrix_invertible(self):
        for cid, params in [("P3", {}), ("P4", {}), ("P5", {}),
                            ("P6", CASE_PARAMS["P6"]), ("P12", CASE_PARAMS["P12"]),
                            ("P13", {})]:
            case = make_case(cid, params)
            for k in range(case.k_min, 4):
                lift = combined_lift(case, k)
                n = len(lift.elements)
                N = np.zeros((n, n))
                for r, num in enumerate(lift.numerators):
                    for i, cc in enumerate(num.coeffs):
                        N[r, i] = cc
                assert np.linalg.cond(N) < 1e6


def test_bk_built_once_per_case_and_k(monkeypatch):
    """The Bk, Vk and lift forms of P4 at k = 3 build B_k once: basis_Vk and the
    lift read the cached basis, and every unit monomial is one shared element."""
    from tmp3 import curves

    record = curves._CATALOG["P4"]
    calls = []

    def bk(case, k):
        calls.append(k)
        return record.bk(case, k)

    monkeypatch.setitem(curves._CATALOG, "P4", dataclasses.replace(record, bk=bk))
    clear_tables()
    try:
        case = make_case("P4")
        for which in ("Bk", "Vk", "lift"):
            _form(case, 3, which)
        assert calls == [3]
        assert basis_Vk(case, 3).elements[1:] == basis_Bk(case, 3).elements[1:]
        assert BasisElement.monomial(2, 1) is BasisElement.monomial(2, 1)
    finally:
        clear_tables()

import math

import numpy as np
import pytest

from tmp3.linalg import (
    DEFAULT_TOL,
    Interval,
    SymmetricForm,
    completion_interval,
    kernel_basis,
    numeric_rank,
    psd_margin,
)


def is_psd(M, tol=DEFAULT_TOL.psd):
    """lambda_min(M) >= -tol * max(1, |M|)."""
    return bool(np.linalg.eigvalsh(M)[0] >= -tol * max(1.0, np.abs(M).max()))


def is_pd(M, tol=DEFAULT_TOL.pd):
    """lambda_min(M) >= tol * |M|."""
    return bool(np.linalg.eigvalsh(M)[0] >= tol * np.abs(M).max())


def inside(ivl, n):
    """n evenly spaced points strictly inside a nonempty interval."""
    return [ivl.lo + ivl.width * (i + 1) / (n + 1) for i in range(n)]


class TestPsdPd:
    def test_identity_pd(self):
        assert psd_margin(np.eye(2)) >= DEFAULT_TOL.pd

    def test_rank_one_psd_not_pd(self):
        m = psd_margin(np.ones((2, 2)))
        assert -DEFAULT_TOL.psd <= m < DEFAULT_TOL.pd

    def test_indefinite(self):
        assert psd_margin(np.array([[0.0, 1.0], [1.0, 0.0]])) < -DEFAULT_TOL.psd

    def test_pd_implies_psd_random(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            A = rng.standard_normal((5, 5))
            M = A @ A.T + 1e-3 * np.eye(5)
            assert psd_margin(M) > 0.0 and is_pd(M) and is_psd(M)


class TestRankKernel:
    def test_rank_one_gram(self):
        w = np.array([1.0, -2.0, 3.0])
        assert numeric_rank(np.outer(w, w)) == 1

    def test_gram_of_atoms(self):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((4, 7))  # 4 atoms in a 7-dim space
        G = V.T @ V
        assert numeric_rank(G) == 4
        assert kernel_basis(G).shape[1] == 3

    def test_zero(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_kernel_example(self):
        K = kernel_basis(np.ones((2, 2)))
        v = K[:, 0]
        assert abs(abs(v @ np.array([1, -1]) / math.sqrt(2)) - 1.0) < 1e-12

    def test_rank_plus_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            V = rng.standard_normal((3, 6))
            G = V.T @ V
            assert numeric_rank(G) + kernel_basis(G).shape[1] == 6

    def test_restrict(self):
        f = SymmetricForm(["a", "b", "c"], np.eye(3))
        sub = f.restrict([0])
        assert sub.labels == ["a"] and sub.entries.shape == (1, 1)


class TestSchur:
    """The Schur data of the shared decomposition: the unknown pair on top, D below."""

    def test_simple(self):
        M = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 2.0], [1.0, 2.0, 2.0]])
        comp = completion_interval(SymmetricForm(list("abc"), M, unknown=(0, 1)))
        s1, s2, c0, ra, rb = comp.schur
        assert np.allclose([s1, s2, c0], [1.5, 1.0, 1.0]) and ra < 1e-12 and rb < 1e-12
        assert comp.margin == pytest.approx(1.0)

    def test_block_diagonal(self):
        A = np.diag([2.0, 3.0])
        M = np.block([[A, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        comp = completion_interval(SymmetricForm(list("abcd"), M, unknown=(0, 1)))
        assert np.allclose(comp.schur[:3], [2.0, 3.0, 0.0])
        assert np.allclose([comp.psd.lo, comp.psd.hi], [-math.sqrt(6.0), math.sqrt(6.0)])

    def test_albert_criterion(self):
        """M psd iff D psd, the pair's rows a, b lie in range(D), and the 2 x 2
        Schur complement [[s1, v - c0], [v - c0, s2]] is psd, v = M[0, 1]."""
        rng = np.random.default_rng(3)
        agree = 0
        for trial in range(100):
            n = 5
            if trial % 2 == 0:
                A = rng.standard_normal((n, n + 1))
                M = A @ A.T  # psd, possibly singular
            else:
                M = rng.standard_normal((n, n))
                M = 0.5 * (M + M.T)
            comp = completion_interval(SymmetricForm(list("abcde"), M.copy(), unknown=(0, 1)))
            s1, s2, c0, ra, rb = comp.schur
            rng_cond = max(ra, rb) <= 1e-8 * max(1.0, np.abs(M).max())
            d = M[0, 1] - c0
            crit = (is_psd(comp.D, 1e-9) and rng_cond
                    and is_psd(np.array([[s1, d], [d, s2]]), 1e-7))
            assert crit == is_psd(M, 1e-9)
            agree += 1
        assert agree == 100


class TestCompletionInterval:
    def test_pd_open(self):
        f = SymmetricForm(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]), unknown=(0, 1))
        ivl = completion_interval(f).pd
        assert ivl.lo == pytest.approx(-1.0) and ivl.hi == pytest.approx(1.0)
        assert not ivl.closed

    def test_psd_closed(self):
        f = SymmetricForm(["a", "b"], np.array([[1.0, 0.0], [0.0, 4.0]]), unknown=(0, 1))
        ivl = completion_interval(f).psd
        assert ivl.lo == pytest.approx(-2.0) and ivl.hi == pytest.approx(2.0)
        assert ivl.closed

    def test_pd_inside_psd_and_eigen_checks(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            A = rng.standard_normal((4, 5))
            M = A @ A.T + 0.1 * np.eye(4)
            f = SymmetricForm(list("abcd"), M, unknown=(0, 1))
            comp = completion_interval(f)
            psd, pd = comp.psd, comp.pd
            if pd.empty:
                continue
            assert psd.lo <= pd.lo + 1e-9 and pd.hi <= psd.hi + 1e-9
            for v in inside(pd, 3):
                assert is_pd(f.with_value(v).entries, 1e-12)
            for v in (psd.lo - 0.5, psd.hi + 0.5):
                assert not is_psd(f.with_value(v).entries)

    def test_empty(self):
        M = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        f = SymmetricForm(list("abc"), M, unknown=(0, 1))
        assert completion_interval(f).psd.empty

    def test_pd_empty_when_block_not_pd(self):
        """D avoids the unknown rows, so it is a principal submatrix of every
        completion M(v): by Cauchy interlacing lambda_min(M(v)) <= lambda_min(D),
        and once D is not numerically pd no value makes M(v) pd."""
        rng = np.random.default_rng(5)
        tol = DEFAULT_TOL
        for trial in range(20):
            # psd Gram matrix: rows 0, 1 span freely, rows 2..5 only R^3
            V = np.zeros((8, 6))
            V[:, :2] = rng.standard_normal((8, 2))
            V[:3, 2:] = rng.standard_normal((3, 4))
            G = 10.0 ** rng.uniform(-1, 3) * (V.T @ V)
            if trial % 2:
                # lambda_min(D) just inside the pd tolerance instead of 0
                G[2:, 2:] += 0.5 * tol.pd * max(1.0, np.abs(G[2:, 2:]).max()) * np.eye(4)
            D = G[2:, 2:]
            assert np.linalg.eigvalsh(D)[0] <= tol.pd * max(1.0, np.abs(D).max())
            v01 = G[0, 1]
            f = SymmetricForm(list("abcdef"), G.copy(), unknown=(0, 1))
            comp = completion_interval(f)
            assert comp.pd.empty
            scale = max(1.0, np.abs(np.nan_to_num(f.entries)).max())
            for v in np.linspace(-10.0 * scale, 10.0 * scale, 401):
                assert np.linalg.eigvalsh(f.with_value(v).entries)[0] < tol.pd * scale
            psd = comp.psd
            assert psd.closed and psd.lo - 1e-9 * scale <= v01 <= psd.hi + 1e-9 * scale
            assert psd.width > 0.0
            for v in (psd.lo, psd.midpoint(), psd.hi):
                assert is_psd(f.with_value(v).entries, 1e-8)
            for v in (psd.lo - 0.01 * psd.width, psd.hi + 0.01 * psd.width):
                assert not is_psd(f.with_value(v).entries)

    def test_requires_unknown(self):
        f = SymmetricForm(["a"], np.eye(1))
        with pytest.raises(ValueError):
            completion_interval(f)


def test_interval_helpers():
    ivl = Interval(1.0, 3.0, closed=True, empty=False)
    assert ivl.midpoint() == 2.0 and ivl.width == 2.0
    assert Interval().empty and Interval().width == 0.0
    with pytest.raises(ValueError):
        Interval().midpoint()

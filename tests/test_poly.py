import numpy as np
import pytest

from conftest import CASE_PARAMS, bench_corpus, clear_tables, reference_product
from tmp3 import make_case
from tmp3.curves import parametrization
from tmp3.poly import (
    BivarPoly,
    DegenerateInput,
    PoleError,
    RationalElem,
    UnivarPoly,
    cubic_real_roots,
    eval_pullback,
    normal_low,
    product_on_curve,
    reduce_on_curve,
)

_M = BivarPoly.monomial
_C = BivarPoly.const


def _one():
    return RationalElem(_C(1.0), _C(1.0))


class TestReduceOnCurve:
    def test_defining_relation_p1(self):
        case = make_case("P1", dict(a=1.0, b=2.0))
        r = reduce_on_curve(_M(0, 2), case)
        assert r.allclose(_M(3, 0) - _M(2, 0, 3.0) + _M(1, 0, 2.0))

    def test_y2_x_on_nodal(self):
        case = make_case("P4")
        r = reduce_on_curve(_M(1, 2), case)  # y^2 * x = x^2 (x-1)^2
        want = _M(1, 0) * (_M(1, 0) - _C(1.0)) ** 2 * _M(1, 0)
        want = (_M(1, 0) ** 2) * (_M(1, 0) - _C(1.0)) ** 2
        assert r.allclose(want)

    def test_x4y2_p1(self):
        case = make_case("P1", dict(a=1.0, b=2.0))
        r = reduce_on_curve(_M(4, 2), case)
        want = _M(5, 0) * (_M(1, 0) - _C(1.0)) * (_M(1, 0) - _C(2.0))
        assert r.allclose(want)

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(0)
        case = make_case("P6", dict(a=1.0, d=-1.0, e=2.0))
        for _ in range(5):
            p = BivarPoly({(int(i), int(j)): float(rng.standard_normal())
                           for i in range(4) for j in range(3)})
            q = BivarPoly({(int(i), int(j)): float(rng.standard_normal())
                           for i in range(3) for j in range(4)})
            rp = reduce_on_curve(p, case)
            assert reduce_on_curve(rp, case).allclose(rp)
            lhs = reduce_on_curve(p + 2.5 * q, case)
            rhs = reduce_on_curve(p, case) + 2.5 * reduce_on_curve(q, case)
            assert lhs.allclose(rhs)

    @pytest.mark.parametrize("cid", list(CASE_PARAMS))
    def test_reduction_agrees_on_sampled_points(self, cid):
        case = make_case(cid, CASE_PARAMS[cid])
        rng = np.random.default_rng(1)
        p = BivarPoly({(int(i), int(j)): float(rng.standard_normal())
                       for i in range(4) for j in range(3) if i + j <= 6})
        pts = case.sample_points(50, seed=2)
        for reduce in (reduce_on_curve, normal_low):
            r = reduce(p, case)
            for x, y, _ in pts:
                scale = max(1.0, abs(p.eval(x, y)))
                assert abs(p.eval(x, y) - r.eval(x, y)) < 1e-8 * scale

    def test_no_head_monomial_left(self):
        for cid, params in CASE_PARAMS.items():
            case = make_case(cid, params)
            head, _ = case.rewrite_rule()
            rng = np.random.default_rng(3)
            p = BivarPoly({(int(i), int(j)): float(rng.standard_normal())
                           for i in range(4) for j in range(4)})
            r = reduce_on_curve(p, case)
            for (i, j) in r.coeffs:
                assert not (i >= head[0] and j >= head[1])


class TestEvalPullback:
    def test_neile_y_over_x(self):
        case = make_case("P3")
        e = RationalElem(_M(0, 1), _M(1, 0))
        assert eval_pullback(e, case, 2.0) == pytest.approx(2.0)

    def test_p6_x_map(self):
        case = make_case("P6", dict(a=0.0, d=0.0, e=1.0))
        assert eval_pullback(_M(1, 0), case, 1.0) == pytest.approx(1.0)

    def test_nodal_rational(self):
        case = make_case("P4")
        e = RationalElem(_M(0, 1), _M(1, 0) - _C(1.0))
        assert eval_pullback(e, case, 3.0) == pytest.approx(3.0)

    def test_excluded_parameter_raises(self):
        case = make_case("P6", dict(a=0.5, d=1.0, e=3.0))
        with pytest.raises(PoleError):
            eval_pullback(_M(1, 0), case, 1.0)

    @pytest.mark.parametrize("cid", [c for c in CASE_PARAMS
                                     if make_case(c, CASE_PARAMS[c]).has_parametrization()])
    def test_parametrization_satisfies_curve(self, cid):
        case = make_case(cid, CASE_PARAMS[cid])
        P = case.defining_poly()
        rng = np.random.default_rng(5)
        par = parametrization(case)
        for ci, comp in enumerate(par.components):
            n = 0
            while n < 100:
                t = float(rng.uniform(-4, 4))
                if any(abs(t - ex) < 1e-2 for ex in comp.excluded_t):
                    continue
                if abs(comp.x_den.eval(t)) < 1e-2 or abs(comp.y_den.eval(t)) < 1e-2:
                    continue
                x, y = comp.x_at(t), comp.y_at(t)
                deg = 3
                assert abs(P.eval(x, y)) < 1e-10 * max(1.0, (1 + abs(x) + abs(y))) ** deg \
                    * max(1.0, P.max_abs_coeff())
                n += 1


class TestProductOnCurve:
    def test_example_weier_entry(self):
        case = make_case("P1", dict(a=1.0, b=2.0))
        yx = RationalElem(_M(0, 1), _M(1, 0))
        x = RationalElem(_M(1, 0), _C(1.0))
        p = product_on_curve(yx, yx, x, case, 2)
        want = (_M(1, 0) - _C(1.0)) * (_M(1, 0) - _C(2.0))
        assert p is not None and p.allclose(want)

    def test_neile_y_over_x_squared(self):
        case = make_case("P3")
        yx = RationalElem(_M(0, 1), _M(1, 0))
        y = RationalElem(_M(0, 1), _C(1.0))
        p = product_on_curve(yx, y, RationalElem(_M(1, 0), _C(1.0)), case, 2)
        # x * (y/x) * y = y^2 = x^3 on the curve; the minimal-degree
        # representative is y^2
        assert p is not None and p.allclose(_M(0, 2))
        assert normal_low(p - _M(3, 0), case).is_zero(1e-12)

    def test_constant_denominator_scales(self):
        """x/2 * y on P4 is 0.5 * xy: a constant denominator c scales the
        reduced numerator by 1/c, term by term in the same order."""
        case = make_case("P4")
        p = product_on_curve(RationalElem(_M(1, 0), _C(2.0)), _M(0, 1), _C(1.0), case, 2)
        q = product_on_curve(_M(1, 1), _C(1.0), _C(1.0), case, 2)
        assert list(p.coeffs.items()) == [(m, 0.5 * c) for m, c in q.coeffs.items()]
        assert p.coeffs == {(1, 1): 0.5}

    def test_neile_unknown_pair(self):
        case = make_case("P3")
        yx = RationalElem(_M(0, 1), _M(1, 0))
        assert product_on_curve(_one(), yx, _one(), case, 1) is None


class TestCubicRealRoots:
    def test_factored(self):
        r = cubic_real_roots(UnivarPoly([-6.0, 11.0, -6.0, 1.0]))
        assert np.allclose(r, [1.0, 2.0, 3.0], atol=1e-9)

    def test_p10_anchor(self):
        r = cubic_real_roots(UnivarPoly([62494.0, -10014.0, 2.0, 1.0]))
        assert r[0] == pytest.approx(-104.033, abs=1e-2)
        assert r[1] == pytest.approx(6.273, abs=1e-2)
        assert r[2] == pytest.approx(95.76, abs=1e-2)

    def test_p11_anchor(self):
        r = cubic_real_roots(UnivarPoly([97.0 / 4.0, -19.0, -2.0, 1.0]))
        assert r[0] == pytest.approx(-4.091, abs=1e-2)

    def test_residual_and_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = UnivarPoly(rng.standard_normal(4))
            if q.degree() < 1:
                continue
            roots = cubic_real_roots(q)
            assert 0 <= len(roots) <= 3
            assert roots == sorted(roots)
            for r in roots:
                assert abs(q.eval(r)) < 1e-6 * max(1.0, q.norm()) * (1 + abs(r)) ** 3

    def test_zero_poly_raises(self):
        with pytest.raises(DegenerateInput):
            cubic_real_roots(UnivarPoly([]))


def test_unknown_positions_match_partial_cases():
    """The single '?' appears exactly for the constructive lifts."""
    from tmp3.bases import combined_lift

    for cid, params in CASE_PARAMS.items():
        case = make_case(cid, params)
        if case.is_constructive():
            lift = combined_lift(case, 2)
            e0 = lift.elements[lift.unknown[0]]
            e1 = lift.elements[lift.unknown[1]]
            assert product_on_curve(e0.rat, e1.rat, _one(), case, 2) is None


# ---------------------------------------------------------------------------
# Caches of the symbolic layer: every cached answer is the rewrite's own


#: (label, case id, params) of the benchmark corpus
BENCH_CASES = bench_corpus().CASES


@pytest.mark.parametrize("label,cid,params", BENCH_CASES, ids=[c[0] for c in BENCH_CASES])
def test_unit_monomial_table_matches_rewrite(label, cid, params):
    """normal_low of x^i y^j (i + j <= 15) from the table equals the uncached
    rewrite term by term, in order, and each call returns a fresh polynomial:
    changing the ``coeffs`` of one result leaves the next result unchanged."""
    from tmp3.poly import _rewrite_low

    case = make_case(cid, params)
    for d in range(16):
        for i in range(d + 1):
            mono = _M(i, d - i)
            want = list(_rewrite_low(mono, case).coeffs.items())
            got = normal_low(mono, case)
            assert list(got.coeffs.items()) == want
            got.coeffs.clear()
            got.coeffs[(99, 0)] = 1.0
            again = normal_low(_M(i, d - i), make_case(cid, dict(params)))
            assert list(again.coeffs.items()) == want


def _rational_products(case, k, product=product_on_curve):
    """product over the pairs of each compiled form with a denominator."""
    from tmp3.moment import _form

    out = []
    forms = ["Bk", "Vk"] + (["lift"] if case.is_constructive() else [])
    for which in forms:
        form = _form(case, k, which)
        for u in form.elements:
            for v in form.elements:
                if u.rat.denominator.degree() > 0 or v.rat.denominator.degree() > 0:
                    p = product(u.rat, v.rat, form.f, case, k)
                    out.append(None if p is None else list(p.coeffs.items()))
    return out


def test_division_columns_survive_cache_clear():
    """The division on arrays gives the terms of the reference division, in
    the same order, with the normal-form table, the division matrices and
    the rational entries filled, cleared, and filled again."""
    from tmp3 import poly

    for cid in ("P1", "P3", "P7", "P8"):
        case = make_case(cid, CASE_PARAMS[cid])
        clear_tables()
        cold = _rational_products(case, 3)
        assert poly._division_matrix.cache_info().currsize > 0
        warm = _rational_products(case, 3)
        clear_tables()
        assert _rational_products(case, 3) == cold == warm
        assert _rational_products(case, 3, reference_product) == cold
        assert any(p is not None for p in cold)


def test_product_skips_only_exact_ones():
    """Factors that are exactly 1 change no bit of the product; 1 + 1e-16 does."""
    from tmp3.poly import _product

    p = _M(2, 1, 0.1) + _M(0, 3, -3.7) + _C(0.3)
    q = _M(1, 1, 1.0 / 3.0) + _M(0, 1, 2.5)
    one = _C(1.0)
    full = p * one * q * one
    assert list(_product(p, one, q, one).coeffs.items()) == list(full.coeffs.items())
    assert list(_product(one, p, q).coeffs.items()) == list((one * p * q).coeffs.items())
    assert list(_product(one, one).coeffs.items()) == [((0, 0), 1.0)]
    near = _C(1.0 + 2.0 ** -52)
    assert _product(p, near).coeffs != p.coeffs


#: calls that change a dict in place
_MUTATORS = {"pop", "popitem", "update", "clear", "setdefault", "__setitem__", "__delitem__"}


def test_no_module_changes_coeffs_in_place():
    """Cached objects are shared by every caller (``BasisElement.monomial``,
    the cached bases and the cached reductions of moment), so no module in
    src/tmp3 stores into, deletes from or calls a mutator on a ``.coeffs``
    dict, and ``.coeffs`` is bound only on a polynomial the same function has
    just created."""
    import ast
    import pathlib

    import tmp3

    def is_coeffs(node):
        return isinstance(node, ast.Attribute) and node.attr == "coeffs"

    def own_nodes(scope):
        """The nodes of scope outside the functions nested in it."""
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))

    bad = []
    for path in sorted(pathlib.Path(tmp3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.Module)):
                continue
            nodes = list(own_nodes(scope))
            fresh = {"self"} if getattr(scope, "name", "") == "__init__" else set()
            for node in nodes:
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, ast.Call)
                        and getattr(node.value.func, "id", "") in ("BivarPoly", "UnivarPoly")
                        and not node.value.args):
                    fresh.add(node.targets[0].id)
            for node in nodes:
                where = f"{path.name}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                        node.ctx, (ast.Store, ast.Del)):
                    if isinstance(node, ast.Subscript) and is_coeffs(node.value):
                        bad.append(where)
                    elif is_coeffs(node) and getattr(node.value, "id", None) not in fresh:
                        bad.append(where)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS and is_coeffs(node.func.value)):
                    bad.append(where)
    assert not bad, bad

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from conftest import CASE_PARAMS, bench_corpus
from tmp3 import make_case, normalize
from tmp3.curves import (
    InvalidParams,
    NotApplicable,
    Unsupported,
    chi_flags,
    multiplier,
    parametrization,
    sample_points,
)
from tmp3.poly import BivarPoly, UnivarPoly

_M = BivarPoly.monomial
_C = BivarPoly.const


class TestMakeCase:
    def test_valid(self):
        make_case("P1", dict(a=1.0, b=2.0))

    def test_order_violation(self):
        with pytest.raises(InvalidParams):
            make_case("P1", dict(a=2.0, b=1.0))

    def test_p15_needs_large_a(self):
        with pytest.raises(InvalidParams):
            make_case("P15", dict(a=1.5))

    @pytest.mark.parametrize("cid,params", [
        ("P2", dict(c=0.0)),
        ("P6", dict(a=0.0, d=1.0, e=0.0)),
        ("P6", dict(a=2.0, d=1.0, e=2.0)),  # e^2 = a^2 d -> reducible
        ("P8", dict(c=0.0, d=0.0, e=0.0)),
        ("P10", dict(a=0.0, c=0.0, d=0.0, e=1.0)),
        ("P12", dict(c2=0.0, c1=0.0, c0=0.0)),
        ("P14", dict(a=0.0)),
        ("P24", dict(a=2.0)),
        ("P26", dict(a=1.0, b=1.0)),
    ])
    def test_invalid(self, cid, params):
        with pytest.raises(InvalidParams):
            make_case(cid, params)

    def test_missing_and_extra_params(self):
        with pytest.raises(InvalidParams):
            make_case("P1", dict(a=1.0))
        with pytest.raises(InvalidParams):
            make_case("P3", dict(a=1.0))

    @pytest.mark.parametrize("cid", [c for c, p in CASE_PARAMS.items() if p])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_params(self, cid, bad):
        for name in CASE_PARAMS[cid]:
            params = dict(CASE_PARAMS[cid], **{name: bad})
            with pytest.raises(InvalidParams, match="finite"):
                make_case(cid, params)

    def test_key_ignores_param_order(self):
        """Cases built from reordered parameter dicts compare and hash equal, so
        the second one reads the compiled forms cached for the first."""
        from tmp3.moment import _form

        a = make_case("P10", dict(a=1.0, c=0.5, d=-1.0, e=2.0))
        b = make_case("P10", dict(e=2.0, d=-1.0, c=0.5, a=1.0))
        assert list(a.params) != list(b.params)
        assert a == b and hash(a) == hash(b) and a.key() == b.key()
        assert a != make_case("P10", dict(a=1.0, c=0.5, d=-1.0, e=2.5))
        assert a != make_case("P11", dict(a=1.0, c=0.5, d=-1.0, e=2.0))
        form = _form(a, 3, "Bk")
        hits = _form.cache_info().hits
        assert _form(b, 3, "Bk") is form
        assert _form.cache_info().hits == hits + 1

    def test_pickle_round_trip_rehashes(self):
        """A case stores its hash but pickles as (id, params): unpickled in a
        process whose string hashes differ, it hashes as a case built there."""
        cases = [make_case(cid, params) for cid, params in CASE_PARAMS.items()]
        for case in cases:
            back = pickle.loads(pickle.dumps(case))
            assert back == case and hash(back) == hash(case) and back.key() == case.key()
            assert str(hash(case)).encode() not in pickle.dumps(case, protocol=0)
        script = ("import pickle, sys; from tmp3 import make_case; "
                  "cases = pickle.loads(sys.stdin.buffer.read()); "
                  "print(all(hash(c) == hash(make_case(c.id, dict(c.params))) for c in cases), "
                  "hash(cases[0]) == int(sys.argv[1]))")
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script, str(hash(cases[0]))],
                             input=pickle.dumps(cases), capture_output=True, env=env,
                             check=True).stdout
        assert out.split() == [b"True", b"False"]


class TestMultiplier:
    def test_p10_anchor(self):
        m = multiplier(make_case("P10", dict(a=100.0, c=-5.0, d=-1.0, e=3.0)))
        assert m.source_cubic.coeffs == [62494.0, -10014.0, 2.0, 1.0]
        assert m.alpha == pytest.approx(-104.033, abs=1e-2)
        f = m.f.numerator
        assert f.coeffs[(0, 2)] == 1.0 and f.coeffs[(2, 0)] == -1.0
        assert f.coeffs[(1, 0)] == 5.0
        assert f.coeffs[(0, 0)] == pytest.approx(104.033, abs=1e-2)

    def test_p11_anchor(self):
        m = multiplier(make_case("P11", dict(a=1.0, c=-7.0, d=1.0, e=3.0)))
        assert m.source_cubic.coeffs == [24.25, -19.0, -2.0, 1.0]
        assert m.alpha == pytest.approx(-4.091, abs=1e-2)

    def test_nodal_is_one(self):
        m = multiplier(make_case("P4"))
        assert m.alpha is None
        assert m.f.numerator.allclose(_C(1.0))

    def test_alpha_satisfies_cubic(self):
        for cid in ("P7", "P8", "P9", "P10", "P11"):
            m = multiplier(make_case(cid, CASE_PARAMS[cid]))
            assert abs(m.source_cubic.eval(m.alpha)) < 1e-8 * max(1.0, m.source_cubic.norm())
            roots = [m.alpha]
            assert m.selection_rule in ("smallest", "largest")

    @pytest.mark.parametrize("cid", ["P1", "P2", "P7", "P8", "P9", "P10", "P11"])
    def test_multiplier_nonnegative_on_locus(self, cid):
        case = make_case(cid, CASE_PARAMS[cid])
        m = multiplier(case)
        pts = sample_points(case, 500, seed=8)
        vals = [m.f.eval(x, y) for x, y, _ in pts]
        scale = max(1.0, max(abs(v) for v in vals))
        assert min(vals) >= -1e-8 * scale


class TestChiFlags:
    def test_p24(self):
        assert chi_flags(make_case("P24", dict(a=-1.0))) == (0, 1)

    def test_p19(self):
        assert chi_flags(make_case("P19")) == (-1, 1)

    def test_p15(self):
        assert chi_flags(make_case("P15", dict(a=-3.0))) == (1, 1)
        assert chi_flags(make_case("P15", dict(a=3.0))) == (-1, 1)

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            chi_flags(make_case("P4"))

    @pytest.mark.parametrize("cid, params",
                             [pytest.param(c, CASE_PARAMS[c], id=c) for c in ("P15", "P19", "P24")]
                             + [pytest.param("P15", dict(a=3.0), id="P15-a3")])
    def test_sign_consistency(self, cid, params):
        case = make_case(cid, params)
        c1, c2 = chi_flags(case)
        f1, f2 = case.factors()
        par = parametrization(case)
        rng = np.random.default_rng(0)
        conic = par.components[1]
        line = par.components[0]
        for _ in range(200):
            t = float(rng.uniform(-3, 3))
            if any(abs(t - ex) < 1e-2 for ex in conic.excluded_t):
                continue
            if c1 != 0:
                v = c1 * f1.eval(conic.x_at(t), conic.y_at(t))
                assert v >= -1e-8 * max(1.0, abs(v))
            v2 = c2 * f2.eval(line.x_at(t), line.y_at(t))
            assert v2 >= -1e-8 * max(1.0, abs(v2))


class TestParametrization:
    def test_neile(self):
        par = parametrization(make_case("P3"))
        assert len(par.components) == 1
        assert par.components[0].excluded_t == ()
        assert par.components[0].x_at(2.0) == 4.0
        assert par.components[0].y_at(2.0) == 8.0

    def test_p6_exclusions(self):
        par = parametrization(make_case("P6", dict(a=0.5, d=1.0, e=3.0)))
        assert sorted(par.components[0].excluded_t) == [-1.0, 1.0]

    def test_p26_components(self):
        par = parametrization(make_case("P26", dict(a=1.0, b=2.0)))
        assert len(par.components) == 3
        ys = sorted(c.y_at(0.3) for c in par.components)
        assert ys == [-2.0, -1.0, 0.0]
        assert any("b*(g_{i-1}" in m for m in par.matching_conditions)

    def test_smooth_cases_have_none(self):
        from tmp3.poly import UnsupportedCase

        with pytest.raises(UnsupportedCase):
            parametrization(make_case("P1", dict(a=1.0, b=2.0)))


class TestSamplePoints:
    def test_on_curve_p4(self):
        case = make_case("P4")
        P = case.defining_poly()
        for x, y, _ in sample_points(case, 3, seed=0):
            assert abs(P.eval(x, y)) < 1e-9 * max(1.0, (1 + abs(x) + abs(y)) ** 3)

    def test_p1_real_locus(self):
        case = make_case("P1", dict(a=1.0, b=2.0))
        for x, y, _ in sample_points(case, 25, seed=1):
            assert (-1e-9 <= x <= 1.0 + 1e-9) or x >= 2.0 - 1e-9

    def test_p26_components(self):
        pts = sample_points(make_case("P26", dict(a=1.0, b=2.0)), 6, seed=2)
        comps = sorted({c for _, _, c in pts})
        assert comps == [0, 1, 2]


#: (label, case id, parameters) of every benchmark label
CORPUS_CASES = bench_corpus().CASES

#: inputs of normalize with the canonical case each maps to
FAMILIES = [
    (_M(0, 2) - _M(3, 0, 4.0) + _M(2, 0, 4.0), "P5"),   # y^2 = 4x^2(x-1)
    (_M(0, 2) - _M(3, 0, 4.0) + _M(2, 0, 16.0) - _M(1, 0, 16.0), "P4"),
    (_M(1, 1) - _M(3, 0, 2.0) - _C(3.0), "P12"),
    (_M(0, 1) - _M(3, 0, 8.0) - _M(2, 0, 2.0), "P13"),
    (_M(0, 1) * (_C(1.0) + _M(0, 1, 2.0) + _M(2, 0, 3.0)), "P19"),
    (_M(0, 1) * (_M(0, 1, 2.0) + _M(2, 0, 0.5) + _M(0, 2, 0.5)), "P14"),
]


class TestNormalize:
    def test_already_canonical_weierstrass(self):
        p = _M(0, 2) - _M(1, 0) * (_M(1, 0) - _C(1.0)) * (_M(1, 0) - _C(3.0))
        case, amap = normalize(p)
        assert case.id == "P1"
        assert case.params["a"] == pytest.approx(1.0)
        assert case.params["b"] == pytest.approx(3.0)

    def test_out_of_scope(self):
        with pytest.raises(Unsupported):
            normalize(_M(3, 0) + _M(0, 3) - _C(1.0))

    def test_newton_family_scaling(self):
        # x y^2 + y - 4 x^3 - 2: the b>0, a != 0 family, e != 0 so valid
        p = _M(1, 2) + _M(0, 1) - _M(3, 0, 4.0) - _C(2.0)
        case, amap = normalize(p)
        assert case.id == "P10"
        _check_pushforward(p, case, amap)

    @pytest.mark.parametrize("poly,expect", FAMILIES)
    def test_families(self, poly, expect):
        case, amap = normalize(poly)
        assert case.id == expect
        _check_pushforward(poly, case, amap)

    @pytest.mark.parametrize("cid,params", [c[1:] for c in CORPUS_CASES],
                             ids=[c[0] for c in CORPUS_CASES])
    def test_canonical_round_trip(self, cid, params):
        """Every benchmark label's own defining polynomial maps onto its case,
        with its parameters."""
        case, amap = normalize(make_case(cid, params).defining_poly())
        assert (case.id, dict(case.params)) == (cid, pytest.approx(params))

    def test_scaled_p22(self):
        """y(2x + 3y + 12xy) is P22 with a = 12/(2*3) under (x, y) -> (2x, 3y)."""
        p = _M(0, 1) * (_M(1, 0, 2.0) + _M(0, 1, 3.0) + _M(1, 1, 12.0))
        case, amap = normalize(p)
        assert (case.id, case.params["a"], amap.a, amap.e) == ("P22", 2.0, 2.0, 3.0)
        _check_pushforward(p, case, amap)

    @pytest.mark.parametrize("p", [_M(0, 1) - _M(2, 1), _M(2, 1) - _M(0, 1)])
    def test_three_lines_onto_p28(self, p):
        """y(1 - x^2) and its negative: the lines y = 0, x = 1, x = -1 go to
        x = 0, y = 0, y = -1 under (x, y) -> (y, x/2 - 1/2)."""
        from tmp3.curves import _verify_map

        case, amap = normalize(p)
        assert case.id == "P28"
        assert [amap.apply(x, y) for x, y in [(0.0, 0.0), (1.0, 2.0), (-1.0, 0.0)]] == [
            (0.0, -0.5), (2.0, 0.0), (0.0, -1.0)]
        _verify_map(case, amap, p)
        _check_pushforward(p, case, amap)

    def test_reducible_map_verified_once(self, monkeypatch):
        """normalize verifies a P26, catalog (P27) or mixed (P14, P19) map
        once, and every input of this class ends as it did when the reducible
        branches also verified their own map: same case, map and exception."""
        from tmp3 import curves

        real_verify, real_reducible = curves._verify_map, curves._normalize_reducible
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].id)
            return real_verify(*args, **kwargs)

        def verifying_reducible(p):  # the branches' own check, before each return
            case, amap = real_reducible(p)
            real_verify(case, amap, p)
            return case, amap

        def outcome(p):
            try:
                case, amap = normalize(p)
            except Exception as exc:  # compared below, not swallowed
                return type(exc), str(exc)
            return case.id, dict(case.params), amap

        monkeypatch.setattr(curves, "_verify_map", counting)
        mixed = [(p, cid) for p, cid in FAMILIES if cid in ("P14", "P19")]
        for p, cid in [(_M(0, 1) * (_M(0, 1) + _C(1.0)) * (_M(0, 1) + _C(2.0)), "P26"),
                       (_M(2, 1, 2.0) - _M(0, 3, 2.0), "P27"), *mixed]:
            calls.clear()
            assert normalize(p)[0].id == cid and calls == [cid]

        inputs = [p for p, _ in FAMILIES] + [
            _M(0, 2) - _M(1, 0) * (_M(1, 0) - _C(1.0)) * (_M(1, 0) - _C(3.0)),
            _M(3, 0) + _M(0, 3) - _C(1.0),
            _M(1, 2) + _M(0, 1) - _M(3, 0, 4.0) - _C(2.0),
            _M(0, 1) * (_M(0, 1) + _C(1.0)) * (_M(0, 1) + _C(2.0)),
            _M(2, 1) - _M(0, 3),
            _M(0, 1) * (_M(0, 2) + _C(1.0)),  # complex parallel lines
            _M(0, 1) * (_M(0, 1) + _M(1, 0)) * _M(1, 0) + _M(1, 1, 0.3),  # no shape
        ]
        got = [outcome(p) for p in inputs]
        monkeypatch.setattr(curves, "_normalize_reducible", verifying_reducible)
        assert [outcome(p) for p in inputs] == got
        assert sum(isinstance(o[0], type) for o in got) == 3


def _check_pushforward(p, case, amap, n=100):
    P = case.defining_poly()
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(4000):
        x = float(rng.uniform(-3, 3))
        ymax = max(j for _, j in p.coeffs)
        co = [0.0] * (ymax + 1)
        for (i, j), v in p.coeffs.items():
            co[j] += v * x**i
        q = UnivarPoly(co)
        if q.is_zero() or q.degree() < 1:
            continue
        from tmp3.poly import cubic_real_roots

        for y in cubic_real_roots(q):
            u, v = amap.apply(x, y)
            assert abs(P.eval(u, v)) < 1e-8 * max(1.0, (1 + abs(u) + abs(v)) ** 3) \
                * max(1.0, P.max_abs_coeff())
            checked += 1
        if checked >= n:
            return
    assert checked > 0

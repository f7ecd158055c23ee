"""Benchmark inputs for tmp3: the case table, curve points and seeded instances.

Everything here that judges the program is computed apart from it: the
defining polynomials, the curve points (real roots over x- and y-grids),
the moments of every measure, the refutation polynomial g of each refuted
instance, and the pointwise confirmation of every certificate identity.
The program is used only to place the atoms of genuine instances
(``generate_measure``), to read the documented bases, multipliers, factors
and factor signs that a certificate is written over, and to reduce the
localizing squares of a v1 certificate to polynomials (``product_on_curve``).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

#: (label, case id, parameters); the test suite's representative parameters,
#: with P6 in all three sign variants (d < 0, d = 0, d > 0)
CASES = [
    ("P1", "P1", dict(a=1.0, b=2.0)),
    ("P2", "P2", dict(c=1.0)),
    ("P3", "P3", {}),
    ("P4", "P4", {}),
    ("P5", "P5", {}),
    ("P6", "P6", dict(a=1.0, d=-1.0, e=2.0)),
    ("P6d0", "P6", dict(a=1.0, d=0.0, e=2.0)),
    ("P6d+", "P6", dict(a=0.5, d=1.0, e=3.0)),
    ("P7", "P7", dict(a=1.0, d=-1.0, e=2.0)),
    ("P8", "P8", dict(c=0.5, d=-1.0, e=2.0)),
    ("P9", "P9", dict(c=0.5, d=-1.0, e=2.0)),
    ("P10", "P10", dict(a=1.0, c=0.5, d=-1.0, e=2.0)),
    ("P11", "P11", dict(a=1.0, c=0.5, d=-1.0, e=2.0)),
    ("P12", "P12", dict(c2=0.5, c1=-1.0, c0=2.0)),
    ("P13", "P13", {}),
    ("P14", "P14", dict(a=-2.0)),
    ("P15", "P15", dict(a=-3.0)),
    ("P16", "P16", dict(a=1.0)),
    ("P17", "P17", {}),
    ("P18", "P18", {}),
    ("P19", "P19", {}),
    ("P20", "P20", {}),
    ("P21", "P21", {}),
    ("P22", "P22", dict(a=1.0)),
    ("P23", "P23", dict(a=1.0)),
    ("P24", "P24", dict(a=-1.0)),
    ("P25", "P25", dict(a=1.0)),
    ("P26", "P26", dict(a=1.0, b=2.0)),
    ("P27", "P27", {}),
    ("P28", "P28", {}),
    ("P29", "P29", {}),
]

KS = (2, 3, 4, 5, 6)
#: certificates stop at k = 4: at k = 5, 6 verify_certificate costs about
#: twice as much per call, and the sampled-residual fault rejects most valid
#: P6-P11 certificates there anyway
CERT_KS = (2, 3, 4)
CONSTRUCTIVE = ("P3", "P4", "P5", "P6", "P12", "P13")
V2_CASES = ("P15", "P19", "P24")

#: Instances that can show one of the three known faults take their inputs
#: from FIXED_SEED, whatever --seed is. Whether they fail depends on the draw,
#: so with seeded inputs the share of failed operations would change from
#: seed to seed; with fixed inputs every run fails on exactly the same
#: operations.
#:  - genuine P1/P2 data refuted: the pairs where it showed in 40 seeds
#:  - ExtractionFailed after a passing verdict: the pairs where it showed
#:  - valid certificates rejected by the sampled residual: every certificate,
#:    because the residual has a heavy tail over random Gram matrices (P5 at
#:    k = 4 stayed below 2e-10 in 16 seeds and reached 1.5e-7 on seed 408)
FIXED_SEED = 20250819
FIXED = {
    "genuine": {("P1", k) for k in (3, 4, 5, 6)}
    | {("P2", k) for k in KS}
    | {(lbl, k) for lbl in ("P4", "P5") for k in (5, 6)}
    | {(lbl, k) for lbl in ("P6", "P6d0", "P6d+") for k in (4, 5, 6)},
    "cert": {(lbl, k) for lbl, _, _ in CASES for k in CERT_KS},
}
KIND_CODE = {"genuine": 1, "refuted": 2, "cert": 3}

# ---------------------------------------------------------------------------
# Polynomials as {(i, j): coefficient}


def pmul(p, q):
    out = {}
    for (i1, j1), a in p.items():
        for (i2, j2), b in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + a * b
    return out


def padd(p, q, c=1.0):
    out = dict(p)
    for key, v in q.items():
        out[key] = out.get(key, 0.0) + c * v
    return out


def peval(p, X, Y):
    """(values, sum of |terms|) of p at the points (X, Y)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    val = np.zeros(X.shape)
    mag = np.zeros(X.shape)
    for (i, j), c in p.items():
        t = c * X**i * Y**j
        val += t
        mag += np.abs(t)
    return val, mag


def poly_to_list(p):
    return [[i, j, v] for (i, j), v in sorted(p.items()) if v != 0.0]


def poly_from_list(rows):
    return {(int(i), int(j)): float(v) for i, j, v in rows}


def _m(i, j, c=1.0):
    return {(i, j): float(c)}


def _sum(*ps):
    out = {}
    for p in ps:
        out = padd(out, p)
    return out


def curve_factors(cid, p):
    """Factors of the defining cubic of each canonical case."""
    x, y, one = _m(1, 0), _m(0, 1), _m(0, 0)
    g = p.get
    if cid in ("P1", "P2", "P3", "P4", "P5"):
        s, q = {
            "P1": (g("a", 0) + g("b", 0), g("a", 0) * g("b", 0)),
            "P2": (0.0, g("c", 0) ** 2),
            "P3": (0.0, 0.0),
            "P4": (2.0, 1.0),
            "P5": (1.0, 0.0),
        }[cid]
        # y^2 = x^3 - s x^2 + q x
        return [_sum(_m(0, 2), _m(3, 0, -1), _m(2, 0, s), _m(1, 0, -q))]
    if cid in ("P6", "P7", "P8", "P9", "P10", "P11"):
        # x y^2 + a y = G(x)
        a = g("a", 0.0)
        G = {
            "P6": _sum(_m(1, 0, g("d", 0)), _m(0, 0, g("e", 0))),
            "P7": _sum(_m(2, 0), _m(1, 0, g("d", 0)), _m(0, 0, g("e", 0))),
        }.get(cid)
        if G is None:
            cube = 1.0 if cid in ("P8", "P10") else -1.0
            G = _sum(_m(3, 0, cube), _m(2, 0, g("c")), _m(1, 0, g("d")), _m(0, 0, g("e")))
        return [padd(_sum(_m(1, 2), _m(0, 1, a)), G, -1.0)]
    if cid == "P12":
        return [_sum(_m(1, 1), _m(3, 0, -1), _m(2, 0, -g("c2")), _m(1, 0, -g("c1")),
                     _m(0, 0, -g("c0")))]
    if cid == "P13":
        return [_sum(y, _m(3, 0, -1))]
    a = g("a", 0.0)
    second = {
        "P14": lambda: [_sum(_m(0, 1, a), _m(2, 0), _m(0, 2))],
        "P15": lambda: [_sum(one, _m(0, 1, a), _m(2, 0), _m(0, 2))],
        "P16": lambda: [_sum(one, _m(0, 1, a), _m(2, 0, -1), _m(0, 2, -1))],
        "P17": lambda: [_sum(_m(2, 0), _m(0, 1, -1))],
        "P18": lambda: [_sum(x, _m(0, 2, -1))],
        "P19": lambda: [_sum(one, y, _m(2, 0))],
        "P20": lambda: [_sum(one, y, _m(2, 0, -1))],
        "P21": lambda: [_sum(one, _m(1, 1, -1))],
        "P22": lambda: [_sum(x, y, _m(1, 1, a))],
        "P23": lambda: [_sum(_m(0, 1, a), _m(2, 0), _m(0, 2, -1))],
        "P24": lambda: [_sum(one, _m(0, 1, a), _m(2, 0), _m(0, 2, -1))],
        "P25": lambda: [_sum(one, _m(0, 1, a), _m(2, 0, -1), _m(0, 2))],
        "P26": lambda: [_sum(_m(0, 0, a), y), _sum(_m(0, 0, g("b")), y)],
        "P27": lambda: [_sum(x, _m(0, 1, -1)), _sum(x, y)],
        "P28": lambda: [x, _sum(y, one)],
        "P29": lambda: [_sum(one, x, _m(0, 1, -1)), _sum(one, _m(1, 0, -1), _m(0, 1, -1))],
    }[cid]()
    return [y] + second


def curve_poly(cid, p):
    out = _m(0, 0)
    for f in curve_factors(cid, p):
        out = pmul(out, f)
    return {key: v for key, v in out.items() if v != 0.0}


def on_curve(P, X, Y, tol=1e-8):
    val, mag = peval(P, X, Y)
    return np.abs(val) <= tol * np.maximum(mag, 1e-300)


_POINTS = {}


def curve_points(cid, p):
    """Real points of the curve, cached per case: the roots in y over an x-grid
    and in x over a y-grid, 201 grid values in [-5, 5] each."""
    key = (cid, tuple(sorted(p.items())))
    if key not in _POINTS:
        _POINTS[key] = _grid_roots(curve_poly(cid, p), np.linspace(-5.0, 5.0, 201))
    return _POINTS[key]


def _grid_roots(P, grid):
    xs, ys = [], []
    for axis in (0, 1):
        deg = max(key[1 - axis] for key in P)
        for u in grid:
            # coefficients of P as a polynomial in the other variable at this u
            c = np.zeros(deg + 1)
            for key, v in P.items():
                c[key[1 - axis]] += v * u ** key[axis]
            nz = np.nonzero(c)[0]
            if len(nz) == 0 or nz[-1] == 0:
                continue
            roots = np.roots(c[: nz[-1] + 1][::-1])
            for r in roots:
                if abs(r.imag) <= 1e-9 * (1.0 + abs(r)):
                    pt = (u, r.real) if axis == 0 else (r.real, u)
                    xs.append(pt[0])
                    ys.append(pt[1])
    X, Y = np.asarray(xs), np.asarray(ys)
    keep = on_curve(P, X, Y, 1e-10)
    return X[keep], Y[keep]


def moments_of(atoms, k):
    """{(i, j): sum of w x^i y^j} up to degree 2k, computed by the benchmark."""
    beta = {}
    for d in range(2 * k + 1):
        for i in range(d + 1):
            j = d - i
            beta[(i, j)] = math.fsum(w * x**i * y**j for x, y, w in atoms)
    return beta


def functional(beta, poly):
    return math.fsum(c * beta[key] for key, c in poly.items())


# ---------------------------------------------------------------------------
# Instances


def instance_seed(seed, label, k, kind):
    fixed = (label, k) in FIXED.get(kind, ())
    base = FIXED_SEED if fixed else seed
    return [int(base), [lbl for lbl, _, _ in CASES].index(label), k, KIND_CODE[kind]], fixed


def corpus_keys(ks=KS):
    """(label, case id, params, k) for every case and every k in ks, k >= k_min."""
    from tmp3 import make_case

    out = []
    for label, cid, params in CASES:
        k_min = make_case(cid, params).k_min
        out += [(label, cid, params, k) for k in ks if k >= k_min]
    return out


def _check_atoms(P, atoms, what):
    X = np.array([a[0] for a in atoms])
    Y = np.array([a[1] for a in atoms])
    if not np.all(on_curve(P, X, Y)):
        raise RuntimeError(f"{what}: sampled atom off the curve")
    if not all(a[2] > 0 for a in atoms):
        raise RuntimeError(f"{what}: sampled atom without positive weight")


def make_genuine(seed, label, cid, params, k):
    from tmp3 import generate_measure, make_case

    rs, fixed = instance_seed(seed, label, k, "genuine")
    mu = generate_measure(make_case(cid, params), 3 * k + 1, k, seed=rs)
    atoms = [(a.x, a.y, a.w) for a in mu.atoms]
    _check_atoms(curve_poly(cid, params), atoms, f"{label} k={k}")
    beta = moments_of(atoms, k)
    return {"id": f"{label}/k{k}/genuine", "label": label, "case": cid, "params": params,
            "k": k, "kind": "genuine", "fixed": fixed,
            "moments": [[i, j, v] for (i, j), v in sorted(beta.items())]}


def make_refuted(seed, label, cid, params, k):
    """2k atoms minus a unit mass at a curve point q, with the proof polynomial g.

    The atoms and q are drawn from the benchmark's own curve points in the box
    |x|, |y| <= 3. g has degree <= k, vanishes at the 2k atoms and not at q,
    so L(g^2) = -g(q)^2 < 0 and no representing measure exists.
    """
    rs, fixed = instance_seed(seed, label, k, "refuted")
    rng = np.random.default_rng(rs)
    X, Y = curve_points(cid, params)
    box = np.flatnonzero((np.abs(X) <= 3.0) & (np.abs(Y) <= 3.0))
    # monomials scaled to the box, so that no degree dominates the fit
    mons = [(i, d - i) for d in range(k + 1) for i in range(d + 1)]

    def row(x, y):
        return np.array([(x / 3.0) ** i * (y / 3.0) ** j for i, j in mons])

    best = (0.0,)
    for _ in range(50):  # redraw when the points admit no separating g
        pts = []
        for n in rng.permutation(box):
            if all(abs(X[n] - x) + abs(Y[n] - y) > 0.05 for x, y in pts):
                pts.append((float(X[n]), float(Y[n])))
            if len(pts) == 2 * k + 1:
                break
        for qi in range(len(pts)):
            q, rest = pts[qi], pts[:qi] + pts[qi + 1:]
            _, s, Vt = np.linalg.svd(np.array([row(x, y) for x, y in rest]))
            N = Vt[int(np.sum(s > 1e-10 * s[0])):].T
            eq = row(*q)
            coef = N @ (N.T @ eq)
            gq = float(coef @ eq)
            if gq > best[0]:
                best = (gq, q, rest, coef)
        if best[0] > 1e-4:
            break
    if not best[0] > 1e-4:
        raise RuntimeError(f"{label} k={k}: no g separates q from the atoms")
    gq, q, rest, coef = best
    atoms = [(x, y, float(rng.uniform(0.3, 1.3))) for x, y in rest]
    coef = [c / 3.0 ** (i + j) for c, (i, j) in zip(coef, mons)]
    g = {m: float(c) / gq for m, c in zip(mons, coef)}  # g(q) = 1
    beta = moments_of(atoms + [(q[0], q[1], -1.0)], k)
    lg2 = functional(beta, pmul(g, g))
    if not lg2 < -0.5:
        raise RuntimeError(f"{label} k={k}: L(g^2) = {lg2} does not refute")
    return {"id": f"{label}/k{k}/refuted", "label": label, "case": cid, "params": params,
            "k": k, "kind": "refuted", "fixed": fixed,
            "moments": [[i, j, v] for (i, j), v in sorted(beta.items())],
            "g": poly_to_list(g), "L_g2": lg2}


def _gaussian(rng, n):
    """A with A A^T a random psd Gram matrix of size n."""
    return rng.standard_normal((n, n)) / math.sqrt(n)


def _element_poly(e):
    den = e.rat.denominator.coeffs
    if set(den) != {(0, 0)}:
        raise RuntimeError(f"basis element {e.label} is not a polynomial")
    return {key: v / den[(0, 0)] for key, v in e.rat.numerator.coeffs.items()}


def _square_sum(A, polys):
    """sum over columns l of (sum_r A[r, l] polys[r])^2."""
    out = {}
    for col in A.T:
        u = {}
        for c, q in zip(col, polys):
            u = padd(u, q, float(c))
        out = padd(out, pmul(u, u))
    return out


def _gram_value(A, vals):
    """sum over columns l of (sum_r A[r, l] vals[r])^2 at each point."""
    return np.sum((A.T @ vals) ** 2, axis=0)


def _element_values(els, X, Y):
    """Values of the basis elements at the points (rows), and a pole mask."""
    out = []
    ok = np.ones(X.shape, dtype=bool)
    for e in els:
        num, _ = peval(e.rat.numerator.coeffs, X, Y)
        den, dmag = peval(e.rat.denominator.coeffs, X, Y)
        ok &= np.abs(den) > 1e-3 * np.maximum(dmag, 1.0)
        out.append(num / np.where(den == 0.0, 1.0, den))
    return np.array(out), ok


def make_certificate(seed, label, cid, params, k):
    """A certificate p = v^T G0 v + (localizing part) from random psd Gram matrices.

    v1 uses basis_Bk and basis_Vk with the case multiplier; v2 uses basis_Bk
    and basis_Rk1 with the factor signs. The identity is confirmed at the
    benchmark's own curve points before the certificate is used.
    """
    from tmp3 import RationalElem, make_case
    from tmp3.bases import basis_Bk, basis_Rk1, basis_Vk
    from tmp3.curves import chi_flags, multiplier
    from tmp3.poly import BivarPoly, product_on_curve

    rs, fixed = instance_seed(seed, label, k, "cert")
    rng = np.random.default_rng(rs)
    case = make_case(cid, params)
    b0 = basis_Bk(case, k).elements
    A0 = _gaussian(rng, len(b0))
    p = _square_sum(A0, [_element_poly(e) for e in b0])
    X, Y = curve_points(cid, params)
    vals0, ok = _element_values(b0, X, Y)
    sos = _gram_value(A0, vals0)
    mag = sos.copy()
    rec = {"id": f"{label}/k{k}/cert", "label": label, "case": cid, "params": params,
           "k": k, "kind": "cert", "fixed": fixed,
           "labels0": [e.label for e in b0], "gram0": (A0 @ A0.T).tolist()}
    if cid in V2_CASES:
        rec["form"] = "v2"
        br = basis_Rk1(case, k).elements
        rec["labels1"] = [e.label for e in br]
        hs = [_element_poly(e) for e in br]
        valsr, _ = _element_values(br, X, Y)
        for name, chi, fac in zip(("gram1", "gram2"), chi_flags(case), case.factors()):
            if chi == 0:
                rec[name] = None
                continue
            A = _gaussian(rng, len(br))
            f = {key: chi * v for key, v in fac.coeffs.items()}
            p = padd(p, pmul(f, _square_sum(A, hs)))
            fv, _ = peval(f, X, Y)
            term = fv * _gram_value(A, valsr)
            sos, mag = sos + term, mag + np.abs(term)
            rec[name] = (A @ A.T).tolist()
    else:
        rec["form"] = "v1"
        bv = basis_Vk(case, k).elements
        rec["labels1"] = [e.label for e in bv]
        A1 = _gaussian(rng, len(bv))
        f = multiplier(case).f
        dens = {tuple(sorted(e.rat.denominator.coeffs.items())) for e in bv}
        den = BivarPoly.const(1.0)
        for d in dens:
            den = den * BivarPoly(dict(d))
        pads = {}
        for d in dens:
            pads[d] = BivarPoly.const(1.0)
            for other in dens - {d}:
                pads[d] = pads[d] * BivarPoly(dict(other))
        part = {}
        for col in A1.T:
            num = BivarPoly.zero()
            for c, e in zip(col, bv):
                pad = pads[tuple(sorted(e.rat.denominator.coeffs.items()))]
                num = num + float(c) * (e.rat.numerator * pad)
            u = RationalElem(num, den)
            sq = product_on_curve(u, u, f, case, k)
            if sq is None:
                raise RuntimeError(f"{label} k={k}: localizing square has no representative")
            part = padd(part, sq.coeffs)
        p = padd(p, part)
        valsv, okv = _element_values(bv, X, Y)
        ok &= okv
        fnum, _ = peval(f.numerator.coeffs, X, Y)
        fden, _ = peval(f.denominator.coeffs, X, Y)
        term = fnum / fden * _gram_value(A1, valsv)
        sos, mag = sos + term, mag + np.abs(term)
        rec["gram1"] = (A1 @ A1.T).tolist()
        rec["gram2"] = None
    p = {key: v for key, v in p.items() if v != 0.0}
    pv, pm = peval(p, X, Y)
    err = np.abs(pv - sos)[ok]
    if not np.all(err <= 1e-8 * (pm + mag)[ok]):
        raise RuntimeError(f"{label} k={k}: certificate identity fails at curve points")
    rec["p"] = poly_to_list(p)
    return rec


MAKERS = {"genuine": make_genuine, "refuted": make_refuted, "cert": make_certificate}


def input_path(inputs, kind):
    """File of one input kind. Certificates and curve points do not depend on
    the seed, so they live beside the per-seed directories, shared by all."""
    shared = kind in ("cert", "points")
    return os.path.join(os.path.dirname(inputs) if shared else inputs, f"{kind}.json")


def prepare(seed, kinds, inputs):
    """Write the instances of each kind to input_path(inputs, kind), unless present."""
    os.makedirs(inputs, exist_ok=True)
    for kind in kinds:
        path = input_path(inputs, kind)
        if not os.path.exists(path):
            keys = corpus_keys(CERT_KS if kind == "cert" else KS)
            recs = [MAKERS[kind](seed, *key) for key in keys]
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(recs, fh)
            os.replace(tmp, path)

"""Atomic measures: recovery from moments, generation, verification.

Extraction runs through the univariate lift: complete the single unknown
entry inside its positivity interval, pass to the congruent classical
Hankel, read atoms off the generating polynomial and weights off a
Vandermonde solve, then push the parameters back onto the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, moment
from .bases import basis_Vk, combined_lift
from .curves import CurveCase, parametrization, sample_arrays, sample_points
from .moment import Decision, MomentSequence, decide
from .poly import BivarPoly, UnsupportedCase


class NoMeasure(ValueError):
    """The Hankel data does not admit a representing measure."""


class ExtractionFailed(RuntimeError):
    pass


class NoWitness(ValueError):
    """Witness requested for data that passed the decision."""


@dataclass(frozen=True)
class Atom:
    x: float
    y: float
    w: float
    component: int = 0


@dataclass(frozen=True)
class AtomicMeasure:
    atoms: tuple

    def __len__(self):
        return len(self.atoms)

    def moments(self, k) -> dict:
        beta = {}
        for d in range(2 * k + 1):
            for i in range(d + 1):
                j = d - i
                beta[(i, j)] = sum(a.w * a.x**i * a.y**j for a in self.atoms)
        return beta


# ---------------------------------------------------------------------------
# Univariate Hankel solver


def solve_hankel_R(h, tol=None):
    """Atomic measure on the line matching the given power moments.

    Positive-definite data gets a quadrature-style flat extension through
    its Jacobi matrix; singular psd data must already be flat, with the
    generating polynomial's roots as nodes.  Returns (node, weight) pairs
    with strictly positive weights.
    """
    tols = tol or linalg.DEFAULT_TOL
    m = np.asarray(h, dtype=float)
    if len(m) % 2 == 0:
        raise ValueError("need moments m_0..m_2n")
    # rescale t -> t/s to balance the moment magnitudes
    s = 1.0
    if abs(m[0]) > 0 and abs(m[-1]) > 0:
        s = (abs(m[-1]) / abs(m[0])) ** (1.0 / (len(m) - 1))
        s = min(max(s, 1e-3), 1e3)
    m = m / np.power(s, np.arange(len(m)))
    H = moment._hankel(m)
    n1 = H.shape[0]
    scale = max(1.0, float(np.max(np.abs(H))))
    if linalg.psd_margin(H) < -1e-8:
        raise NoMeasure("Hankel matrix is not psd")
    r = linalg.numeric_rank(H, tols.rank)
    if r == 0:
        return []

    def mismatch(pairs):
        acc = np.zeros(len(m))
        for t, wt in pairs:
            acc += wt * np.power(t, np.arange(len(m)))
        return float(np.max(np.abs(acc - m))) / scale

    if r == n1:
        nodes, w = _pd_hankel_rule(H, m)
        # refit the weights on the Jacobi nodes; keep whichever set matches better
        w_ls = _vandermonde_weights(nodes, m)
        if mismatch(list(zip(nodes, w_ls))) < mismatch(list(zip(nodes, w))):
            w = w_ls
    else:
        lead = H[:r, :r]
        if linalg.numeric_rank(lead, tols.rank) != r:
            raise NoMeasure("psd Hankel without a flat leading block")
        sol, *_ = np.linalg.lstsq(H[:, :r], H[:, r], rcond=None)
        if np.linalg.norm(H[:, :r] @ sol - H[:, r]) > 1e-6 * scale:
            raise NoMeasure("rank-deficient Hankel with inconsistent kernel")
        gen = np.concatenate([-sol, [1.0]])
        roots = np.roots(gen[::-1])
        nodes = []
        for z in roots:
            if abs(z.imag) > 1e-6 * (1.0 + abs(z)):
                raise NoMeasure("generating polynomial has non-real roots")
            nodes.append(float(z.real))
        nodes.sort()
        w = _vandermonde_weights(nodes, m)

    pairs = []
    for t, wt in zip(nodes, w):
        if wt < -1e-9 * scale:
            raise NoMeasure(f"negative weight {wt:.3g} at node {t:.6g}")
        pairs.append((float(t), float(max(wt, 0.0))))
    resid = mismatch(pairs)
    if resid > 1e-5:
        raise NoMeasure(f"moment mismatch {resid:.3g} after node recovery")
    # drop numerically-zero weights only when that keeps the moments intact
    clipped = [(t, wt) for t, wt in pairs if wt > 1e-12 * scale]
    if len(clipped) < len(pairs) and mismatch(clipped) <= max(resid, 1e-8):
        pairs = clipped
    return [(t * s, wt) for t, wt in pairs if wt > 0.0]


def _vandermonde_weights(nodes, m):
    """Least-squares weights on the nodes matching the moments m."""
    V = np.vander(np.asarray(nodes), N=len(m), increasing=True).T
    return np.linalg.lstsq(V, m, rcond=None)[0]


def _pd_hankel_rule(H, m):
    """(n+1)-point rule matching the moments of a pd Hankel.

    The Cholesky factor yields the three-term recurrence; the one free
    diagonal entry of the Jacobi matrix (fixed only by the unavailable
    moment m_(2n+1)) repeats the previous one, which keeps every node
    near the spectrum instead of letting the flat extension shoot one
    node off to infinity.  Weights come from the first eigenvector
    components (Golub-Welsch), which stays stable when a node with
    near-zero mass drifts outward.
    """
    n1 = H.shape[0]
    try:
        Lc = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise NoMeasure("pd path hit a non-Cholesky-factorable matrix")
    R = Lc.T  # H = R^T R, R upper triangular
    alpha = np.zeros(n1)
    beta = np.zeros(n1)  # beta[j] couples p_(j-1), p_j
    for j in range(n1 - 1):
        alpha[j] = R[j, j + 1] / R[j, j] - (R[j - 1, j] / R[j - 1, j - 1] if j > 0 else 0.0)
        beta[j + 1] = R[j + 1, j + 1] / R[j, j]
    alpha[n1 - 1] = alpha[n1 - 2] if n1 >= 2 else m[1] / m[0]
    J = np.diag(alpha) + np.diag(beta[1:], 1) + np.diag(beta[1:], -1)
    vals, vecs = np.linalg.eigh(J)
    order = np.argsort(vals)
    nodes = [float(vals[i]) for i in order]
    weights = [float(m[0] * vecs[0, i] ** 2) for i in order]
    return nodes, weights


# ---------------------------------------------------------------------------
# Extraction through the lift


@dataclass(frozen=True)
class ExtractOptions:
    completion: str = "midpoint"  # midpoint | left | right | value
    completion_value: float | None = None


def _completion_candidates(ivl_pd, ivl_psd, opts: ExtractOptions):
    if opts.completion == "value":
        if opts.completion_value is None:
            raise ValueError("completion mode 'value' needs completion_value")
        return [float(opts.completion_value)]
    base = ivl_pd if (not ivl_pd.empty and ivl_pd.width > 0) else ivl_psd
    if base.empty:
        return []
    lo, hi, w = base.lo, base.hi, base.width
    if w == 0.0:
        return [lo]
    named = {
        "midpoint": 0.5 * (lo + hi),
        "left": lo + 0.25 * w,
        "right": hi - 0.25 * w,
    }
    first = named.get(opts.completion)
    if first is None:
        raise ValueError(f"unknown completion mode {opts.completion!r}")
    cands = [first]
    if ivl_psd.width > 0:
        # flat completions: numerically the most benign recovery points
        cands += [ivl_psd.lo, ivl_psd.hi]
    for f in (0.5, 0.25, 0.75, 0.125, 0.875):
        v = lo + f * w
        if all(abs(v - c) > 1e-15 * max(1, abs(v)) for c in cands):
            cands.append(v)
    return cands


def extract(L: MomentSequence, opts: ExtractOptions | None = None,
            decision: Decision | None = None) -> AtomicMeasure:
    """Recover an atomic representing measure for a constructive case."""
    case = L.case
    if not case.is_constructive():
        raise UnsupportedCase(f"extraction is not available for {case.id}")
    dec = decision or decide(L)
    if not dec.passed():
        raise ExtractionFailed(f"decision was {dec.verdict}; nothing to extract")
    if dec.lift is None:
        raise ExtractionFailed("the decision carries no lifted matrix")
    return _extract_from_lift(L, dec.lift, dec.o_weight, opts)


def _extract_from_lift(L: MomentSequence, work, o_weight=0.0,
                       opts: ExtractOptions | None = None) -> AtomicMeasure:
    """A measure for L from ``work``, the lift of L - o_weight * delta_0.

    Each completion candidate of the lift's pd/psd intervals is tried in
    turn: its Hankel is solved on the line, the atoms are pushed onto the
    curve (with the point mass o_weight at the origin) and the first
    measure that reproduces L's moments is returned.
    """
    opts = opts or ExtractOptions()
    case, k = L.case, L.k
    comp = work.completion
    if comp.psd.empty:
        raise ExtractionFailed("no psd completion of the lifted matrix")
    lift = combined_lift(case, k)
    excluded = parametrization(case).components[0].excluded_t
    errors = []
    for v in _completion_candidates(comp.pd, comp.psd, opts):
        try:
            m = moment.hankel_from_lift(case, k, work.form, v)
            pairs = solve_hankel_R(m)
        except NoMeasure as exc:
            errors.append(f"v={v:.6g}: {exc}")
            continue
        bad = False
        for t, _ in pairs:
            if any(abs(t - ex) < 1e-6 for ex in excluded):
                errors.append(f"v={v:.6g}: atom at excluded parameter t={t:.6g}")
                bad = True
                break
        if bad:
            continue
        mu = _atoms_on_curve(case, k, lift, pairs, o_weight)
        resid = verify(mu, L)
        if resid < 1e-6:
            return mu
        errors.append(f"v={v:.6g}: verification residual {resid:.3g}")
    raise ExtractionFailed(
        "no completion point produced an admissible measure: " + "; ".join(errors[:4])
    )


def _atoms_on_curve(case, k, lift, pairs, o_weight):
    comp = parametrization(case).components[0]
    atoms = []
    for t, w in pairs:
        wc = w * lift.weight_multiplier(t)
        atoms.append((comp.x_at(t), comp.y_at(t), wc))
    if o_weight > 1e-12:
        atoms.append((0.0, 0.0, o_weight))
    # merge atoms landing on the same curve point (e.g. the node of P4)
    merged = []
    for x, y, w in atoms:
        for i, (xx, yy, ww) in enumerate(merged):
            if abs(x - xx) < 1e-8 * (1 + abs(x)) and abs(y - yy) < 1e-8 * (1 + abs(y)):
                merged[i] = (xx, yy, ww + w)
                break
        else:
            merged.append((x, y, w))
    return AtomicMeasure(tuple(Atom(x, y, w) for x, y, w in merged if w > 1e-12))


def verify(mu: AtomicMeasure, L: MomentSequence) -> float:
    """max relative deviation between the measure's moments and L's."""
    worst = 0.0
    for (i, j), b in L.beta.items():
        s = sum(a.w * a.x**i * a.y**j for a in mu.atoms)
        worst = max(worst, abs(s - b) / (1.0 + abs(b)))
    return worst


# ---------------------------------------------------------------------------
# Test-data generation


def generate_measure(case: CurveCase, n_atoms: int, k: int, seed=0,
                     spread=1.25) -> AtomicMeasure:
    """Seeded random atoms on the curve, clear of poles and excluded values.

    Parameters are drawn one per jittered Chebyshev cell of the t-range
    (widened until enough cells clear the excluded values), keeping the
    evaluation Gram matrices of generic measures comfortably positive
    definite even at the top degree.
    """
    rng = np.random.default_rng(seed)
    dens = _pole_denominators(case, k)
    atoms = []
    if case.has_parametrization():
        comps = parametrization(case).components
        per_comp = _component_allocation(case, comps, n_atoms)
        def point_ok(comp, t):
            if any(abs(t - ex) < 0.3 for ex in comp.excluded_t):
                return False
            if abs(comp.x_den.eval(t)) < 5e-2 or abs(comp.y_den.eval(t)) < 5e-2:
                return False
            x, y = comp.x_at(t), comp.y_at(t)
            return all(abs(d.eval(x, y)) >= 5e-2 for d in dens)

        for ci, count in sorted(per_comp.items()):
            comp = comps[ci]
            cells = _valid_cells(comp, count, spread, lambda t, c=comp: point_ok(c, t))
            for lo, hi in cells:
                for _ in range(300):
                    t = float(rng.uniform(lo, hi))
                    if not point_ok(comp, t):
                        continue
                    x, y = comp.x_at(t), comp.y_at(t)
                    atoms.append(Atom(x, y, float(rng.uniform(0.3, 1.3)), ci))
                    break
                else:
                    raise RuntimeError(f"could not place an atom on {case.id} in a cell")
        return AtomicMeasure(tuple(atoms))
    # no rational parametrization: sample the real locus directly
    tries = 0
    while len(atoms) < n_atoms:
        tries += 1
        if tries > 8000:
            raise RuntimeError(f"could not place atoms on {case.id}")
        pts = sample_points(case, 1, seed=int(rng.integers(0, 2**31)), spread=spread)
        x, y, comp_idx = pts[0]
        if any(abs(x - a.x) + abs(y - a.y) < 0.15 for a in atoms):
            continue
        if any(abs(d.eval(x, y)) < 5e-2 for d in dens):
            continue
        atoms.append(Atom(x, y, float(rng.uniform(0.3, 1.3)), comp_idx))
    return AtomicMeasure(tuple(atoms))


def _component_allocation(case, comps, n_atoms):
    """Atoms per component, proportional to the factor degrees.

    A line component carries only a degree-k worth of functions while a
    conic carries 2k, so a line/conic split must be (k, 2k) or the
    localizing Gram matrix is structurally rank-deficient.
    """
    if len(comps) == 1:
        return {0: n_atoms}
    factors = case.factors()
    degs = [max(1, int(factors[c.factor_index].degree())) for c in comps]
    total = sum(degs)
    alloc = [n_atoms * d // total for d in degs]
    i = 0
    while sum(alloc) < n_atoms:
        order = sorted(range(len(comps)), key=lambda j: -degs[j])
        alloc[order[i % len(comps)]] += 1
        i += 1
    return {ci: alloc[ci] for ci in range(len(comps)) if alloc[ci] > 0}


def _valid_cells(comp, n, spread, point_ok):
    """n disjoint windows around Chebyshev points whose centers pass point_ok."""
    if n <= 0:
        return []
    width = spread
    for _ in range(10):
        for m in range(max(n, 2), max(n, 2) + 9):
            centers = sorted(width * math.cos(math.pi * (i + 0.5) / m) for i in range(m))
            half = min(0.4 * width / m, 0.3)
            cells = [(c - half, c + half) for c in centers if point_ok(c)]
            if len(cells) >= n:
                step = len(cells) / n
                return [cells[int(i * step)] for i in range(n)]
        width *= 1.4
    raise RuntimeError("could not build enough placement cells")


def _pole_denominators(case, k):
    from .curves import NotApplicable

    dens = []
    try:
        vb = basis_Vk(case, k)
    except NotApplicable:
        return dens
    for e in vb.elements:
        if e.rat.denominator.degree() > 0:
            dens.append(e.rat.denominator)
    return dens


def generate(case: CurveCase, k: int, mu: AtomicMeasure | None = None,
             n_atoms: int | None = None, seed=0) -> tuple:
    """(MomentSequence, AtomicMeasure) from given or freshly sampled atoms."""
    if mu is None:
        if n_atoms is None:
            n_atoms = 3 * k
        mu = generate_measure(case, n_atoms, k, seed=seed)
    L = MomentSequence(case, k, mu.moments(k))
    return L, mu


# ---------------------------------------------------------------------------
# Separating witnesses


def witness(L: MomentSequence, decision: Decision | None = None) -> BivarPoly:
    """Polynomial p >= 0 on the curve with L(p) < 0, from a failed psd check.

    With g the most negative eigenvector of the failing matrix, zero outside
    its rows of the compiled form, p = chi * f * (sum g_r u_r)^2 is that
    form read backwards (Form.polynomial of g g^T, the map the certificate
    residual reads), so L(p) = g^T M g < 0 up to rounding.  p is accepted
    only when L(p) < -n * u * sum |p_m beta_m|, n the number of terms of p
    and u = 2^-53: the standard bound on the rounding error of a dot
    product (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
    """
    dec = decision or decide(L)
    ref = dec.refutation
    if dec.passed() or ref is None:
        raise NoWitness(f"decision was {dec.verdict}")
    g = np.zeros(len(ref.form.elements))
    g[ref.rows] = np.linalg.eigh(ref.matrix.known())[1][:, 0]
    p = ref.form.polynomial(np.outer(g, g))
    val = L.value(p)
    bound = len(p.coeffs) * 2.0**-53 * sum(abs(c * L.beta[m]) for m, c in p.coeffs.items())
    if not val < -bound:
        raise NoWitness(f"witness value {val:.3g} is not below the rounding bound -{bound:.3g}")
    return p


def sampled_min_on_curve(p: BivarPoly, case: CurveCase, n=500, seed=3):
    """Minimum of p over n sampled curve points (relative to its scale)."""
    X, Y = sample_arrays(case, n, seed=seed)
    return min(map(p.eval, X.tolist(), Y.tolist()))

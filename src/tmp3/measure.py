"""Atomic measures: recovery from moments, generation, verification.

Extraction runs on the univariate lift: complete the single unknown entry
at an endpoint of its psd interval, where the lift is flat, read the atoms'
parameters off the lift's own multiplication operator (moment._Lift.nodes),
push them onto the curve and fit the weights to the moments.  Each endpoint
is fitted and checked (verify) once: the lift record carries the accepted
measure with its residual, or the failure, to every later reader -- the
singular routine of decide, extract and the residual of ``tmp3 solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moment
from .bases import basis_Vk
from .curves import CurveCase, parametrization, sample_arrays, sample_points
from .moment import Decision, MomentSequence, decide
from .poly import BivarPoly, UnsupportedCase


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
        keys = moment._graded_keys(k)
        if not self.atoms:
            return dict.fromkeys(keys, 0)
        return dict(zip(keys, _moment_sums(self.atoms, *moment._graded_exponents(k)).tolist()))


def _moment_sums(atoms, I, J):
    """sum(a.w * a.x**i * a.y**j for a in atoms) for each (i, j) in zip(I, J),
    bit for bit: one Python power x**e per atom and exponent (numpy's power
    rounds differently), (w * x^i) * y^j, and the sum over the atoms from 0
    in their order (np.add.accumulate, which never pairs terms up)."""
    if not atoms:
        return np.zeros(len(I))
    XP = np.array([[a.x**e for e in range(I.max() + 1)] for a in atoms])
    YP = np.array([[a.y**e for e in range(J.max() + 1)] for a in atoms])
    W = np.array([a.w for a in atoms])
    with np.errstate(over="ignore", invalid="ignore"):
        T = W[:, None] * XP[:, I] * YP[:, J]
        # a zero row first: the sum starts from 0, which turns a lone -0.0 into 0.0
        return np.add.accumulate(np.vstack((np.zeros(len(I)), T)))[-1]


# ---------------------------------------------------------------------------
# Extraction through the lift


@dataclass(frozen=True)
class ExtractOptions:
    completion: str | None = None  # None (a flat endpoint) | midpoint | left | right | value
    completion_value: float | None = None


def extract(L: MomentSequence, opts: ExtractOptions | None = None,
            decision: Decision | None = None) -> AtomicMeasure:
    """Recover an atomic representing measure for a constructive case."""
    return extract_verified(L, opts, decision)[0]


def extract_verified(L: MomentSequence, opts: ExtractOptions | None = None,
                     decision: Decision | None = None) -> tuple:
    """(extract's measure, its verify residual against the functional that
    was decided); an endpoint measure's residual is the one its fit kept."""
    case = L.case
    if not case.is_constructive():
        raise UnsupportedCase(f"extraction is not available for {case.id}")
    dec = decision or decide(L)
    if not dec.passed():
        raise ExtractionFailed(f"decision was {dec.verdict}; nothing to extract")
    if dec.lift is None:
        raise ExtractionFailed("the decision carries no lifted matrix")
    return _extract_from_lift(dec.lift, opts)


def _extract_from_lift(work, opts: ExtractOptions | None = None) -> tuple:
    """(measure, verify residual) for ``work.target`` from ``work``, the lift
    of it minus ``work.o_weight`` * delta_0.

    The measures live at the flat completions, the endpoints of the psd
    interval: by default the first endpoint whose measure is accepted
    (_flat_measure) is returned, with at most 3k atoms besides the origin.
    A requested completion v is the convex combination of the two endpoint
    measures whose unknown pair is v (the lift is affine in v); ``value``
    needs both, the named points fall back to an endpoint.
    """
    opts = opts or ExtractOptions()
    ivl = work.completion.psd
    if ivl.empty:
        raise ExtractionFailed("no psd completion of the lifted matrix")
    theta = None
    if opts.completion is not None:
        v = _requested(ivl, opts)
        if ivl.width > 0:
            theta = (v - ivl.lo) / ivl.width
        else:
            theta = 0.0 if abs(v - ivl.lo) <= 1e-9 * max(1.0, abs(ivl.lo)) else math.inf
        if not -1e-9 <= theta <= 1 + 1e-9:
            raise ExtractionFailed(f"completion value {v:.6g} lies outside the psd interval")
        theta = min(max(theta, 0.0), 1.0)
    found, errors = [], []
    for v in ((ivl.lo,) if ivl.width == 0.0 else (ivl.lo, ivl.hi)):
        try:
            found.append(_flat_measure(work, v))
        except ExtractionFailed as exc:
            errors.append(f"v={v:.6g}: {exc}")
            continue
        if theta is None:
            return found[0]
    if theta is not None and not errors:
        parts = [(a.x, a.y, a.w * share) for (mu, _), share in zip(found, (1 - theta, theta))
                 for a in mu.atoms]
        mu = AtomicMeasure(tuple(Atom(x, y, w) for x, y, w in _merged(parts) if w > 0))
        return mu, verify(mu, work.target)
    if found and opts.completion != "value":
        return found[0]
    raise ExtractionFailed(
        "no flat completion produced an admissible measure: " + "; ".join(errors))


def _requested(ivl, opts: ExtractOptions):
    """The completion value that ``opts`` asks for: a named point of the psd
    interval ``ivl`` or the given value."""
    if opts.completion == "value":
        if opts.completion_value is None:
            raise ValueError("completion mode 'value' needs completion_value")
        return float(opts.completion_value)
    frac = {"midpoint": 0.5, "left": 0.25, "right": 0.75}.get(opts.completion)
    if frac is None:
        raise ValueError(f"unknown completion mode {opts.completion!r}")
    return ivl.lo + frac * ivl.width


def _flat_measure(work, v):
    """(measure, verify residual) at the flat completion v of ``work``, fitted
    once per record and endpoint: the record keeps the result of _fit, or its
    ExtractionFailed, in ``work.measures`` for every later reader."""
    got = work.measures.get(v)
    if got is None:
        try:
            got = _fit(work, v)
        except ExtractionFailed as exc:
            got = exc
        work.measures[v] = got
    if isinstance(got, ExtractionFailed):
        raise got.with_traceback(None)
    return got


def _fit(work, v):
    """The measure at the flat completion v of ``work`` and its residual: the
    nodes that are not excluded parameters, pushed onto the curve and merged
    where they meet, weighted by a least-squares fit to the moments of
    ``work.L``, with the split mass ``work.o_weight`` at the origin.  Accepted
    when every weight is positive and the moments of L = ``work.target`` are
    reproduced to 1e-6 (``verify``)."""
    L, o_weight = work.target, work.o_weight
    comp = parametrization(L.case).components[0]
    T = work.nodes(v)
    for ex in comp.excluded_t:
        T = T[np.abs(T - ex) >= 1e-6]
    if not len(T):
        raise ExtractionFailed("no admissible node")
    # UnivarPoly.eval runs its Horner steps on the whole array of nodes
    X = comp.x_num.eval(T) / comp.x_den.eval(T)
    Y = comp.y_num.eval(T) / comp.y_den.eval(T)
    if _any_close(X, Y):
        X, Y, _ = np.array(_merged(list(zip(X, Y, np.zeros(len(T)))))).T
    b = work.beta
    # rows scaled as verify weighs them, columns to unit norm: a far atom
    # carries a tiny weight and must not swamp the others' columns
    s = np.maximum(1.0, np.abs(b))
    I, J = moment._graded_exponents(L.k)
    # a scalar exponent per power: an array of exponents rounds some entries differently
    XP = np.array([X**e for e in range(2 * L.k + 1)])
    YP = np.array([Y**e for e in range(2 * L.k + 1)])
    A = XP[I] * YP[J] / s[:, None]
    c = np.linalg.norm(A, axis=0)
    w = np.linalg.lstsq(A / c, b / s, rcond=None)[0] / c
    if w.min() <= 0:
        raise ExtractionFailed(f"nonpositive weight {w.min():.3g}")
    atoms = list(zip(X.tolist(), Y.tolist(), w.tolist()))
    if o_weight > 1e-12:
        atoms.append((0.0, 0.0, o_weight))
    mu = AtomicMeasure(tuple(Atom(x, y, w) for x, y, w in atoms))
    resid = verify(mu, L)
    if not resid < 1e-6:
        raise ExtractionFailed(f"verification residual {resid:.3g}")
    return mu, resid


def _merged(atoms):
    """(x, y, w) atoms with those on the same curve point (the node of P4) merged."""
    out = []
    for x, y, w in atoms:
        for i, (xx, yy, ww) in enumerate(out):
            if abs(x - xx) < 1e-8 * (1 + abs(x)) and abs(y - yy) < 1e-8 * (1 + abs(y)):
                out[i] = (xx, yy, ww + w)
                break
        else:
            out.append((x, y, w))
    return out


def _any_close(X, Y):
    """Whether a point lies within _merged's tolerance of an earlier one (when
    none does, _merged changes nothing)."""
    with np.errstate(invalid="ignore"):
        near = ((np.abs(X[:, None] - X) < 1e-8 * (1 + np.abs(X))[:, None])
                & (np.abs(Y[:, None] - Y) < 1e-8 * (1 + np.abs(Y))[:, None]))
    return bool(np.tril(near, -1).any())


def verify(mu: AtomicMeasure, L: MomentSequence) -> float:
    """max relative deviation between the measure's moments and L's,
    |m - beta| / max(1, |beta|); a NaN deviation is skipped, as max skips it."""
    I, J = np.array(list(L.beta), dtype=np.intp).reshape(-1, 2).T
    S = _moment_sums(mu.atoms, I, J)
    B = np.array(list(L.beta.values()), dtype=float)
    with np.errstate(invalid="ignore"):
        dev = np.abs(S - B) / np.fmax(1.0, np.abs(B))
    return float(np.fmax.reduce(dev, initial=0.0))


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
    """Polynomial p >= 0 on the curve with L(p) < 0: the witness that decide
    built and confirmed against the rounding bound when it refuted L (see
    moment._refuted).  Raises NoWitness on every other verdict."""
    dec = decision or decide(L)
    if dec.witness is None:
        raise NoWitness(f"decision was {dec.verdict}")
    return dec.witness


def sampled_min_on_curve(p: BivarPoly, case: CurveCase, n=500, seed=3):
    """Minimum of p over n sampled curve points (relative to its scale)."""
    X, Y = sample_arrays(case, n, seed=seed)
    return min(map(p.eval, X.tolist(), Y.tolist()))

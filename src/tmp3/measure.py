"""Atomic measures: extraction, generation and separating witnesses.

The measures themselves (Atom, AtomicMeasure, verify) and their recovery
live with the lift in moment: extract checks the case and the decision,
then asks the decision's lift record for its measure (moment._Lift.extract).
"""

from __future__ import annotations

import math

import numpy as np

from .bases import basis_Vk
from .curves import CurveCase, NotApplicable, parametrization, sample_arrays, sample_points
# the measure types and verify live with the lift record; this module re-exports them
from .moment import (Atom, AtomicMeasure, Decision, ExtractionFailed, ExtractOptions,
                     MomentSequence, decide, verify)
from .poly import BivarPoly, UnsupportedCase


class NoWitness(ValueError):
    """Witness requested for data that passed the decision."""


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
    return dec.lift.extract(opts)


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

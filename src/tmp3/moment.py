"""Moment functionals on plane cubics, the decision engine, and the atomic
measures read off the univariate lift.

A functional is given by its moments beta[i, j] up to degree 2k.  Each
Gram-type matrix of a (case, k) -- over B_k, over V^(k), over the lift
union basis, and the two-factor forms -- is compiled once into a cached
record (Form) whose sparse arrays map the moments to its entries; decide,
certify and witness all read that one record.  The engine evaluates the
moment matrix and the localizing matrix (three matrices for the
non-real-intersection cases), then dispatches: positive definiteness
settles the nonsingular problem.  Singular psd data on a constructive case
is decided in one routine (_singular): the case's rank theorem on the
univariate lift, then a measure read off a flat completion of the lift that
reproduces the moments.  P5 runs it on L and on L minus a point mass at its
isolated point; the smooth Weierstrass forms use the unique degree-(2k+2)
extension.  The lift record (_Lift) is the only code that turns a lift
into atoms, for decide and extract alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .bases import basis_Bk, basis_Rk1, basis_Vk, combined_lift
from .curves import CurveCase, _mono_of_deg_c, chi_flags, parametrization
from .linalg import Interval, SymmetricForm, Tolerances
from .poly import (_UNIT, BasisElement, BivarPoly, RationalElem, _entry, _factor, _exps,
                   _mon_index, _shift_index, _shifted, normal_low, product_on_curve)

_M = BivarPoly.monomial


class IdealViolation(ValueError):
    """The sequence does not vanish on the curve ideal."""


class IncompleteMoments(ValueError):
    pass


@dataclass(frozen=True)
class MomentSequence:
    case: CurveCase
    k: int
    beta: dict

    def __post_init__(self):
        for d in range(2 * self.k + 1):
            for i in range(d + 1):
                if (i, d - i) not in self.beta:
                    raise IncompleteMoments(f"missing moment ({i}, {d - i})")

    def scale(self):
        return max(1.0, max(map(abs, self.beta.values())))

    def value(self, p: BivarPoly):
        """L(p); p must have degree <= 2k."""
        out = 0.0
        for (i, j), c in p.coeffs.items():
            out += c * self.beta[(i, j)]
        return out

    def perturbed(self, delta: dict):
        b = dict(self.beta)
        for key, v in delta.items():
            b[key] = b.get(key, 0.0) + v
        return MomentSequence(self.case, self.k, b)


@dataclass(frozen=True)
class Check:
    name: str
    kind: str  # psd | pd | rank-eq | interval | range | root-avoidance | residual
    passed: bool
    margin: float


@dataclass
class Decision:
    """A verdict with its checks.  It is NotMomentFunctional exactly when
    ``witness`` is set: p >= 0 on the curve, L(p) confirmed negative (_refuted).

    ``lift`` is the payload of extract(), as ``witness`` is witness()'s: on a
    passing constructive verdict, the lift of L - o_weight * delta_0.  The
    split mass ``o_weight`` and the ``completion_interval`` are read off it.
    """

    verdict: str  # MomentFunctional | MomentFunctionalOnNonIsolated |
    #              NotMomentFunctional | Inconclusive
    details: list = field(default_factory=list)
    note: str = ""
    witness: BivarPoly | None = None  # the payload of witness()
    singular_branch: str = ""
    lift: _Lift | None = field(default=None, repr=False, compare=False)

    @property
    def o_weight(self) -> float:
        """The point mass split off at P5's isolated point (0 without a lift)."""
        return 0.0 if self.lift is None else self.lift.o_weight

    @property
    def completion_interval(self) -> Interval | None:
        """The lift's pd interval on the pd pass (no singular branch), else its
        psd interval; None without a lift."""
        if self.lift is None:
            return None
        comp = self.lift.completion
        return comp.psd if self.singular_branch else comp.pd

    @property
    def witness_available(self):
        return self.witness is not None

    def passed(self):
        return self.verdict in ("MomentFunctional", "MomentFunctionalOnNonIsolated")

    def exit_code(self):
        if self.passed():
            return 0
        return 1 if self.verdict == "NotMomentFunctional" else 2


@dataclass(frozen=True)
class DecideOptions:
    tol: Tolerances = linalg.DEFAULT_TOL


_IDEAL_TOL = 1e-7  # decide's bound on the ideal residual, relative to the moment scale


# ---------------------------------------------------------------------------
# Compiled forms


@lru_cache(maxsize=64)
def _graded_exponents(k):
    """(I, J): the exponents (i, j), i + j <= 2k, in the graded order of
    poly._mon_index, as two read-only arrays."""
    I, J = _exps(np.arange((k + 1) * (2 * k + 1), dtype=np.intp))
    I.flags.writeable = J.flags.writeable = False
    return I, J


@lru_cache(maxsize=64)
def _graded_keys(k):
    """The exponents of _graded_exponents(k) as (i, j) pairs of Python ints."""
    return tuple(zip(*(a.tolist() for a in _graded_exponents(k))))


@lru_cache(maxsize=64)
def _lower(n):
    """Flat indices of the strictly lower triangle of an n x n matrix and of
    the entries mirroring them above the diagonal."""
    r, c = np.tril_indices(n, -1)
    return r * n + c, c * n + r


def _beta_vector(L: MomentSequence):
    """The moments beta[i, j] up to degree 2k as an array in graded order;
    decide builds it once and hands it to every reader."""
    keys = _graded_keys(L.k)
    return np.fromiter(map(L.beta.__getitem__, keys), dtype=float, count=len(keys))


@dataclass(frozen=True, eq=False)
class Form:
    """One Gram-type matrix of a (case, k), compiled to a linear map of the moments.

    Entry (r, s), r <= s, is chi * L(f * u_r * u_s) over ``elements``: the
    sum of coef[e] * beta[mon[e]] over the entries e with pair[e] = r*n + s,
    added in the order of the reduced product's terms.  ``unknown`` is the
    one pair whose product has no representative of degree <= 2k.  Decide,
    certify and witness all read this record.  ``matrix`` maps the moment
    vector (_beta_vector) to the Gram matrix; its adjoint ``terms`` maps a
    Gram matrix G back to the polynomial chi * f * v^T G v, so that
    L(chi f v^T G v) = <G, M(L)>: the certificate residual and the refutation
    witness both read it.
    """

    labels: tuple
    elements: tuple
    f: RationalElem
    chi: float
    k: int
    pair: np.ndarray
    mon: np.ndarray
    coef: np.ndarray
    unknown: tuple | None = None
    partial: bool = False  # P10/P11: the localizing basis misses one element

    def matrix(self, beta) -> SymmetricForm:
        n = len(self.labels)
        m = self.chi * np.bincount(self.pair, self.coef * beta[self.mon], minlength=n * n)
        lower, upper = _lower(n)
        m[lower] = m[upper]
        return SymmetricForm(list(self.labels), m.reshape(n, n), self.unknown)

    def terms(self, G):
        """(mon, value) terms of chi * f * v^T G v for a symmetric G over
        ``elements``: pair r <= s carries W[r, s] * coef, W = G + G^T - diag G.
        G must vanish on the ``unknown`` pair, which has no terms."""
        W = G + G.T - np.diag(np.diag(G))
        return self.mon, self.chi * W.ravel()[self.pair] * self.coef

    def polynomial(self, G) -> BivarPoly:
        """chi * f * v^T G v as a polynomial of degree <= 2k, each monomial's
        terms summed in the order of ``terms``."""
        keys = _graded_keys(self.k)
        coeffs = np.bincount(*self.terms(G), minlength=len(keys)).tolist()
        p = BivarPoly()
        p.coeffs = {m: c for m, c in zip(keys, coeffs) if c != 0.0}
        return p


@lru_cache(maxsize=512)
def _form(case: CurveCase, k: int, which: str) -> Form:
    """The compiled form ``which`` of (case, k).

    ``Bk``, ``Vk`` and ``lift`` take f * u * v on the curve (f the case
    multiplier for Vk, 1 otherwise).  The v2 forms take normal_low of
    u * v * (factor i) times chi_i: ``Qi`` over the factor-quotient basis
    (decide), ``Ri`` over basis_Rk1 (localizing_matrices_v2, certificates).
    """
    one = RationalElem(BivarPoly.const(1.0), BivarPoly.const(1.0))
    chi, partial = 1.0, False
    if which in ("Bk", "Vk", "lift"):
        if which == "Bk":
            els, f = basis_Bk(case, k).elements, one
        elif which == "Vk":
            vb = basis_Vk(case, k)
            els, f, partial = vb.elements, case.multiplier().f, vb.partial
        else:
            els, f = combined_lift(case, k).elements, one
    else:
        fi = int(which[1])
        if which[0] == "Q":
            els = _v2_quotient_elements(case, k)[fi]
        else:
            els = basis_Rk1(case, k).elements
        f = RationalElem(case.factors()[fi], BivarPoly.const(1.0))
        chi = float(chi_flags(case)[fi])
    pair, mon, coef, unknown = _assemble(case, k, els, f)
    if len(unknown) > 1:
        raise AssertionError(f"more than one undetermined {which} entry for {case.id}")
    unknown = unknown[0] if unknown else None
    if which == "lift":
        assert unknown == combined_lift(case, k).unknown, unknown
    return Form(tuple(e.label for e in els), tuple(els), f, chi, k, pair, mon, coef,
                unknown, partial)


def _assemble(case, k, els, f):
    """(pair, mon, coef, undetermined pairs) of f * u_r * u_s over els, r <= s.

    Every entry is read from the symbolic tables.  With a polynomial f, a
    pair of unit monomials x^a y^b, x^c y^d is poly._shifted of f's terms at
    the exponent sum (a + c, b + d), so each distinct sum costs one rewrite
    per case and multiplier; every other pair goes through poly._entry.  The
    arrays are the entries' terms joined in (r, s) order, read-only; an
    undetermined pair has no terms.
    """
    n = len(els)
    fac = _factor(f)
    facs = [_factor(e.rat) for e in els]
    exps = [e.exps for e in els] if fac[1] == _UNIT else [None] * n
    index = _shift_index(case, fac[0]) if fac[1] == _UNIT else None
    pairs, mons, coefs, unknown = [], [], [], []
    for r in range(n):
        a = exps[r]
        for s in range(r, n):
            b = exps[s]
            if a is None or b is None:
                e = _entry(case, k, facs[r], facs[s], fac)
            else:
                e = _shifted(case, fac[0], (a[0] + b[0], a[1] + b[1]), index)
                if e[2] > 2 * k:
                    e = None
            if e is None:
                unknown.append((r, s))
            else:
                pairs.append(r * n + s)
                mons.append(e[0])
                coefs.append(e[1])
    # the entries' terms concatenated in (r, s) order: read-only views of the joined bytes
    mon = np.frombuffer(b"".join(mons), dtype=np.intp)
    coef = np.frombuffer(b"".join(coefs), dtype=float)
    pair = np.repeat(np.array(pairs, dtype=np.intp), [len(m) // mon.itemsize for m in mons])
    pair.flags.writeable = False
    return pair, mon, coef, unknown


def _v2_quotient_elements(case, k):
    """Bases of the factor quotients of the degree-(k-1) functions.

    Multiplication by one factor kills the other component, so strict
    local positivity lives on polynomial functions of the opposite
    component: degree <= k-1 on the conic (dimension 2k-1) for the
    line factor, and on the line (dimension k) for the conic factor.
    """
    conic = [BasisElement.monomial(i, 0) for i in range(k)]
    conic += [BasisElement.monomial(i, 1) for i in range(k - 1)]
    line = [BasisElement.monomial(i, 0) for i in range(k)]
    return conic, line


@lru_cache(maxsize=512)
def _ideal_rows(case: CurveCase, k: int):
    """The rows L(x^a y^b * P), a + b <= 2k - 3, compiled like a form: row
    (a, b), in graded order, holds P's terms in P's order, shifted by (a, b)."""
    P = case.defining_poly().coeffs
    n = (k - 1) * (2 * k - 1)  # the monomials of degree <= 2k - 3
    a, b = _exps(np.arange(n, dtype=np.intp))
    pi, pj = np.array(list(P), dtype=np.intp).T
    row = np.repeat(np.arange(n, dtype=np.intp), len(P))
    mon = _mon_index((a[:, None] + pi).ravel(), (b[:, None] + pj).ravel())
    coef = np.tile(np.array(list(P.values()), dtype=float), n)
    for arr in (row, mon, coef):
        arr.flags.writeable = False
    return row, mon, coef, n


def check_ideal_vanishing(L: MomentSequence, beta=None) -> float:
    """max |L(x^a y^b * P)| over a + b <= 2k - 3 (0 when there are no rows);
    ``beta`` is L's moment vector when the caller has built it."""
    row, mon, coef, n = _ideal_rows(L.case, L.k)
    beta = _beta_vector(L) if beta is None else beta
    vals = np.bincount(row, coef * beta[mon], minlength=n)
    # fmax skips NaN rows, as the built-in max of the scalar loop did
    return float(np.fmax.reduce(np.abs(vals), initial=0.0))


def moment_matrix(L: MomentSequence) -> SymmetricForm:
    """Matrix of L(u*v) over basis_Bk; fully determined for every case."""
    beta = _beta_vector(L)
    resid = check_ideal_vanishing(L, beta)
    if resid > _IDEAL_TOL * L.scale():
        raise IdealViolation(f"ideal residual {resid:.3g}")
    return _form(L.case, L.k, "Bk").matrix(beta)


def localizing_matrix(L: MomentSequence) -> SymmetricForm:
    """Matrix of L(f*u*v) over basis_Vk (partial basis for P10/P11)."""
    return _form(L.case, L.k, "Vk").matrix(_beta_vector(L))


def localizing_matrices_v2(L: MomentSequence):
    """(M1 with chi1*P1, M2 with chi2*P2) over basis_Rk1; M1 None if chi1=0."""
    r0, r1 = (_form(L.case, L.k, f"R{i}") for i in (0, 1))
    beta = _beta_vector(L)
    return (None if r0.chi == 0 else r0.matrix(beta)), r1.matrix(beta)


def lift_matrix(L: MomentSequence, beta=None) -> SymmetricForm:
    """Partial (3k+1) x (3k+1) union-basis matrix with one unknown pair;
    ``beta`` is L's moment vector when the caller has built it."""
    return _form(L.case, L.k, "lift").matrix(_beta_vector(L) if beta is None else beta)


# ---------------------------------------------------------------------------
# Atomic measures


class ExtractionFailed(RuntimeError):
    pass


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
        keys = _graded_keys(k)
        if not self.atoms:
            return dict.fromkeys(keys, 0)
        return dict(zip(keys, _moment_sums(self.atoms, *_graded_exponents(k)).tolist()))


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


def verify(mu: AtomicMeasure, L: MomentSequence) -> float:
    """max relative deviation between the measure's moments and L's,
    |m - beta| / max(1, |beta|); a NaN deviation is skipped, as max skips it."""
    I, J = np.array(list(L.beta), dtype=np.intp).reshape(-1, 2).T
    S = _moment_sums(mu.atoms, I, J)
    B = np.array(list(L.beta.values()), dtype=float)
    with np.errstate(invalid="ignore"):
        dev = np.abs(S - B) / np.fmax(1.0, np.abs(B))
    return float(np.fmax.reduce(dev, initial=0.0))


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


@dataclass(frozen=True)
class ExtractOptions:
    completion: str | None = None  # None (a flat endpoint) | midpoint | left | right | value
    completion_value: float | None = None


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


# ---------------------------------------------------------------------------
# The univariate lift


@lru_cache(maxsize=512)
def _t_action(case: CurveCase, k: int):
    """(F', T'^T): multiplication by t on the lift basis of (case, k), over every
    row but p.

    Row r of N holds the t-coefficients of element r's numerator (degree <= 3k),
    and p is the element with the largest t^3k coefficient.  Row r != p of F
    is element r minus the multiple of p that cancels its t^3k term, and row p
    is p itself; so t * (F phi)_r has degree <= 3k for r != p, and it equals
    (T^T phi)_r with T = solve(N^T, shift(F N)^T).  Only N is solved against:
    the moments never pass through N^-1.
    """
    lift = combined_lift(case, k)
    n = len(lift.elements)
    N = np.zeros((n, n))
    for r, num in enumerate(lift.numerators):
        N[r, :len(num.coeffs)] = num.coeffs
    p = int(np.argmax(np.abs(N[:, -1])))
    F = np.eye(n)
    F[:, p] -= N[:, -1] / N[p, -1]
    F[p, p] = 1.0
    shifted = np.zeros((n, n))
    shifted[:, 1:] = (F @ N)[:, :-1]
    T = np.linalg.solve(N.T, shifted.T)
    rows = [r for r in range(n) if r != p]
    return F[rows], T[:, rows].T


_NODE_CUTOFF = 1e-13  # relative eigenvalue of G below which _Lift.nodes drops a direction


class _Lift:
    """The lifted matrix of one functional L, assembled once from its moment
    vector ``beta``, and the one decomposition of its block D that avoids the
    unknown pair, taken on first use: the pd and psd completion intervals and
    P5's Schur data read it.

    Its measures (measure, extract) are read by decide's singular routine
    and by extract, to which a passing Decision carries the record.
    ``target`` is the functional the measure must reproduce: L itself, or,
    for a lift that _p5_shift made, the functional L + o_weight * delta_0 it
    was split from.  A shifted record decomposes its own D.
    """

    def __init__(self, L: MomentSequence, tol: Tolerances = linalg.DEFAULT_TOL,
                 o_weight: float = 0.0, target: MomentSequence | None = None, beta=None):
        self.L = L
        self.tol = tol
        self.o_weight = o_weight
        self.target = L if target is None else target
        self.beta = _beta_vector(L) if beta is None else beta
        self.form = lift_matrix(L, self.beta)
        self.measures = {}

    @cached_property
    def completion(self) -> linalg.Completion:
        return linalg.completion_interval(self.form, self.tol)

    def nodes(self, v):
        """The parameters t read off the lift completed with v: the eigenvalues
        of multiplication by t, whitened by the Gram matrix G = F' M F'^T (see
        _t_action) without its eigenvalues at most 1e-13 of the largest.  At a
        flat completion they are the atoms' parameters (Golub & Welsch 1969)."""
        Fp, Tt = _t_action(self.L.case, self.L.k)
        MF = self.form.with_value(v).known() @ Fp.T
        w, V = np.linalg.eigh(Fp @ MF)
        keep = w > _NODE_CUTOFF * max(w[-1], 0.0)
        W = V[:, keep] / np.sqrt(w[keep])
        C = W.T @ (Tt @ MF) @ W
        return np.linalg.eigvalsh(0.5 * (C + C.T))

    def measure(self, v):
        """(measure, verify residual) at the flat completion v, fitted once:
        ``measures`` keeps the result of _fit, or its ExtractionFailed, which
        every later read raises again."""
        got = self.measures.get(v)
        if got is None:
            try:
                got = self._fit(v)
            except ExtractionFailed as exc:
                got = exc
            self.measures[v] = got
        if isinstance(got, ExtractionFailed):
            raise got.with_traceback(None)
        return got

    def _fit(self, v):
        """The measure at the flat completion v and its residual: the nodes
        that are not excluded parameters, pushed onto the curve and merged
        where they meet, weighted by a least-squares fit to the moments of
        ``L``, with the split mass ``o_weight`` at the origin.  Accepted when
        every weight is positive and the moments of ``target`` are reproduced
        to 1e-6 (``verify``)."""
        L = self.target
        comp = parametrization(L.case).components[0]
        T = self.nodes(v)
        for ex in comp.excluded_t:
            T = T[np.abs(T - ex) >= 1e-6]
        if not len(T):
            raise ExtractionFailed("no admissible node")
        # UnivarPoly.eval runs its Horner steps on the whole array of nodes
        X = comp.x_num.eval(T) / comp.x_den.eval(T)
        Y = comp.y_num.eval(T) / comp.y_den.eval(T)
        if _any_close(X, Y):
            X, Y, _ = np.array(_merged(list(zip(X, Y, np.zeros(len(T)))))).T
        b = self.beta
        # rows scaled as verify weighs them, columns to unit norm: a far atom
        # carries a tiny weight and must not swamp the others' columns
        s = np.maximum(1.0, np.abs(b))
        I, J = _graded_exponents(L.k)
        # a scalar exponent per power: an array of exponents rounds some entries differently
        XP = np.array([X**e for e in range(2 * L.k + 1)])
        YP = np.array([Y**e for e in range(2 * L.k + 1)])
        A = XP[I] * YP[J] / s[:, None]
        c = np.linalg.norm(A, axis=0)
        w = np.linalg.lstsq(A / c, b / s, rcond=None)[0] / c
        if w.min() <= 0:
            raise ExtractionFailed(f"nonpositive weight {w.min():.3g}")
        atoms = list(zip(X.tolist(), Y.tolist(), w.tolist()))
        if self.o_weight > 1e-12:
            atoms.append((0.0, 0.0, self.o_weight))
        mu = AtomicMeasure(tuple(Atom(x, y, w) for x, y, w in atoms))
        resid = verify(mu, L)
        if not resid < 1e-6:
            raise ExtractionFailed(f"verification residual {resid:.3g}")
        return mu, resid

    def extract(self, opts: ExtractOptions | None = None) -> tuple:
        """(measure, verify residual) for ``target``.

        The measures live at the flat completions, the endpoints of the psd
        interval: by default the first endpoint whose measure is accepted is
        returned, with at most 3k atoms besides the origin.  A requested
        completion v is the convex combination of the two endpoint measures
        whose unknown pair is v (the lift is affine in v); ``value`` needs
        both, the named points fall back to an endpoint.
        """
        opts = opts or ExtractOptions()
        ivl = self.completion.psd
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
                found.append(self.measure(v))
            except ExtractionFailed as exc:
                errors.append(f"v={v:.6g}: {exc}")
                continue
            if theta is None:
                return found[0]
        if theta is not None and not errors:
            parts = [(a.x, a.y, a.w * share)
                     for (mu, _), share in zip(found, (1 - theta, theta)) for a in mu.atoms]
            mu = AtomicMeasure(tuple(Atom(x, y, w) for x, y, w in _merged(parts) if w > 0))
            return mu, verify(mu, self.target)
        if found and opts.completion != "value":
            return found[0]
        raise ExtractionFailed(
            "no flat completion produced an admissible measure: " + "; ".join(errors))


# ---------------------------------------------------------------------------
# Decision engine


def decide(L: MomentSequence, opts: DecideOptions | None = None) -> Decision:
    opts = opts or DecideOptions()
    tol = opts.tol
    checks = []
    beta = _beta_vector(L)
    resid = check_ideal_vanishing(L, beta)
    scale = L.scale()
    if resid > _IDEAL_TOL * scale:
        raise IdealViolation(f"ideal residual {resid:.3g} exceeds {_IDEAL_TOL:.1g}*scale")
    checks.append(Check("ideal_vanishing", "residual", True, -resid / scale))

    case = L.case
    route = case.record.route
    bk = _form(case, L.k, "Bk")
    MB = bk.matrix(beta)
    mb = linalg.psd_margin(MB.known())
    mb_pd = mb >= tol.pd
    mb_psd = mb >= -tol.psd
    checks.append(Check("moment_matrix_pd", "pd", mb_pd, mb))

    if case.is_v2():
        return _decide_v2(L, beta, MB, mb, checks, tol)
    if route == "isolated":
        return _decide_p5(L, beta, MB, mb, checks, tol)

    vk = _form(case, L.k, "Vk")
    MV = vk.matrix(beta)
    mv = linalg.psd_margin(MV.known())
    mv_pd = mv >= tol.pd
    mv_psd = mv >= -tol.psd
    checks.append(Check("localizing_matrix_pd", "pd", mv_pd, mv))

    if not mb_psd:
        return _refuted(L, checks, bk, MB, slice(None), "moment_matrix_pd")
    if not mv_psd:
        return _refuted(L, checks, vk, MV, slice(None), "localizing_matrix_pd")

    # the lift of a constructive case: every branch below reads this one assembly
    lift = _Lift(L, tol, beta=beta) if case.is_constructive() else None
    if mb_pd and mv_pd:
        ivl = None if lift is None else lift.completion.pd
        if ivl is not None:
            checks.append(Check("completion_interval", "interval",
                                not ivl.empty, ivl.width if not ivl.empty else -1.0))
        note = ""
        if vk.partial:
            note = ("necessary conditions only: the localizing basis for this case "
                    "is missing its Riemann-Roch element")
        elif ivl is not None and ivl.empty:
            note = "pd checks passed but no pd completion was found"
        return Decision("Inconclusive" if note else "MomentFunctional", checks,
                        note=note, lift=lift)

    # singular routes
    if route == "elliptic":
        return _decide_elliptic_singular(L, MB, mb, MV, checks, tol)
    if lift is not None:
        dec = _singular(lift, checks)
        if dec is not None:
            return dec
    if route == "lift":
        return Decision("Inconclusive", checks,
                        note="psd but the singular rank conditions fail; by the case theorem "
                             "this indicates no representing measure (reported conservatively)")
    return Decision("Inconclusive", checks,
                    note="borderline psd data; no singular theory implemented for this case")


def _refuted(L, checks, form: Form, M: SymmetricForm, rows, name):
    """The verdict when check ``name`` fails on M, the block ``rows`` of form.

    With g the most negative eigenvector of M, zero outside ``rows``, the
    witness p = chi * f * (sum g_r u_r)^2 is the form read backwards
    (Form.polynomial of g g^T), so L(p) = g^T M g < 0 up to rounding.  The
    only NotMomentFunctional verdict: L(p) < -n * u * sum |p_m beta_m|, n the
    terms of p and u = 2^-53, the rounding bound of a dot product (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1); else Inconclusive.
    """
    g = np.zeros(len(form.elements))
    g[rows] = np.linalg.eigh(M.known())[1][:, 0]
    p = form.polynomial(np.outer(g, g))
    val = L.value(p)
    bound = len(p.coeffs) * 2.0**-53 * sum(abs(c * L.beta[m]) for m, c in p.coeffs.items())
    if val < -bound:
        return Decision("NotMomentFunctional", checks, witness=p)
    return _unrefuted(checks, f"witness value {val:.3g} is not below the rounding bound "
                              f"-{bound:.3g}", name)


def _unrefuted(checks, why, name, tol=None):
    """Inconclusive after check ``name`` failed without a confirmed witness:
    the note gives ``why``, the check, its margin and the tolerance ``tol``."""
    margin = next(c.margin for c in checks if c.name == name)
    against = "" if tol is None else f", tolerance {tol:.3g}"
    return Decision("Inconclusive", checks,
                    note=f"{why} ({name} margin {margin:.3g}{against}); not refuted")


def _decide_v2(L, beta, MB, mb, checks, tol):
    """Non-real-intersection cases: moment matrix plus the two factor forms.

    Each factor form is tested on the quotient basis of the opposite
    component; the full degree-(k-1) form always carries the other
    component's functions in its kernel.
    """
    ok = mb >= tol.pd
    borderline = mb >= -tol.psd and not ok
    if mb < -tol.psd:
        return _refuted(L, checks, _form(L.case, L.k, "Bk"), MB, slice(None), "moment_matrix_pd")
    for name, which in (("localizing_chi1_pd", "Q0"), ("localizing_chi2_pd", "Q1")):
        form = _form(L.case, L.k, which)
        if form.chi == 0:
            continue
        m = form.matrix(beta)
        mg = linalg.psd_margin(m.known())
        checks.append(Check(name, "pd", mg >= tol.pd, mg))
        if mg < -tol.psd:
            return _refuted(L, checks, form, m, slice(None), name)
        if mg < tol.pd:
            borderline = True
    if ok and not borderline:
        return Decision("MomentFunctional", checks)
    return Decision("Inconclusive", checks,
                    note="singular data on a reducible case the theory leaves open")


# -- constructive singular data: the rank theorem, then a verified measure ---


def _singular(work, checks, prefix=""):
    """Decide singular psd data on a constructive case; the passing Decision or None.

    ``work`` is the lift of L - o_weight * delta_0, L its ``target``.  On a
    case with a rank theory (route lift or isolated) the rank restrictions
    and the record's extra lift check run on ``work``; with both sides psd
    they pass with branch ``prefix`` + rank_B or rank_V.  Otherwise a measure
    read off a flat completion of ``work`` that reproduces L to 1e-6 proves
    existence regardless of eigenvalue margins (branch constructive_witness;
    its check is kept only on a pass).  The rank checks of P5's lambda0:
    branch are named after it: rank_restriction_B_lambda0.
    """
    case = work.L.case
    if case.record.route in ("lift", "isolated"):
        name, root = case.record.lift_check(case.params) or (None, None)
        (okB, okV, *ok_first), sides = _rank_restrictions(
            work, checks, "_lambda0" if prefix == "lambda0:" else "",
            first=name if root is None else None)
        passed = ((okB or okV) and all(ok_first)
                  and all(linalg.psd_margin(S) >= -work.tol.psd for S in sides))
        if root is not None:
            ok_root, margin = _root_avoidance(work, root)
            checks.append(Check(name, "root-avoidance", ok_root, margin))
            passed = passed and ok_root
        if passed:
            return Decision("MomentFunctional", checks, lift=work,
                            singular_branch=prefix + ("rank_B" if okB else "rank_V"))
    try:
        _, resid = work.extract()
    except (ExtractionFailed, ArithmeticError, ValueError):  # LinAlgError is a ValueError
        return None
    checks.append(Check("constructive_witness", "residual", True, -resid))
    return Decision("MomentFunctional", checks,
                    note="borderline margins certified by an explicitly recovered measure",
                    singular_branch="constructive_witness", lift=work)


def _rank_restrictions(lift, checks, tag="", first=None):
    """The rank restrictions on the lifted matrix of a functional.

    The B side is the lift without the row that only V^(k) has, the V side
    the lift without the row that only B_k has.  Each side must keep its
    rank when the row the case record names (``rank_drops``; by default the
    last one) is dropped as well; ``first`` names one more check, on the B
    side without its first row.  Both sides must also be psd, which the
    caller tests on the side matrices returned.  Appends the checks, B and
    V then ``first``, and returns their verdicts and the two side matrices.
    """
    L, PM, tol = lift.L, lift.form, lift.tol
    bases = combined_lift(L.case, L.k)
    rows = [[i for i in range(PM.size) if i != d] for d in (bases.b_drop, bases.v_drop)]
    sides = [PM.restrict(r).known() for r in rows]
    ranks = [linalg.numeric_rank(S, tol.rank) for S in sides]
    drop_B, drop_V = L.case.record.rank_drops
    named = [(f"rank_restriction_B{tag}", 0, drop_B), (f"rank_restriction_V{tag}", 1, drop_V)]
    if first is not None:
        named.append((first, 0, 0))
    oks = []
    for name, s, drop in named:
        keep = [r for r in rows[s] if r != drop % PM.size]
        r_sub = linalg.numeric_rank(PM.restrict(keep).known(), tol.rank)
        oks.append(ranks[s] == r_sub)
        checks.append(Check(name, "rank-eq", oks[-1], float(r_sub - ranks[s])))
    return oks, sides


def _root_avoidance(lift, rd):
    """Whether the atoms' parameters of a singular psd completion keep away
    from +-rd, and the distance (inf when the completion is nonsingular)."""
    ivl = lift.completion.psd
    if ivl.empty:
        return False, -1.0
    v = ivl.midpoint()
    M = lift.form.with_value(v).known()
    if linalg.numeric_rank(M, lift.tol.rank) == M.shape[0]:
        return True, math.inf  # nothing to avoid
    dist = min((min(abs(t - rd), abs(t + rd)) for t in lift.nodes(v)), default=math.inf)
    return dist > 1e-6, dist


# -- isolated-point case -----------------------------------------------------


def _p5_shift(lift, lam):
    """The lift of L - lam * (evaluation at the isolated point (0,0)), with the
    split mass lam and the target L; at lam = 0 that functional is L, whose
    lift is ``lift`` itself.  The only maker of a lift with a split mass."""
    return _Lift(lift.L.perturbed({(0, 0): -lam}), lift.tol, lam, lift.L) if lam else lift


def _p5_lambda0(lift, lam0, checks):
    """The lambda0 branch: a point mass max(lam0, 0) at the origin, then the
    singular routine on the lift of L minus it; None when lam0 is clearly
    negative (nothing is tried) or the routine fails."""
    scale, tol = lift.L.scale(), lift.tol
    checks.append(Check("lambda0_nonneg", "pd", lam0 >= -tol.psd * scale, lam0 / scale))
    if lam0 < -tol.psd * scale:
        return None
    return _singular(_p5_shift(lift, max(lam0, 0.0)), checks, prefix="lambda0:")


def _decide_p5(L, beta, MB, mb, checks, tol):
    """Isolated-point engine: split off a point mass at the origin as needed.

    The localizing form over the tilde space is NOT a necessary condition
    here: a point mass at the origin may push it indefinite.  Necessary
    are the moment matrix, the common Schur block B, and b in range(B).  The
    unknown pair of the lift is its first two rows, so B is the block D of
    the lift's completion, whose Schur data give sigma1, sigma2 and the
    range residual of b.  The admissible point masses form [-sigma2, sigma1].
    """
    case = L.case
    lift = _Lift(L, tol, beta=beta)
    comp = lift.completion
    sigma1, sigma2, _, _, range_b = map(float, comp.schur)
    scale = L.scale()
    bpsd = comp.margin
    checks.append(Check("schur_block_psd", "psd", bpsd >= -tol.psd, bpsd))
    checks.append(Check("b_in_range", "range", range_b <= 1e-6 * scale, -range_b / scale))

    if mb < -tol.psd:
        return _refuted(L, checks, _form(case, L.k, "Bk"), MB, slice(None), "moment_matrix_pd")
    if bpsd < -tol.psd:
        # the Schur block over the tilde elements; the lift multiplier is 1
        return _refuted(L, checks, _form(case, L.k, "lift"),
                        SymmetricForm(list(lift.form.labels[2:]), comp.D), slice(2, None),
                        "schur_block_psd")
    if range_b > 1e-6 * scale:
        return Decision("Inconclusive", checks,
                        note="b outside the range of the Schur block")

    if mb >= tol.pd:
        checks.append(Check("sigma2_positive", "pd", sigma2 > -tol.psd * scale,
                            sigma2 / scale))
        if sigma2 > -tol.psd * scale:
            return Decision("MomentFunctionalOnNonIsolated", checks,
                            singular_branch="nonsingular", lift=lift)
        checks.append(Check("sigma1_exceeds_minus_sigma2", "pd",
                            sigma1 > -sigma2 - tol.psd * scale, (sigma1 + sigma2) / scale))
        if sigma1 > -sigma2 - tol.psd * scale:
            # the midpoint of the admissible masses [-sigma2, sigma1]
            w = max(0.5 * (sigma1 - sigma2), 0.0)
            return Decision("MomentFunctional", checks, singular_branch="origin_split",
                            lift=_p5_shift(lift, w))
        dec = _p5_lambda0(lift, sigma1, checks)
        if dec is not None:
            return dec
        # all three branches failed; with no witness, not even clear margins refute
        empty = "the point-mass interval at the isolated point is empty"
        if sigma1 < -tol.psd * scale:
            return _unrefuted(checks, empty, "lambda0_nonneg", tol.psd)
        if sigma1 + sigma2 < -1e-6 * scale:
            return _unrefuted(checks, empty, "sigma1_exceeds_minus_sigma2", 1e-6)
        return Decision("Inconclusive", checks, note="borderline isolated-point data")

    # singular moment matrix: prefer a measure avoiding the isolated point,
    # then the lambda0 point-mass branch of the singular theorem
    dec = _singular(lift, checks, prefix="no_origin:") or _p5_lambda0(lift, sigma1, checks)
    if dec is not None:
        return dec
    if sigma1 < -tol.psd * scale:
        return Decision("Inconclusive", checks,
                        note="singular moment matrix with negative point-mass weight")
    return Decision("Inconclusive", checks,
                    note="singular isolated-point data outside the theorem branches")


# -- smooth Weierstrass singular branch --------------------------------------


def _deg_c(i, j):
    return 2 * i + 3 * j


def _min_degc_kernel_vector(M, elements, tol):
    """Kernel element whose highest curve-degree coordinate is minimal."""
    K = linalg.kernel_basis(M, tol.rank)
    if K.shape[1] == 0:
        return None
    degs = []
    for e in elements:
        if e.kind == "rational":
            degs.append(1)  # y/x
        else:
            degs.append(_deg_c(*e.exps))
    order = np.argsort(-np.asarray(degs))  # highest degree first
    V = K[order, :].copy()
    # column-reduce so later columns have zeros in earlier (higher-deg) rows
    cols = V.shape[1]
    rowp = 0
    for c in range(cols):
        piv = None
        for r in range(rowp, V.shape[0]):
            col_abs = np.abs(V[r, c:])
            if col_abs.max() > 1e-12:
                piv = c + int(np.argmax(col_abs))
                break
        if piv is None:
            break
        V[:, [c, piv]] = V[:, [piv, c]]
        V[:, c] /= V[r, c]
        for cc in range(cols):
            if cc != c:
                V[:, cc] -= V[r, cc] * V[:, c]
        rowp = r + 1
    best = V[:, -1]
    out = np.zeros(len(elements))
    out[order] = best
    n = np.linalg.norm(out)
    return out / n if n > 0 else None


@lru_cache(maxsize=512)
def _extension_reductions(case: CurveCase, k: int):
    """normal_low(x^i y^j) for i + j <= 2k + 2, in graded order, compiled to
    (deg, coef): row r holds the curve degree and the coefficient of each term
    of the r-th reduction in the polynomial's order, padded at the end with
    coefficient -0.0 at degree 6k + 7 (x + -0.0 is x, so the padding leaves
    every sum unchanged)."""
    reds = [normal_low(_M(i, d2 - i), case).coeffs
            for d2 in range(0, 2 * (k + 1) + 1) for i in range(d2 + 1)]
    deg = np.full((len(reds), max(map(len, reds))), 6 * k + 7, dtype=np.intp)
    coef = np.full(deg.shape, -0.0)
    for r, p in enumerate(reds):
        deg[r, :len(p)] = [_deg_c(i, j) for i, j in p]
        coef[r, :len(p)] = list(p.values())
    deg.flags.writeable = coef.flags.writeable = False
    return deg, coef


def _extension_moments(case, k, vals):
    """The moments up to degree 2k + 2, in graded order, of the extension
    whose value at curve degree d is vals[d] (d = 0, 2, 3, ..., 6k + 6): each
    the sum over the terms c * vals[deg] of its reduction, from 0 and left
    to right, as the built-in sum adds them; the value 1 at degree 6k + 7
    scales the padding."""
    deg, coef = _extension_reductions(case, k)
    V = np.array([vals.get(d, 0.0) for d in range(6 * k + 7)] + [1.0])
    terms = np.hstack((np.zeros((len(deg), 1)), coef * V[deg]))
    return np.add.accumulate(terms, axis=1)[:, -1]


def _decide_elliptic_singular(L, MB, mb, MV, checks, tol):
    """Unique square-positive extension to level k+1 for P1/P2.

    The kernel element of least curve degree pins six new values through
    the orthogonality of its monomial multiples; below-window multiples
    give consistency residuals.  The data is a moment functional exactly
    when the system is consistent and the extended pair of matrices at
    level k+1 stays psd.  The extension lives at degree 2k+2, where no
    witness can be read against L, so a failure is Inconclusive.
    """
    case, k = L.case, L.k
    scale = L.scale()
    b_els = _form(case, k, "Bk").elements
    v_els = _form(case, k, "Vk").elements

    # the moment of each curve degree d: x^i y^j with i <= 2 is its own normal form
    vals = {d: L.beta[_mono_of_deg_c(d)] for d in range(6 * k + 1) if d != 1}

    extra_residuals = []
    if mb < tol.pd:
        vec = _min_degc_kernel_vector(MB.known(), b_els, tol)
        if vec is None:
            return Decision("Inconclusive", checks, note="no numerical kernel found")
        gen = BivarPoly.zero()
        for c, e in zip(vec, b_els):
            gen = gen + float(c) * e.rat.numerator
        gen = normal_low(gen, case)
        branch = "singular"
    else:
        vec = _min_degc_kernel_vector(MV.known(), v_els, tol)
        if vec is None:
            return Decision("Inconclusive", checks, note="no numerical kernel found")
        # gen = x * p_lgen is polynomial (x clears the y/x element)
        gen = BivarPoly.zero()
        for c, e in zip(vec, v_els):
            cleared = product_on_curve(e.rat, BivarPoly.const(1.0), BivarPoly.x(), case, k + 1)
            gen = gen + float(c) * cleared
        gen = normal_low(gen, case)
        branch = "locally_singular"
        # consistency relation from the rational tilde-element: L(y * p_lgen) = 0,
        # realized as L((y/x) * gen) with a polynomial representative.
        yrel = product_on_curve(gen, BivarPoly.const(1.0),
                                RationalElem(BivarPoly.y(), BivarPoly.x()), case, k + 1)
        if yrel is not None:
            extra_residuals.append(abs(L.value(yrel)))

    if gen.is_zero():
        return Decision("Inconclusive", checks, note="degenerate kernel element")
    dg = max(_deg_c(i, j) for (i, j) in gen.coeffs)
    new_ds = set(range(6 * k + 1, 6 * k + 7))
    resid_max = max(extra_residuals, default=0.0)
    for w in [w for w in range(0, 6 * k + 7 - dg) if w != 1]:
        prod = normal_low(_M(*_mono_of_deg_c(w)) * gen, case)
        acc = 0.0
        unk = {}
        for (i, j), c in prod.coeffs.items():
            d = _deg_c(i, j)
            if d in vals:
                acc += c * vals[d]
            else:
                unk[d] = unk.get(d, 0.0) + c
        if not unk:
            resid_max = max(resid_max, abs(acc))
            continue
        if len(unk) > 1:
            return Decision("Inconclusive", checks, note="coupled extension system")
        (d_new, coeff), = unk.items()
        if d_new not in new_ds or abs(coeff) < 1e-12:
            return Decision("Inconclusive", checks, note="degenerate extension system")
        vals[d_new] = -acc / coeff
    consistent = resid_max <= 1e-7 * scale
    checks.append(Check("extension_consistent", "residual", consistent,
                        -resid_max / scale))
    if not consistent:
        return _unrefuted(checks, "the unique singular extension is inconsistent with the data",
                          "extension_consistent", 1e-7)
    beta_ext = _extension_moments(case, k, vals)
    MB1 = _form(case, k + 1, "Bk").matrix(beta_ext)
    MV1 = _form(case, k + 1, "Vk").matrix(beta_ext)
    m1 = linalg.psd_margin(MB1.known())
    m2 = linalg.psd_margin(MV1.known())
    checks.append(Check("extension_moment_psd", "psd", m1 >= -tol.psd, m1))
    checks.append(Check("extension_localizing_psd", "psd", m2 >= -tol.psd, m2))
    if m1 >= -tol.psd and m2 >= -tol.psd:
        return Decision("MomentFunctional", checks,
                        singular_branch=f"elliptic_extension:{branch}")
    failed = "extension_moment_psd" if m1 < -tol.psd else "extension_localizing_psd"
    return _unrefuted(checks, "the unique extension fails positivity", failed, tol.psd)

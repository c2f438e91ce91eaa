"""Constructive system generators reaching the zero-count lower bounds.

Each generator builds a SystemSpec whose averaged function (first or second
order) provably attains a stated number of simple zeros in a known box.  A
spec is assembled from "slots": a slot is one (family, sign, component,
exponent) entry of a zone's coefficient table, and _spec_from_slots adds a
value to each.

Every generator solves on one slot set: every first-order entry of degree
<= n in both zones (avgcore._full_slots), with, at second order, its
second-order twin.  The first-order generators invert f_1's linear map on
the slots, avgcore's cached map written out as a matrix (_f1_matrix): row k
holds each slot's weight in one coefficient of f_1.  The matrix is solved
(least squares, minimum norm) against target polynomials with hand-placed
roots; an entry that reaches no target monomial stays zero.

The second-order generators are harder because f_2 is quadratic in the
first-order coefficients.  They build an exact algebraic surrogate

    coeffs(r*f_2) = Q(u) + L v

(u parametrizes the first-order tables inside the kernel of f_1 through the
slot values x = N u, v the second-order tables, which enter linearly).
Every first-order entry of degree <= n is a u-slot, and the v-slots are
their second-order twins in the same order.  One SVD of f_1's matrix A on
the u-slots (_kernel_split) gives N, a basis of its null space, and a basis
of the complement of its range.  At d = m a second-order entry enters
r*f_2 as 2r times the integral its first-order twin has in f_1, so L is 2A
with every row's monomial raised by r, and A's range is L's.  r*f_2's
quadratic part is read once, in slot coordinates, as the slot form S_slot
(_slot_form), kept as two zone blocks: each u-slot enters avgcore's
builder as one unit table entry tagged by the slot, and S_slot[a, b] is
the symmetrized bilinear form build_f2 integrates, its diagonal the form
itself.  The tuning's Q(u)_k = u^T S_k u has S = N^T S_slot N, never
formed: one contraction of the blocks (_slot_product) gives S u.  The
generators tune u by least squares against the exact target with
multistart, in the coordinates of P, an orthonormal basis of the
complement of L's range: the residual P^T (Q(u) - t) is the part of the
gap no v can absorb.  Each start runs a trust-region Gauss-Newton loop
(_gauss_newton) until it reaches its target or stalls; one that reaches it
is projected onto the row space of its Jacobian, the minimum-norm point of
the linearized solution set, and run once more from there.  v comes from a
linear solve.  Every converged start is re-verified against the real
build_f1/build_f2 pipeline and certified by root search; one that fails
either is recorded as an "undercount" and the tuning moves on to its next
start.  gen_th4
realizes a prescribed reduced system by two linear fits on the same
surrogate: its Q map is (S_slot h) N, h a fixed angular part over the
u-slots, and its P map L / 2 = A against r*P.  The generators call
build_f1 and build_f2 only to re-verify what they built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .avgcore import (_f1_map, _full_slots, _jacobian_terms, _mono_grid, _quadratic_rf2, _slot_terms,
                      _zone_kernels, build_f1, build_f2)
from .polyalg import Poly, PolyVec
from .rootfind import SearchBox, find_simple_zeros
from .sysspec import FIRST_ORDER, SECOND_ORDER, SystemSpec, zero_spec
from .trigkernel import TWO_PI

LINEAR_TOL = 1e-9
VERIFY_TOL = 1e-8
TUNING_STARTS = 8  # multistart count of the second-order least squares
STALL_WINDOW = 100  # iterations over which a tuning start's best misfit must halve


class InfeasibleTargetError(RuntimeError):
    """The requested target polynomials are outside the coefficient map's image."""


class ConstructionError(RuntimeError):
    """A generator gave up on a target it has no proof against.

    Raised when tuning stalls, too few zeros certify, the tuned spec fails
    its re-verification, or the generator's own slots miss a target
    monomial.  Unlike InfeasibleTargetError it is a failure, not a verdict.
    """


def _spec_from_slots(n, m, phi, slots, values) -> SystemSpec:
    """Spec with d = m whose tables are the sums of the values over their slots.

    A slot is (family, sign, ell, idx), ell None for scalar families; values
    are added in order, so a slot may appear more than once.
    """
    spec = zero_spec(n, m, m, phi)
    for (fam, sign, ell, idx), val in zip(slots, values):
        if val != 0.0:
            table = spec.table(fam, sign, ell)
            table.set(idx, table.get(idx) + float(val))
    return spec


def _require_generic_angle(name: str, phi: float):
    if abs(phi - math.pi) < 1e-9 or phi >= TWO_PI - 1e-9 or phi <= 0:
        raise ValueError(f"{name} needs phi in (0, 2*pi) away from pi and 2*pi")


@dataclass
class GeneratorResult:
    """A constructed spec plus everything needed to certify its zero count."""

    spec: SystemSpec
    order: int
    system: PolyVec  # f_1 (order 1) or r*f_2 (order 2)
    expected_count: int
    box: SearchBox
    zeros: list = field(default_factory=list)  # known/certified zero locations
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# root placement helpers
# ---------------------------------------------------------------------------


def positive_nodes(count: int) -> list:
    """Distinct positive radii, well separated inside (0.4, 1.7)."""
    lo, hi = 0.4, 1.7
    return [lo + (hi - lo) * (k + 0.5) / count for k in range(count)]


def symmetric_nodes(count: int, offset: float = 0.0) -> list:
    """Distinct nodes, well separated inside (-0.95, 0.95), shifted by offset."""
    half = 0.95
    return [-half + 2 * half * (k + 0.5) / count + offset for k in range(count)]


def poly_from_roots(nvars: int, var: int, roots, square_var: bool = False, shift: tuple = ()) -> Poly:
    """prod (x_var - root), or prod (x_var^2 - root); optionally times a monomial."""
    out = Poly.constant(nvars, 1.0)
    x = Poly.variable(nvars, var)
    base = x * x if square_var else x
    for root in roots:
        out = out * (base - Poly.constant(nvars, float(root)))
    for v, e in enumerate(shift):
        for _ in range(e):
            out = out * Poly.variable(nvars, v)
    return out


def default_box(m: int) -> SearchBox:
    return SearchBox([0.05] + [-1.25] * m, [2.1] + [1.25] * m)


# ---------------------------------------------------------------------------
# linear engine (first-order targets)
# ---------------------------------------------------------------------------


def _poly_vec_to_coeffs(pv: PolyVec, monos: list) -> np.ndarray:
    out = np.zeros(len(monos))
    for k, (ci, mono) in enumerate(monos):
        out[k] = pv[ci].terms.get(mono, 0.0)
    return out


def _monomial_basis(pvs) -> list:
    """Sorted (component, monomial) pairs appearing in any of the PolyVecs."""
    return sorted({(ci, mo) for pv in pvs for ci, p in enumerate(pv) for mo in p.terms})


def _f1_matrix(n, m, phi):
    """avgcore's map of f_1 as a matrix on the first-order slots, and its row keys (component, monomial)."""
    f1map = _f1_map(n, m, phi)
    A = np.zeros((len(f1map.keys), len(f1map.slots)))
    A[f1map.row, f1map.col] = f1map.weight
    return A, list(f1map.keys)


def _fit_linear(A, keys, target: PolyVec, message: str) -> np.ndarray:
    """Least-squares weights x with A x = the target's coefficients on the row keys.

    Target monomials outside ``keys`` count as rows A cannot reach.  Raises
    InfeasibleTargetError when the coefficient residual exceeds LINEAR_TOL
    (relative to the target's largest coefficient); ``message`` is formatted
    with the residual ``resid``, the map's ``rank`` and its ``shape``.
    """
    outside = sorted(set(_monomial_basis([target])) - set(keys))
    A = np.vstack([A, np.zeros((len(outside), A.shape[1]))])
    b = _poly_vec_to_coeffs(target, list(keys) + outside)
    x = np.linalg.lstsq(A, b, rcond=None)[0] if A.size else np.zeros(A.shape[1])
    resid = float(np.max(np.abs(A @ x - b), initial=0.0))
    if resid > LINEAR_TOL * max(1.0, np.max(np.abs(b), initial=0.0)):
        rank = np.linalg.matrix_rank(A) if A.size else 0
        raise InfeasibleTargetError(message.format(resid=resid, rank=rank, shape=A.shape))
    return x


def _fit_linear_f1(n, m, phi, target: PolyVec):
    """Solve for the first-order slot values so that f_1 matches the target; re-verified by build_f1."""
    sol = _fit_linear(*_f1_matrix(n, m, phi), target, "first-order target not in coefficient-map "
                      "image: residual {resid:.3e}, matrix rank {rank} of {shape}")
    spec = _spec_from_slots(n, m, phi, _full_slots(n, m, FIRST_ORDER), sol)
    f1 = build_f1(spec)
    worst = max((p - q).max_coeff() for p, q in zip(f1, target))
    if worst > 10 * LINEAR_TOL * max(1.0, max(q.max_coeff() for q in target)):
        raise ConstructionError(f"re-verification failed: coefficient error {worst:.3e}")
    return spec, f1


def _grid_zeros(axis_roots):
    """Cartesian product of per-axis root lists -> list of points."""
    return [np.array(p) for p in itertools.product(*axis_roots)]


def _first_order_product(n, m, phi) -> GeneratorResult:
    """n^(m+1) zeros from decoupled targets: radial component in r, component l in z_l."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nv = m + 1
    r_roots = positive_nodes(n)
    targets = [poly_from_roots(nv, 0, r_roots)]
    axis_roots = [r_roots]
    for ell in range(1, m + 1):
        s_roots = symmetric_nodes(n, offset=0.013 * ell)
        targets.append(poly_from_roots(nv, ell, s_roots))
        axis_roots.append(s_roots)
    spec, f1 = _fit_linear_f1(n, m, phi, PolyVec(targets))
    return GeneratorResult(spec, 1, f1, n ** (m + 1), default_box(m), _grid_zeros(axis_roots))


def gen_prop10(n: int, m: int, phi: float) -> GeneratorResult:
    """First-order spec with n^(m+1) certified simple zeros (generic phi)."""
    _require_generic_angle("gen_prop10", phi)
    return _first_order_product(n, m, phi)


def gen_prop16(n: int, m: int) -> GeneratorResult:
    """First-order spec at the half-turn switching angle, n^(m+1) zeros."""
    return _first_order_product(n, m, math.pi)


def first_order_count(n: int, m: int, phi: float) -> int:
    """Attainable simple-zero count of f_1 per switching-angle regime."""
    if abs(phi - TWO_PI) < 1e-9:
        if m == 0:
            return (n - 1) // 2 if n % 2 else (n - 2) // 2
        return n**m * (n - 1) // 2
    return n ** (m + 1)


def gen_prop20(n: int, m: int) -> GeneratorResult:
    """First-order spec in the continuous case (full-turn switching angle).

    The radial equation always factors as r times an even polynomial; for
    even n and m >= 1 the roles permute (the radial component carries the z_1
    roots and the first z-component carries the even radial polynomial),
    which is what makes the count n^m (n-1)/2 attainable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = TWO_PI
    nv = m + 1
    expected = first_order_count(n, m, phi)
    targets = []
    axis_roots = []
    notes = {}
    if m == 0 or n % 2 == 1:
        npairs = (n - 1) // 2 if n % 2 else (n - 2) // 2
        rho = [v**2 for v in positive_nodes(npairs)]
        targets.append(poly_from_roots(nv, 0, rho, square_var=True, shift=(1,) + (0,) * m))
        axis_roots.append([math.sqrt(v) for v in rho])
        for ell in range(1, m + 1):
            s_roots = symmetric_nodes(n, offset=0.013 * ell)
            targets.append(poly_from_roots(nv, ell, s_roots))
            axis_roots.append(s_roots)
    else:
        # even n, m >= 1: radial equation solves z_1, first z-equation solves r
        z1_roots = symmetric_nodes(n - 1, offset=0.017)
        targets.append(poly_from_roots(nv, 1, z1_roots, shift=(1,) + (0,) * m))
        rho = [v**2 for v in positive_nodes(n // 2)]
        targets.append(poly_from_roots(nv, 0, rho, square_var=True))
        axis_roots.append([math.sqrt(v) for v in rho])
        axis_roots.append(z1_roots)
        notes["role_permutation"] = "radial component carries z_1 roots; component 1 carries radial roots"
        for ell in range(2, m + 1):
            s_roots = symmetric_nodes(n, offset=0.013 * ell)
            targets.append(poly_from_roots(nv, ell, s_roots))
            axis_roots.append(s_roots)
    spec, f1 = _fit_linear_f1(n, m, phi, PolyVec(targets))
    zeros = _grid_zeros(axis_roots) if all(axis_roots) else []
    return GeneratorResult(spec, 1, f1, expected, default_box(m), zeros, notes)


# ---------------------------------------------------------------------------
# quadratic engine (second-order targets)
# ---------------------------------------------------------------------------


def _kernel_split(n, m, phi):
    """f_1's map on the first-order slots, split by one SVD: (A, keys, N, C).

    A and keys are _f1_matrix's, without the rows whose weights are all
    zero.  N's columns span A's null space (the slot values that keep f_1
    zero), C's columns the orthogonal complement of A's range in the row
    keys; one rank rule, s > 1e-12 * s_0, sets both.
    """
    A, keys = _f1_matrix(n, m, phi)
    live = np.any(A != 0.0, axis=1)
    A, keys = A[live], [key for key, on in zip(keys, live) if on]
    U, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return A, keys, Vt[rank:].T, U[:, rank:]


def _slot_form(n, m, phi, uslots):
    """r*f_2's quadratic part as a symmetric bilinear form S_slot on the unit u-slots: (keys, zones).

    S_slot is kept as one block per zone, (idx, rows, X): X[k, a, b] is the
    coefficient of keys[rows[k]] = (component, monomial) in (B(e_a, e_b) +
    B(e_b, e_a)) / 2 over the zone's slots uslots[idx], so X[k] is exactly
    symmetric with B(e_a, e_a) itself on the diagonal; the sorted keys hold
    every nonzero coefficient.  Each slot is one unit table entry tagged by
    its place in the zone, and one avgcore._quadratic_rf2 gives the zone's
    pairs.  At d = m there is no slave term, so "+" and "-" slots never meet.
    """
    base, monos = zero_spec(n, m, m, phi), _mono_grid(n, m)[0]
    Q, zones = _zone_kernels(base)[0], []
    for z, sign in enumerate("+-"):
        idx = np.flatnonzero([slot[1] == sign for slot in uslots])
        terms = _slot_terms([uslots[k] for k in idx])
        X = _quadratic_rf2(base, Q, np.full(len(idx), z), terms, _jacobian_terms(n, m, terms))
        X = X.reshape(len(idx), len(idx), -1).transpose(2, 0, 1)  # one block row per (component, monomial)
        keep = np.flatnonzero(X.any(axis=(1, 2)))
        zones.append((idx, [(k // len(monos), monos[k % len(monos)]) for k in keep], X[keep]))
    keys = sorted(set().union(*(zkeys for _, zkeys, _ in zones)))
    pos = {key: k for k, key in enumerate(keys)}
    return keys, [(idx, np.array([pos[key] for key in zkeys], dtype=np.intp), X) for idx, zkeys, X in zones]


def _slot_product(zones, x, N, nrows) -> np.ndarray:
    """Row k is x^T S_slot,k N = N^T S_slot,k x, zone by zone; ``zones`` are _slot_form's, rows out of nrows."""
    out = np.zeros((nrows, N.shape[1]))
    for idx, rows, X in zones:
        out[rows] += (x[idx] @ X) @ N[idx]
    return out


class _QuadModel:
    """Exact surrogate coeffs(r*f_2) = Q(u) + L v over a fixed monomial basis.

    The u-slots are every first-order entry of degree <= n, and x = N u keeps
    f_1 zero.  Q_k(u) = x^T S_slot,k x, S_slot kept as _slot_form's zone
    blocks, their rows placed on monos.  The v-slots are their second-order
    twins: at d = m a twin enters r*f_2 as 2r times the integral its
    first-order entry has in f_1, so L is 2A (A being f_1's matrix on the
    u-slots) with each row moved from its monomial to r times it.  The SVD
    that gives N also gives P, an orthonormal basis of the orthogonal
    complement of L's range: A's complement on L's rows, and a unit column
    for every monomial L never reaches.
    """

    def __init__(self, n, m, phi):
        self.n, self.m, self.phi = n, m, phi
        self.uslots = _full_slots(n, m, FIRST_ORDER)
        self.vslots = _full_slots(n, m, SECOND_ORDER)  # vslots[k] is uslots[k]'s twin
        A, keys, self.N, C = _kernel_split(n, m, phi)
        self.udim = self.N.shape[1]
        qkeys, zones = _slot_form(n, m, phi, self.uslots)
        # L is 2A with every row key raised by r (see the class docstring)
        lkeys = [(ci, (mo[0] + 1,) + mo[1:]) for ci, mo in keys]
        self.monos = sorted(set(lkeys).union(qkeys))
        self.pos = {mo: k for k, mo in enumerate(self.monos)}
        qrows = np.array([self.pos[key] for key in qkeys], dtype=np.intp)
        self.zones = [(idx, qrows[rows], X) for idx, rows, X in zones]
        rows = [self.pos[key] for key in lkeys]
        self.L = np.zeros((len(self.monos), len(self.vslots)))
        self.L[rows] = 2.0 * A
        free = np.ones(len(self.monos), dtype=bool)  # the monomials L never reaches
        free[rows] = False
        self.P = np.zeros((len(self.monos), C.shape[1] + np.count_nonzero(free)))  # see the class docstring
        self.P[rows, : C.shape[1]] = C
        self.P[free, C.shape[1]:] = np.eye(np.count_nonzero(free))

    def _Su(self, u) -> np.ndarray:  # S u, S = N^T S_slot N
        return _slot_product(self.zones, self.N @ u, self.N, len(self.monos))

    def quad(self, u) -> np.ndarray:
        return self._Su(u) @ u

    def residual(self, u, t):
        """P^T (Q(u) - t) and its exact Jacobian 2 P^T S u, from one S u.

        In P's coordinates the residual is the part of Q(u) - t no choice of
        v can absorb: P P^T (Q(u) - t) is the gap left after L v's best fit.
        """
        PtSu = self.P.T @ self._Su(u)
        return PtSu @ u - self.P.T @ t, 2.0 * PtSu

    def solve_v(self, u, t) -> np.ndarray:
        v, *_ = np.linalg.lstsq(self.L, t - self.quad(u), rcond=None)
        return v

    def assemble(self, uvec, vvec) -> SystemSpec:
        return _spec_from_slots(self.n, self.m, self.phi, self.uslots + self.vslots,
                                np.concatenate([self.N @ uvec, vvec]))

    def target_vector(self, target: PolyVec):
        leftover = [((ci, mo), c) for ci, p in enumerate(target) for mo, c in p.terms.items()
                    if (ci, mo) not in self.pos]
        if leftover:
            raise ConstructionError(f"target contains monomials outside the reachable support: {leftover[:4]}")
        return _poly_vec_to_coeffs(target, self.monos)


class _StopRule:
    """Callback of _gauss_newton ending a start at its target misfit or on a stall.

    It is called with the residual P^T (Q(u) - t) after each accepted step.
    The misfit is the largest coefficient of P times it, the gap that the
    best L v leaves in monomial coordinates.  A start stalls when its best
    misfit has not halved over the last STALL_WINDOW iterations.
    """

    def __init__(self, P, target):
        self.P, self.target = P, target
        self.best = []  # best misfit after each iteration
        self.reason = None

    def misfit(self, residual) -> float:
        return float(np.max(np.abs(self.P @ residual), initial=0.0))

    def __call__(self, residual):
        err = self.misfit(residual)
        self.best.append(min(err, self.best[-1]) if self.best else err)
        if err < self.target:
            self.reason = "target"
        elif len(self.best) > STALL_WINDOW and self.best[-1] > 0.5 * self.best[-1 - STALL_WINDOW]:
            self.reason = "stall"
        if self.reason:
            raise StopIteration


def _rank(s, shape) -> int:
    """How many of the descending singular values s of a shape-sized matrix pass lstsq's default rank rule."""
    return int(np.sum(s > np.finfo(float).eps * max(shape) * s[0]))


def _trust_step(uf, s, Vt, radius, alpha):
    """Minimizer of |J p + f| over |p| <= radius, with J = U diag(s) Vt and uf = U^T f; returns (p, alpha).

    The Gauss-Newton step -pinv(J) f (alpha = 0) when it fits, else the
    boundary point p(alpha) = -V (s uf / (s^2 + alpha)), alpha solving
    |p(alpha)| = radius by Moré's safeguarded Newton iteration on 1/|p|
    (to 1% of the radius, at most 10 steps), warm-started from ``alpha``.
    """
    p = -(Vt.T @ (uf / s))
    if np.linalg.norm(p) <= radius:
        return p, 0.0
    suf = s * uf

    def phi(a):  # |p(a)| - radius and its derivative in a
        d = s**2 + a
        norm = np.linalg.norm(suf / d)
        return norm - radius, -np.sum(suf**2 / d**3) / norm

    val, der = phi(0.0)
    lower, upper = -val / der, np.linalg.norm(suf) / radius
    for _ in range(10):
        if not lower <= alpha <= upper:
            alpha = max(1e-3 * upper, math.sqrt(lower * upper))
        val, der = phi(alpha)
        if val < 0:
            upper = alpha
        lower = max(lower, alpha - val / der)
        alpha -= (val + radius) / radius * val / der
        if abs(val) < 0.01 * radius:
            break
    p = -(Vt.T @ (suf / (s**2 + alpha)))
    return p * (radius / np.linalg.norm(p)), alpha


def _gauss_newton(fun, x, callback, max_nfev=4000):
    """Minimize |f(x)|^2 from x by trust-region Gauss-Newton; returns (x, nfev, status).

    Moré's Levenberg-Marquardt (LNM 630, 1978) on a dense Jacobian: one SVD
    per accepted point, each trial the exact step of _trust_step.  A trial
    is accepted when it lowers the cost; the radius starts at |x|, is cut
    to a quarter of the step when the cost falls by less than a quarter of
    the model's prediction, and doubles when it falls by more than three
    quarters on a step at the boundary.  ``fun(x)`` returns the residual f
    and its Jacobian J, and ``callback(f)`` runs after each accepted step.
    status is "callback" when it raised StopIteration, "converged" when the
    cost fell by less than tol * cost or the step was shorter than
    tol * (tol + |x|), tol = 3e-16, and "max_nfev" when fun ran max_nfev
    times.
    """
    tol = 3e-16
    f, J = fun(x)
    cost, nfev, alpha = f @ f, 1, 0.0
    radius = float(np.linalg.norm(x)) or 1.0
    while True:
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        rank = _rank(s, J.shape)
        uf, s, Vt = (U.T @ f)[:rank], s[:rank], Vt[:rank]
        while True:
            if nfev >= max_nfev:
                return x, nfev, "max_nfev"
            step, alpha = _trust_step(uf, s, Vt, radius, alpha)
            x_new = x + step
            f_new, J_new = fun(x_new)
            cost_new, nfev = f_new @ f_new, nfev + 1
            ds = s * (Vt @ step)
            predicted, actual = -(ds @ (ds + 2.0 * uf)), cost - cost_new
            rho = actual / predicted if predicted > 0 else 0.0
            step_norm = float(np.linalg.norm(step))
            converged = (actual < tol * cost and rho > 0.25
                         or step_norm < tol * (tol + np.linalg.norm(x)))
            if rho > 0:
                x, f, J, cost = x_new, f_new, J_new, cost_new
                try:
                    callback(f)
                except StopIteration:
                    return x, nfev, "callback"
            if converged:
                return x, nfev, "converged"
            new_radius = radius
            if not rho >= 0.25:  # also when fun(x + step) is not finite
                new_radius = 0.25 * step_norm
            elif rho > 0.75 and step_norm > 0.95 * radius:
                new_radius = 2.0 * radius
            alpha, radius = alpha * radius / new_radius, new_radius
            if rho > 0:
                break


def _tune_start(model: _QuadModel, t, u0, stop_at):
    """One tuning start from u0: (u, nfev, reason, misfit), reason "target", "stall" or "max_nfev".

    Gauss-Newton runs on the residual until the _StopRule or the loop's own
    tests end it.  A start that reaches its target is projected onto the row
    space of J(u), the minimum-norm point of the linearized solution set, and
    run again from there; the second point is kept only if it reaches the
    target too, and nfev counts both runs.  When L's range leaves no
    complement the target is met at u = 0 and nothing runs.  A LinAlgError
    in the first run ends the start as a stall at its best misfit so far; in
    the second, it keeps the first point.
    """
    if model.P.shape[1] == 0:
        return np.zeros(model.udim), 0, "target", 0.0
    nfev = 0

    def fun(u):
        nonlocal nfev
        nfev += 1
        return model.residual(u, t)

    def run(u):
        rule = _StopRule(model.P, stop_at)
        try:
            u, _, status = _gauss_newton(fun, u, rule)
        except np.linalg.LinAlgError:
            return None, "stall", rule.best[-1] if rule.best else rule.misfit(model.residual(u, t)[0])
        err = rule.misfit(model.residual(u, t)[0])
        if status == "max_nfev":
            return u, "max_nfev", err
        # the rule's verdict, or the loop's cost/step test: no more progress
        return u, rule.reason or ("target" if err < stop_at else "stall"), err

    u, reason, err = run(u0)
    if reason == "target":
        try:
            J = model.residual(u, t)[1]
            _, s, Vt = np.linalg.svd(J, full_matrices=False)
            Vt = Vt[: _rank(s, J.shape)]
            second = run(Vt.T @ (Vt @ u))
        except np.linalg.LinAlgError:
            second = (None, "stall", math.inf)
        if second[1] == "target":
            u, reason, err = second
    return u, nfev, reason, err


def _tune_quadratic(model: _QuadModel, target: PolyVec, starts: list, expected=0, seed=0):
    """Multistart least squares on u; returns (spec, rf2, misfit, zeros).

    Each start is one _tune_start; one whose misfit is below LINEAR_TOL *
    scale has converged.  Every converged start is re-verified against the
    real build_f1/build_f2 pipeline and its simple zeros certified in the
    default box; the first with at least ``expected`` of them wins.  Each
    start appends {"reason", "nfev", "misfit"} to ``starts``, its reason
    being how it stopped ("target", "stall" or "max_nfev") or "undercount"
    for a converged start whose spec failed its re-verification or
    certified too few zeros; a successful tuning's winning start is the
    last one appended.  With no complement of L's range every start would
    be u = 0, so there is one.
    """
    t = model.target_vector(target)
    rng = default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(t), initial=0.0)))
    stop_at = 1e-3 * LINEAR_TOL * scale
    best = math.inf
    rejected = None
    for trial in range(TUNING_STARTS if model.P.shape[1] else 1):
        u0 = rng.normal(scale=1.0 + 0.5 * (trial % 3), size=model.udim)
        u, nfev, reason, err = _tune_start(model, t, u0, stop_at)
        best = min(best, err)
        tuned = None
        if u is not None and err < LINEAR_TOL * scale:
            try:
                tuned = _certify_tuned(model, u, t, scale, expected)
            except ConstructionError as exc:
                rejected, reason = exc, "undercount"
        starts.append({"reason": reason, "nfev": nfev, "misfit": err})
        if tuned is not None:
            return tuned
    if rejected is not None:
        raise rejected
    raise ConstructionError(
        f"second-order tuning stalled: coefficient misfit {best:.3e} "
        f"(target scale {scale:.3g}, {model.udim} quadratic + {len(model.monos) - model.P.shape[1]} linear unknowns)"
    )


def _certify_tuned(model: _QuadModel, u, t, scale, expected):
    """Re-verify a converged start against the real pipeline and certify its zeros."""
    v = model.solve_v(u, t)
    spec = model.assemble(u, v)
    f1 = build_f1(spec)
    worst_f1 = max(p.max_coeff() for p in f1.components)
    if worst_f1 > 1e-9:
        raise ConstructionError(f"tuned spec violates the first-order kernel: |f_1| = {worst_f1:.3e}")
    rf2 = build_f2(spec, check_f1=False)
    want = {key: t[k] for key, k in model.pos.items()}
    keys = {(ci, mo) for ci, p in enumerate(rf2) for mo in p.terms} | set(want)
    misfit = max((abs(rf2[ci].terms.get(mo, 0.0) - want.get((ci, mo), 0.0)) for ci, mo in keys), default=0.0)
    if misfit > VERIFY_TOL * scale:
        raise ConstructionError(f"surrogate/pipeline disagreement: {misfit:.3e}")
    zeros = [rec.nu for rec in find_simple_zeros(rf2, default_box(model.m)) if rec.simple]
    if len(zeros) < expected:
        raise ConstructionError(f"tuned system certified only {len(zeros)} of {expected} zeros")
    return spec, rf2, misfit, zeros


def second_order_lower_bound(n: int, m: int, phi: float) -> int:
    """Attainable simple-zero count of f_2 per switching-angle regime."""
    if abs(phi - math.pi) < 1e-9:
        return (2 * n - 1) ** (m + 1) if n % 2 else (2 * n - 2) * (2 * n - 1) ** m
    if abs(phi - TWO_PI) < 1e-9:
        if m != 0:
            raise ValueError("continuous-case second-order count is stated for m = 0")
        return n if n % 2 == 0 else n - 1
    return 2 * n * (2 * n - 1) ** m


def second_order_upper_bound(n: int, m: int) -> int:
    return (2 * n) ** (m + 1)


def _second_order_generator(n, m, phi, expected, target, seed=0):
    """Shared driver: tune, re-verify, and certify one second-order target."""
    model = _QuadModel(n, m, phi)
    if model.udim == 0:
        raise InfeasibleTargetError("kernel constraints leave no first-order freedom")
    starts = []
    spec, rf2, misfit, zeros = _tune_quadratic(model, target, starts, expected, seed=seed)
    return GeneratorResult(spec, 2, rf2, expected, default_box(m), zeros, {"misfit": misfit, "starts": starts})


def _mixed_targets(n, m, n_radial, n_z, radial_shift=0):
    """comp 0: product over positive radii; comp l: product over z_l roots, with no radial factor."""
    nv = m + 1
    targets = [poly_from_roots(nv, 0, positive_nodes(n_radial), shift=(radial_shift,) + (0,) * m)]
    for ell in range(1, m + 1):
        s_roots = symmetric_nodes(n_z, offset=0.019 * ell)
        targets.append(poly_from_roots(nv, ell, s_roots))
    return PolyVec(targets)


def gen_prop12(n: int, m: int, phi: float, seed: int = 0) -> GeneratorResult:
    """Kernel spec whose f_2 attains 2n(2n-1)^m simple zeros (generic phi)."""
    _require_generic_angle("gen_prop12", phi)
    expected = second_order_lower_bound(n, m, phi)
    target = _mixed_targets(n, m, 2 * n, 2 * n - 1)
    return _second_order_generator(n, m, phi, expected, target, seed=seed)


def gen_cor13(n: int, phi: float, seed: int = 0) -> GeneratorResult:
    """m = 1 kernel spec whose f_2 attains the full (2n)^2 simple zeros.

    The same slots as gen_prop12(n, 1), with a z-component target of degree
    2n in z_1 alone instead of 2n - 1, giving a grid of (2n)^2 zeros.
    """
    _require_generic_angle("gen_cor13", phi)
    expected = (2 * n) ** 2
    target = _mixed_targets(n, 1, 2 * n, 2 * n)
    return _second_order_generator(n, 1, phi, expected, target, seed=seed)


def gen_prop18(n: int, m: int, seed: int = 0) -> GeneratorResult:
    """Kernel spec at the half-turn angle reaching the parity-reduced count.

    The radial polynomial r*f_20 always has a root at r = 0 here (its
    constant term cancels identically under the kernel constraints), leaving
    2n-1 free radial roots for n odd and 2n-2 for n even.
    """
    phi = math.pi
    expected = second_order_lower_bound(n, m, phi)
    n_r = 2 * n - 1 if n % 2 else 2 * n - 2
    target = _mixed_targets(n, m, n_r, 2 * n - 1, radial_shift=1)
    return _second_order_generator(n, m, phi, expected, target, seed=seed)


def gen_prop21(n: int, seed: int = 0, target_count: int | None = None) -> GeneratorResult:
    """m = 0 kernel spec in the continuous (full-turn) case.

    The radial polynomial r*f_20 here is even in r and divisible by r^2: its
    constant term and all odd-power coefficients cancel identically under the
    full-period integral kernels (verified against the direct quadrature
    oracle, including with extra tail directions d > m).  That caps the
    attainable simple-zero count at n - 1 for every n.  The stated bound for
    even n is n, which lies outside the reachable coefficient span; asking
    for it raises InfeasibleTargetError.  Pass ``target_count=n-1`` to build
    the best attainable system instead.
    """
    phi = TWO_PI
    expected = second_order_lower_bound(n, 0, phi) if target_count is None else target_count
    attainable = n - 1
    if expected > attainable:
        raise InfeasibleTargetError(
            f"continuous-case radial polynomial r*f_20 spans only the even powers "
            f"r^2..r^{2 * n}, allowing at most {attainable} positive simple zeros; "
            f"{expected} requested (the extreme coefficients cancel identically "
            f"under the kernel constraints)"
        )
    rho = [v**2 for v in positive_nodes(expected)]
    target = PolyVec([poly_from_roots(1, 0, rho, square_var=True, shift=(2,))])
    return _second_order_generator(n, 0, phi, expected, target, seed=seed)


# ---------------------------------------------------------------------------
# reduced polynomial system realization
# ---------------------------------------------------------------------------


def _angular_part(m, uslots) -> np.ndarray:
    """gen_th4's order-one angular part h as a vector over the u-slots: A_1^+ = 1/2, A_1^- = -1/2.

    Its radial part is zero (X_a = -y*H, X_b = x*H picks the angular
    direction only), so it contributes nothing to f_1, and its four entries
    have degree 1, so they are u-slots for every n >= 1.
    """
    values = {}
    for sign, h in (("+", 0.5), ("-", -0.5)):
        values["a", sign, None, (0, 1) + (0,) * m] = -h
        values["b", sign, None, (1, 0) + (0,) * m] = h
    return np.array([values.get(slot, 0.0) for slot in uslots])


def gen_th4(P_polys, Q_polys, phi: float, delta: float = 1e-3, n: int | None = None) -> GeneratorResult:
    """Realize the reduced system r*P_l(nu) + Q_l(nu) = 0 through f_2.

    Scales the tail/radial perturbations by delta against an order-one
    angular perturbation split across the two zones, so that
    r*f_2l / (2*delta) = r*P_l + Q_l + O(delta).  Every first- and
    second-order table entry of total degree <= n is a slot, so any P_l of
    degree <= n and any Q_l = r * (degree <= n) is realizable.  The Q_l
    targets must be divisible by r (the angular factor always carries one
    power of r); a target outside the image raises InfeasibleTargetError
    with rank info.
    """
    m = len(P_polys) - 1
    if m < 1:
        raise ValueError("need at least two components (m >= 1)")
    if len(Q_polys) != m + 1:
        raise ValueError("P and Q must have the same number of components")
    nv = m + 1
    if n is None:
        n = max([1] + [p.degree() for p in P_polys] + [q.degree() - 1 for q in Q_polys])
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_generic_angle("gen_th4", phi)
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")

    # Q map: the angular part contributes nothing to f_1 (h = N N^T h), so
    # the kernel constraints involve only the delta-scaled part.  r*f_2 at
    # the slot values h + delta*x is Q(h) + 2 delta x^T S_slot h + O(delta^2)
    # and Q(h) = 0, so r*f_2 / (2 delta) reads x through S_slot h.  P map: a
    # second-order twin enters r*f_2 through L = 2A, so L / 2 reads r*P.
    model = _QuadModel(n, m, phi)
    h = _angular_part(m, model.uslots)
    q_target = PolyVec([Poly(nv, dict(q.terms)) for q in Q_polys])
    rp_target = PolyVec([Poly.variable(nv, 0) * Poly(nv, dict(p.terms)) for p in P_polys])
    u = _fit_linear(_slot_product(model.zones, h, model.N, len(model.monos)), model.monos, q_target,
                    "Q target not realizable: residual {resid:.3e}, map rank {rank} of {shape}; "
                    "note Q_l must be divisible by r")
    v = _fit_linear(model.L / 2, model.monos, rp_target,
                    "P target not realizable: residual {resid:.3e}, map rank {rank} of {shape}")
    spec = model.assemble(model.N.T @ h + delta * u, delta * v)
    rf2 = build_f2(spec)
    reduced = PolyVec([rp + q for rp, q in zip(rp_target, q_target)])
    normalized = PolyVec([p.scaled(0.5 / delta) for p in rf2])
    return GeneratorResult(
        spec, 2, rf2, 0, default_box(m),
        notes={"delta": delta, "reduced_system": reduced, "scale": 2.0 * delta,
               "normalized": normalized},
    )

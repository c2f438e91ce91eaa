"""Direct integration of the discontinuous perturbed system.

The system is integrated in the angle variable theta, where the right-hand
side is the perturbed field divided by the angular speed 1 + eps*A_1 +
eps^2*B_1.  The two smooth zones meet at the coordinate planes theta = 0 and
theta = phi (mod 2*pi), so the switching is handled exactly by splitting the
integration span there — no event detection is needed.

Each zone carries a smooth polynomial field, so a zone segment is one
Chebyshev spectral rule, the one the quadrature oracle uses, iterated to the
flow by Picard iteration (Clenshaw & Norton, Comput. J. 6, 1963; Bai &
Junkins, J. Astronaut. Sci. 58, 2011).  Writing x = e^(mu*(theta - a)) * w
keeps the linear part exact and the iterated part O(eps); each iterate is
one batched field evaluation at every node.  A segment whose iteration does
not contract, or whose iterate leaves r > 0 or positive angular speed before
it converges, is halved; only at the depth bound is the guard's error
raised.

All rows of a batch of (eps, z) share those zone segments, so _integrator
marches the batch as one state, component first (d+1, nodes, rows), every
node and row of an iterate in one compiled-table call, and holds each row
to INTEGRATION_TOL on its own.  It builds the segments and the zones'
compiled tables once for every batch it integrates, and _picard the node
factors once per rule.  The single-point functions (integrate_theta,
return_map, displacement) are batches of one.

Fixed points of the 2*pi return map are the periodic solutions; eps_sweep
polishes the averaged-function prediction z_nu* into an actual fixed point
at every eps of a sweep by Newton on P(z) - z, and records how far it moved.
That Newton is damped and batched, with each eps a row; every point it
integrates carries its Jacobian points, so a round is one integration per
line-search trial.  refine_cycle is the sweep of one eps.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .avgcore import _cheb_rule, _cylindrical, compile_fields
from .polyalg import CompiledPolyVec
from .sysspec import SystemSpec
from .trigkernel import TWO_PI

INTEGRATION_TOL = 1e-12  # a row's last Picard update and N/2N rule difference, relative to its max norm
PERIOD_RESIDUAL_TOL = 1e-10
FD_STEP = 1e-7
DEFAULT_EPS_SWEEP = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
NEWTON_MAX_ITERS = 50
NODE_START = 16  # N of a zone segment's first N/2N comparison
NODE_CAP = 256  # largest N compared; past it the segment raises IntegrationFailure
MAX_HALVINGS = 10  # a segment is halved at most this deep before its failure is raised


class CycleError(RuntimeError):
    """A cycle could not be verified: the flow left its domain or Newton failed."""


class DenominatorVanishedError(CycleError):
    """Angular speed 1 + eps*A_1 + eps^2*B_1 lost positivity (eps too large)."""


class RCrossedZeroError(CycleError):
    """Radial coordinate left the r > 0 half-space during integration."""


class IntegrationFailure(CycleError):
    """The Chebyshev-Picard march failed on a zone segment (no contraction, or no agreement at the node cap)."""


class NoConvergenceError(CycleError):
    """Return-map Newton failed; carries the last residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class FlowState:
    """State of the theta-parameterized flow."""

    theta: float
    x: np.ndarray  # (r, z_1, ..., z_d)


@dataclass
class CycleRecord:
    """A refined periodic point of the return map at one eps."""

    epsilon: float
    fixed_point: np.ndarray
    period_residual: float
    predicted: np.ndarray
    distance: float

    @property
    def accepted(self) -> bool:
        return self.period_residual < PERIOD_RESIDUAL_TOL

    def as_row(self):
        return [
            f"{self.epsilon:.10g}",
            *(f"{v:.16g}" for v in self.fixed_point),
            f"{self.period_residual:.3e}",
            f"{self.distance:.6e}",
            str(self.accepted),
        ]


def _zone_sign(spec: SystemSpec, theta: float) -> str:
    frac = math.fmod(theta, TWO_PI)
    if frac < 0:
        frac += TWO_PI
    return "+" if frac < spec.phi else "-"


def _zone_field(C: CompiledPolyVec, mu: np.ndarray, E: np.ndarray):
    """One zone's nonlinear theta-time field F for a batch of flows, row b at eps E[b].

    ``C`` is the zone's compile_fields vector of both orders and ``mu`` the
    diagonal (0, mu_1, ..., mu_d).  The flow is x' = mu*x + F(theta, x).
    field(theta) binds F to K angles, building what depends on them alone
    once; the function it returns takes the states X (d+1, K*B), component
    first with node k's row b at column k*B + b, and returns F there from
    one compiled-table call.  The cylindrical map is linear, so it runs once,
    on eps*A + eps^2*B.  It raises the guard's error when r <= 0 or the
    angular speed is not positive at a node.
    """
    B, n, mu = len(E), len(mu), mu[:, None]

    def field(theta):
        cx, sx = np.repeat(np.cos(theta), B), np.repeat(np.sin(theta), B)
        Ek, E2k = np.tile(E, len(theta)), np.tile(E * E, len(theta))
        point = np.empty((n + 1, len(cx)))

        def at(X):
            r = X[0]
            if (r <= 0.0).any():
                raise RCrossedZeroError(f"r = {r.min():.3e} at theta = {theta[np.argmax(r <= 0.0) // B]:.6f}")
            point[0], point[1], point[2:] = r * cx, r * sx, X[1:]
            AB = C.values(point.T).T  # the order-1 fields A in AB[:n+1], the order-2 fields B in AB[n+1:]
            V = _cylindrical(Ek * AB[: n + 1] + E2k * AB[n + 1:], cx, sx, r)  # eps*A + eps^2*B
            tilt = V[0]  # the angular speed is 1 + tilt
            if (tilt <= -1.0).any():
                raise DenominatorVanishedError(f"angular speed {1.0 + tilt.min():.3e} at theta = "
                                               f"{theta[np.argmax(tilt <= -1.0) // B]:.6f}; reduce eps")
            return (V[1:] - mu * X * tilt) / (1.0 + tilt)

        return at

    return field


def _breakpoints(spec: SystemSpec, t0: float, t1: float):
    """Zone boundaries (multiples of 2*pi, and phi mod 2*pi) inside (t0, t1)."""
    pts = set()
    lo, hi = min(t0, t1), max(t0, t1)
    k0 = math.floor(lo / TWO_PI) - 1
    k1 = math.ceil(hi / TWO_PI) + 1
    for k in range(k0, k1 + 1):
        for b in (k * TWO_PI, k * TWO_PI + spec.phi):
            if lo + 1e-13 < b < hi - 1e-13:
                pts.add(b)
    pts = sorted(pts)
    return pts if t0 <= t1 else pts[::-1]


@functools.cache
def _cheb_refine(N: int) -> np.ndarray:
    """Interpolation matrix from the N+1 Chebyshev-Lobatto nodes to the 2N+1 ones."""
    return chebvander(_cheb_rule(2 * N)[0], N) @ np.linalg.inv(chebvander(_cheb_rule(N)[0], N))


class _NotContracting(Exception):
    """A Picard iterate's update did not shrink: the segment must be halved."""


def _picard(field, mu: np.ndarray, W0: np.ndarray, a: float, b: float) -> np.ndarray:
    """The states (d+1, B) at b of the flows from the states W0 (d+1, B) at a, by Chebyshev-Picard iteration.

    x = e^(mu*(theta - a)) * w, so w' = e^(-mu*(theta - a)) * F is O(eps) and
    the linear part is exact.  At the 2N+1 Chebyshev-Lobatto nodes of [a, b]
    each iterate is W <- W0 + h*S @ G(W), with W held as (d+1, 2N+1, B).  It
    is accepted once every row's update is at most INTEGRATION_TOL * |w|_inf
    (r > 0 keeps that positive) and the N-rule on the same samples agrees
    with it to the same bound; otherwise N doubles from NODE_START, the
    iterate interpolated onto the new nodes.  An update above half the
    previous one raises _NotContracting.  The node factors (the angles,
    e^(mu*(theta - a)) and the field's own) are built once per N.
    """
    h, N = 0.5 * (b - a), NODE_START
    W0 = W0[:, None, :]
    W = np.broadcast_to(W0, (len(W0), 2 * N + 1, W0.shape[2]))
    while True:
        x, S = _cheb_rule(2 * N)
        theta = a + h * (x + 1.0)
        Y = np.exp(np.multiply.outer(mu, theta - a))[:, :, None]
        F = field(theta)
        prev = math.inf
        while True:
            G = F((Y * W).reshape(len(W), -1)).reshape(W.shape) / Y
            W_new = W0 + h * (S @ G)
            tol = INTEGRATION_TOL * np.abs(W_new).max(axis=0).max(axis=0)
            update = (np.abs(W_new - W).max(axis=0).max(axis=0) / tol).max()
            W = W_new
            if update <= 1.0:
                break
            if not update <= 0.5 * prev:  # also when the update is nan
                raise _NotContracting
            prev = update
        coarse = W0 + h * (_cheb_rule(N)[1] @ G[:, ::2])
        diff = np.abs(coarse - W[:, ::2]).max(axis=0).max(axis=0)
        if (diff <= tol).all():
            return W[:, -1] * Y[:, -1]
        N *= 2
        if N > NODE_CAP:
            k = np.argmax(diff / tol)
            raise IntegrationFailure(
                f"segment [{a:.6f}, {b:.6f}]: the Chebyshev-Picard rule at N = {N // 2} and {N} "
                f"still differs by {diff[k]:.3e} (tolerance {tol[k]:.3e}) at the node cap N = {NODE_CAP}"
            )
        W = _cheb_refine(N) @ W


def _march(field, mu: np.ndarray, W0: np.ndarray, a: float, b: float, depth: int = 0, tripped=None) -> np.ndarray:
    """_picard on [a, b], halving it where the iteration does not contract or a guard trips.

    At MAX_HALVINGS the failure is raised.  If a guard tripped on this
    segment or on one enclosing it, that is the guard's own error: the
    iteration fails to contract as the angular speed goes to 0, so a
    DenominatorVanishedError means the flow itself lost angular speed.
    """
    try:
        return _picard(field, mu, W0, a, b)
    except (_NotContracting, RCrossedZeroError, DenominatorVanishedError) as exc:
        if not isinstance(exc, _NotContracting):
            tripped = exc
        if depth == MAX_HALVINGS:
            if tripped is not None:
                raise tripped
            raise IntegrationFailure(
                f"segment [{a:.6f}, {b:.6f}]: the Picard iteration does not contract "
                f"after {MAX_HALVINGS} halvings") from None
    mid = 0.5 * (a + b)
    W_mid = _march(field, mu, W0, a, mid, depth + 1, tripped)
    return _march(field, mu, W_mid, mid, b, depth + 1, tripped)


def _integrator(spec: SystemSpec, theta_span):
    """integrate(E, Z): every row (E[b], Z[b]) from theta_span[0] to theta_span[1] together.

    The zone segments, and the compiled tables of the zones they cross, are
    built once here and serve every call.  Each call is one stacked
    Chebyshev-Picard march per zone segment; each row is held to
    INTEGRATION_TOL in the max norm on its own, as if it ran alone.
    """
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    mu = np.array((0.0,) + spec.mu)
    knots = [t0] + _breakpoints(spec, t0, t1) + [t1]
    segments = [(a, b, _zone_sign(spec, 0.5 * (a + b))) for a, b in zip(knots[:-1], knots[1:]) if a != b]
    tables = {sign: compile_fields(spec, (1, 2), sign) for sign in {sign for _, _, sign in segments}}

    def integrate(E, Z) -> np.ndarray:
        E = np.asarray(E, dtype=float)
        X = np.array(Z, dtype=float).T  # marched component first, (d+1, B)
        if X.shape != (spec.d + 1, len(E)):
            raise ValueError(f"states have shape {X.T.shape}, expected ({len(E)}, {spec.d + 1})")
        if np.any(X[0] <= 0.0):
            raise RCrossedZeroError(f"initial r = {X[0].min():.3e} must be positive")
        for a, b, sign in segments:
            X = _march(_zone_field(tables[sign], mu, E), mu, X, a, b)
        return X.T

    return integrate


def _integrate(spec: SystemSpec, E, Z, theta_span) -> np.ndarray:
    """Integrate every row (E[b], Z[b]) from theta_span[0] to theta_span[1] together (see _integrator)."""
    return _integrator(spec, theta_span)(E, Z)


def integrate_theta(spec: SystemSpec, eps: float, z0, theta_span):
    """Integrate from theta_span[0] to theta_span[1]; returns FlowState."""
    x = np.asarray(z0, dtype=float)
    if x.shape != (spec.d + 1,):
        raise ValueError(f"state has shape {x.shape}, expected ({spec.d + 1},)")
    return FlowState(float(theta_span[1]), _integrate(spec, [eps], x[None], theta_span)[0])


def return_map(spec: SystemSpec, eps: float, z0) -> np.ndarray:
    """P(z0): the state after one full turn theta = 0 -> 2*pi."""
    return integrate_theta(spec, eps, z0, (0.0, TWO_PI)).x


def displacement(spec: SystemSpec, eps: float, z0) -> np.ndarray:
    """P(z) - z; zeros are the 2*pi-periodic solutions."""
    z0 = np.asarray(z0, dtype=float)
    return return_map(spec, eps, z0) - z0


def refine_cycle(spec: SystemSpec, eps: float, nu_star) -> CycleRecord:
    """Polish the averaged prediction into a fixed point of the return map."""
    return eps_sweep(spec, nu_star, (eps,))[0]


def check_eps_values(eps_values) -> tuple:
    """The eps values of a sweep as floats, each finite and > 0 (at eps = 0 every point is a fixed point)."""
    values = tuple(float(e) for e in eps_values)
    for e in values:
        if not (math.isfinite(e) and e > 0.0):
            raise ValueError(f"eps values must be finite and > 0, got {e!r}")
    return values


def eps_sweep(spec: SystemSpec, nu_star, eps_values=DEFAULT_EPS_SWEEP) -> list:
    """Refine the prediction nu_star at every eps of the sweep, in lockstep.

    Each eps is one row of a batched damped Newton on P(z) - z from the
    prediction: a forward-difference Jacobian (step FD_STEP), a line search
    of at most 20 halvings that keeps r > 0 and must lower the residual, a
    stop below PERIOD_RESIDUAL_TOL and at most NEWTON_MAX_ITERS Jacobians.
    Each point is integrated with its Jacobian points in one batch: the
    prediction's batch gives round 1's Jacobian, and a row's accepted trial
    its next one.  Each trial integrates every eps still searching together.
    Every eps must be finite and > 0, and nu_star 1-D with 1 to d+1 finite
    entries, the tail zero-padded; if any eps fails, NoConvergenceError
    names the first and its cause: a singular Jacobian, an exhausted line
    search or the Jacobian cap.
    """
    E = np.array(check_eps_values(eps_values))
    if not len(E):
        return []
    n = spec.d + 1
    nu_star = np.asarray(nu_star, dtype=float)
    if nu_star.ndim != 1 or not 1 <= len(nu_star) <= n:
        raise ValueError(f"prediction has shape {nu_star.shape}, expected (k,) with 1 <= k <= {n}")
    if not np.all(np.isfinite(nu_star)):
        raise ValueError(f"prediction {nu_star.tolist()} is not finite")
    predicted = np.zeros(n)
    predicted[: len(nu_star)] = nu_star
    full_turn = _integrator(spec, (0.0, TWO_PI))

    def turn(E, Z):
        # P(z) - z at every row (E[b], Z[b]) and its Jacobian, one integration;
        # H[b, j]: row b's step on component j, its n shifted points follow it
        H = FD_STEP * np.maximum(1.0, np.abs(Z))
        points = np.repeat(Z[:, None, :], n + 1, axis=1)
        points[:, 1:] += H[:, :, None] * np.eye(n)
        D = full_turn(np.repeat(E, n + 1), points.reshape(-1, n)).reshape(points.shape) - points
        return D[:, 0], ((D[:, 1:] - D[:, :1]) / H[:, :, None]).transpose(0, 2, 1)

    # row b: its point Z[b], the displacement G[b] and Jacobian J[b] there and res[b] = max|G[b]|
    Z = np.tile(predicted, (len(E), 1))
    G, J = turn(E, Z)
    res = np.max(np.abs(G), axis=1)
    steps = np.zeros(len(E), dtype=int)
    stop = np.zeros(len(E), dtype=int)  # why a row left early: 1 singular Jacobian, 2 line search exhausted
    live = np.arange(len(E))
    for _ in range(NEWTON_MAX_ITERS):
        # a row stops once below the tolerance, and fails when dropped above it
        live = live[~(res[live] < PERIOD_RESIDUAL_TOL)]
        if not live.size:
            break
        steps[live] += 1
        det = np.linalg.det(J[live])  # finite and nonzero: LU met no zero pivot, so solve succeeds
        regular = np.isfinite(det) & (np.abs(det) >= 1e-300)
        stop[live[~regular]] = 1
        live = live[regular]
        step = np.linalg.solve(J[live], G[live][:, :, None])[:, :, 0]
        t = 1.0
        pending = np.ones(len(live), dtype=bool)
        for _ in range(20):
            cand = np.flatnonzero(pending)
            zn = Z[live[cand]] - t * step[cand]
            above = zn[:, 0] > 0.0
            cand, zn = cand[above], zn[above]
            if cand.size:
                gn, jn = turn(E[live[cand]], zn)
                rn = np.max(np.abs(gn), axis=1)
                better = rn < res[live[cand]]
                acc = live[cand[better]]
                Z[acc], G[acc], J[acc], res[acc] = zn[better], gn[better], jn[better], rn[better]
                pending[cand[better]] = False
            if not pending.any():
                break
            t *= 0.5
        stop[live[pending]] = 2
        live = live[~pending]
    ok = res < PERIOD_RESIDUAL_TOL
    if not ok.all():
        k = np.argmin(ok)
        why = (f"after {steps[k]} of at most {NEWTON_MAX_ITERS} Jacobians", f"Jacobian {steps[k]} is singular",
               f"the line search on Jacobian {steps[k]} found no lower residual in 20 halvings")[stop[k]]
        raise NoConvergenceError(f"return-map Newton failed at eps={E[k]}: residual {res[k]:.3e}; {why}", res[k])
    return [CycleRecord(float(e), z, float(r), predicted.copy(), float(np.linalg.norm(z - predicted)))
            for e, z, r in zip(E, Z, res)]


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def distance_slope(records) -> float:
    """Convergence rate of |fixed_point - predicted| over an eps sweep.

    Only records with a nonzero distance are fitted: a prediction that
    already meets PERIOD_RESIDUAL_TOL takes no Newton step, so its distance
    is exactly 0 and is set by the tolerance, not by the eps law.  nan when
    fewer than two records remain.
    """
    kept = [r for r in records if r.distance > 0]
    if len(kept) < 2:
        return math.nan
    return loglog_slope([r.epsilon for r in kept], [r.distance for r in kept])


def write_cycle_csv(path, records, d: int):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "r"] + [f"z{k}" for k in range(1, d + 1)]
                        + ["period_residual", "distance", "accepted"])
        for rec in records:
            writer.writerow(rec.as_row())


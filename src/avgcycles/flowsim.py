"""Direct integration of the discontinuous perturbed system.

The system is integrated in the angle variable theta, where the right-hand
side is the perturbed field divided by the angular speed 1 + eps*A_1 +
eps^2*B_1.  The two smooth zones meet at the coordinate planes theta = 0 and
theta = phi (mod 2*pi), so the switching is handled exactly by splitting the
integration span there — no event detection is needed.

All rows of a batch of (eps, z) share those zone segments, so _integrate
carries the batch as one stacked state: one solve_ivp per segment, whose
right-hand side evaluates both perturbation orders of every row with one
compiled-table call.  Its tolerances are INTEGRATION_TOL / sqrt(B) for a
batch of B rows, which keeps each row's own error estimate within
INTEGRATION_TOL (scipy's error norm is an RMS over the stacked state).  The
single-point functions (integrate_theta, return_map, displacement) are
batches of one.

Fixed points of the 2*pi return map are the periodic solutions; eps_sweep
polishes the averaged-function prediction z_nu* into an actual fixed point
at every eps of a sweep by Newton on P(z) - z, all eps in lockstep (each
round's Jacobian points, and each line-search trial, form one batch), and
records how far it moved.  refine_cycle is the sweep of one eps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .avgcore import _cylindrical, compile_fields
from .sysspec import SystemSpec
from .trigkernel import TWO_PI

INTEGRATION_TOL = 1e-12
PERIOD_RESIDUAL_TOL = 1e-10
FD_STEP = 1e-7
DEFAULT_EPS_SWEEP = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
NEWTON_MAX_ITERS = 50


class CycleError(RuntimeError):
    """A cycle could not be verified: the flow left its domain or Newton failed."""


class DenominatorVanishedError(CycleError):
    """Angular speed 1 + eps*A_1 + eps^2*B_1 lost positivity (eps too large)."""


class RCrossedZeroError(CycleError):
    """Radial coordinate left the r > 0 half-space during integration."""


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


def _rhs(spec: SystemSpec, E: np.ndarray, sign: str):
    """One zone's right-hand side for a batch of flows, row b at eps E[b], stacked flat."""
    C = compile_fields(spec, (1, 2), sign)
    B, n = len(E), spec.d + 1
    E2 = E * E
    mu = np.asarray(spec.mu, dtype=float)

    def rhs(theta, y):
        x = y.reshape(B, n)
        r = x[:, 0]
        if (r <= 0.0).any():
            raise RCrossedZeroError(f"r = {r.min():.3e} at theta = {theta:.6f}")
        cx, sx = math.cos(theta), math.sin(theta)
        point = np.empty((B, n + 1))
        point[:, 0], point[:, 1], point[:, 2:] = r * cx, r * sx, x[:, 1:]
        # AB[b, 0] and AB[b, 1]: the order-1 fields A and order-2 fields B of row b
        AB = C.values(point).reshape(B, 2, n + 1)
        _cylindrical(AB.transpose(2, 0, 1), cx, sx, r[:, None])
        A, Bf = AB[:, 0], AB[:, 1]
        denom = 1.0 + E * A[:, 0] + E2 * Bf[:, 0]
        if (denom <= 0.0).any():
            raise DenominatorVanishedError(
                f"angular speed {denom.min():.3e} at theta = {theta:.6f}; reduce eps"
            )
        num = np.zeros((B, n))
        num[:, 1:] = mu * x[:, 1:]
        num += E[:, None] * A[:, 1:]
        num += E2[:, None] * Bf[:, 1:]
        return (num / denom[:, None]).ravel()

    return rhs


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


def _integrate(spec: SystemSpec, E, Z, theta_span) -> np.ndarray:
    """Integrate every row (E[b], Z[b]) from theta_span[0] to theta_span[1] together.

    One stacked solve_ivp per zone segment.  scipy's error norm is an RMS over
    the stacked state, so tolerances of INTEGRATION_TOL / sqrt(B) keep each
    row's own error estimate within INTEGRATION_TOL, as if it ran alone.
    """
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    E = np.asarray(E, dtype=float)
    X = np.array(Z, dtype=float)
    if X.shape != (len(E), spec.d + 1):
        raise ValueError(f"states have shape {X.shape}, expected ({len(E)}, {spec.d + 1})")
    if np.any(X[:, 0] <= 0.0):
        raise RCrossedZeroError(f"initial r = {X[:, 0].min():.3e} must be positive")
    tol = INTEGRATION_TOL / math.sqrt(len(E))
    knots = [t0] + _breakpoints(spec, t0, t1) + [t1]
    for a, b in zip(knots[:-1], knots[1:]):
        if a == b:
            continue
        sign = _zone_sign(spec, 0.5 * (a + b))
        sol = solve_ivp(
            _rhs(spec, E, sign), (a, b), X.ravel(), method="DOP853",
            rtol=tol, atol=tol, dense_output=False,
        )
        if not sol.success:
            raise RuntimeError(f"integration failed on [{a:.6f}, {b:.6f}]: {sol.message}")
        X = sol.y[:, -1].reshape(X.shape)
    return X


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


def _displacements(spec: SystemSpec, E, Z) -> np.ndarray:
    """P(z) - z for every row (E[b], Z[b]), one stacked integration."""
    return _integrate(spec, E, Z, (0.0, TWO_PI)) - Z


def refine_cycle(spec: SystemSpec, eps: float, nu_star) -> CycleRecord:
    """Polish the averaged prediction into a fixed point of the return map."""
    return eps_sweep(spec, nu_star, (eps,))[0]


def eps_sweep(spec: SystemSpec, nu_star, eps_values=DEFAULT_EPS_SWEEP) -> list:
    """Refine the prediction nu_star at every eps of the sweep, in lockstep.

    Each eps runs its own Newton on P(z) - z from the prediction: a
    forward-difference Jacobian (step FD_STEP), a line search of at most 20
    halvings that keeps r > 0 and must lower the residual, a stop below
    PERIOD_RESIDUAL_TOL and at most NEWTON_MAX_ITERS iterations.  Each round
    integrates the Jacobian points of every unconverged eps as one batch, and
    each line-search trial of every eps still searching as one batch.
    """
    E = np.asarray(eps_values, dtype=float)
    if not len(E):
        return []
    n = spec.d + 1
    nu_star = np.asarray(nu_star, dtype=float)
    predicted = np.zeros(n)
    predicted[: len(nu_star)] = nu_star
    Z = np.tile(predicted, (len(E), 1))
    G = _displacements(spec, E, Z)
    res = np.max(np.abs(G), axis=1)
    for _ in range(NEWTON_MAX_ITERS):
        act = np.flatnonzero(res >= PERIOD_RESIDUAL_TOL)
        if not len(act):
            break
        # H[i, j]: cycle i's step on component j; its n shifted points are consecutive batch rows
        H = FD_STEP * np.maximum(1.0, np.abs(Z[act]))
        points = Z[act][:, None, :] + H[:, :, None] * np.eye(n)
        Gp = _displacements(spec, np.repeat(E[act], n), points.reshape(-1, n)).reshape(-1, n, n)
        steps = np.empty((len(act), n))
        for i, k in enumerate(act):
            J = ((Gp[i] - G[k]) / H[i][:, None]).T
            try:
                steps[i] = np.linalg.solve(J, G[k])
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError(f"singular return-map Jacobian at eps={E[k]}", res[k]) from exc
        t = np.ones(len(act))
        pending = np.ones(len(act), dtype=bool)
        for _ in range(20):
            trial = Z[act] - t[:, None] * steps
            tried = np.flatnonzero(pending & (trial[:, 0] > 0))
            if len(tried):
                rows = act[tried]
                Gt = _displacements(spec, E[rows], trial[tried])
                rt = np.max(np.abs(Gt), axis=1)
                better = rt < res[rows]
                Z[rows[better]], G[rows[better]], res[rows[better]] = trial[tried[better]], Gt[better], rt[better]
                pending[tried[better]] = False
            if not pending.any():
                break
            t[pending] *= 0.5
        else:
            k = act[np.argmax(pending)]
            raise NoConvergenceError(
                f"return-map Newton stalled at residual {res[k]:.3e} (eps={E[k]})", res[k])
    else:
        k = act[0]
        raise NoConvergenceError(f"return-map Newton did not converge, last residual {res[k]:.3e}", res[k])
    # res[b] is max|G[b]|, the displacement integrated at this very Z[b]
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "r"] + [f"z{k}" for k in range(1, d + 1)]
                        + ["period_residual", "distance", "accepted"])
        for rec in records:
            writer.writerow(rec.as_row())


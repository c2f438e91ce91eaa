"""Direct integration of the discontinuous perturbed system.

The system is integrated in the angle variable theta, where the right-hand
side is the perturbed field divided by the angular speed 1 + eps*A_1 +
eps^2*B_1.  The two smooth zones meet at the coordinate planes theta = 0 and
theta = phi (mod 2*pi), so the switching is handled exactly by splitting the
integration span there — no event detection is needed.

Fixed points of the 2*pi return map are the periodic solutions; refine_cycle
polishes the averaged-function prediction z_nu* into an actual fixed point by
Newton on P(z) - z and records how far it moved.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .avgcore import compile_fields, eval_fields
from .sysspec import SystemSpec
from .trigkernel import TWO_PI

INTEGRATION_TOL = 1e-12
PERIOD_RESIDUAL_TOL = 1e-10
FD_STEP = 1e-7
DEFAULT_EPS_SWEEP = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
NEWTON_MAX_ITERS = 50


class DenominatorVanishedError(RuntimeError):
    """Angular speed 1 + eps*A_1 + eps^2*B_1 lost positivity (eps too large)."""


class RCrossedZeroError(RuntimeError):
    """Radial coordinate left the r > 0 half-space during integration."""


class NoConvergenceError(RuntimeError):
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


def _rhs(spec: SystemSpec, eps: float, sign: str):
    C1, C2 = compile_fields(spec, 1, sign), compile_fields(spec, 2, sign)

    def rhs(theta, x):
        if x[0] <= 0.0:
            raise RCrossedZeroError(f"r = {x[0]:.3e} at theta = {theta:.6f}")
        A = eval_fields(C1, theta, x)
        B = eval_fields(C2, theta, x)
        denom = 1.0 + eps * A[0] + eps * eps * B[0]
        if denom <= 0.0:
            raise DenominatorVanishedError(
                f"angular speed {denom:.3e} at theta = {theta:.6f}; reduce eps"
            )
        num = np.empty(spec.d + 1)
        num[0] = eps * A[1] + eps * eps * B[1]
        for k in range(1, spec.d + 1):
            num[k] = spec.mu[k - 1] * x[k] + eps * A[k + 1] + eps * eps * B[k + 1]
        return num / denom

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


def integrate_theta(spec: SystemSpec, eps: float, z0, theta_span):
    """Integrate from theta_span[0] to theta_span[1]; returns FlowState."""
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    x = np.asarray(z0, dtype=float).copy()
    if x.shape != (spec.d + 1,):
        raise ValueError(f"state has shape {x.shape}, expected ({spec.d + 1},)")
    if x[0] <= 0.0:
        raise RCrossedZeroError(f"initial r = {x[0]:.3e} must be positive")
    knots = [t0] + _breakpoints(spec, t0, t1) + [t1]
    for a, b in zip(knots[:-1], knots[1:]):
        if a == b:
            continue
        sign = _zone_sign(spec, 0.5 * (a + b))
        sol = solve_ivp(
            _rhs(spec, eps, sign), (a, b), x, method="DOP853",
            rtol=INTEGRATION_TOL, atol=INTEGRATION_TOL, dense_output=False,
        )
        if not sol.success:
            raise RuntimeError(f"integration failed on [{a:.6f}, {b:.6f}]: {sol.message}")
        x = sol.y[:, -1].copy()
    return FlowState(t1, x)


def return_map(spec: SystemSpec, eps: float, z0) -> np.ndarray:
    """P(z0): the state after one full turn theta = 0 -> 2*pi."""
    return integrate_theta(spec, eps, z0, (0.0, TWO_PI)).x


def displacement(spec: SystemSpec, eps: float, z0) -> np.ndarray:
    """P(z) - z; zeros are the 2*pi-periodic solutions."""
    z0 = np.asarray(z0, dtype=float)
    return return_map(spec, eps, z0) - z0


def _return_jac(spec: SystemSpec, eps: float, z: np.ndarray, g0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of the displacement map."""
    n = spec.d + 1
    J = np.empty((n, n))
    for j in range(n):
        h = FD_STEP * max(1.0, abs(z[j]))
        dz = np.zeros(n)
        dz[j] = h
        J[:, j] = (displacement(spec, eps, z + dz) - g0) / h
    return J


def refine_cycle(spec: SystemSpec, eps: float, nu_star) -> CycleRecord:
    """Polish the averaged prediction into a fixed point of the return map."""
    nu_star = np.asarray(nu_star, dtype=float)
    predicted = np.zeros(spec.d + 1)
    predicted[: len(nu_star)] = nu_star
    z = predicted.copy()
    g = displacement(spec, eps, z)
    res = float(np.max(np.abs(g)))
    for _ in range(NEWTON_MAX_ITERS):
        if res < PERIOD_RESIDUAL_TOL:
            break
        J = _return_jac(spec, eps, z, g)
        try:
            step = np.linalg.solve(J, g)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular return-map Jacobian at eps={eps}", res) from exc
        t = 1.0
        for _ in range(20):
            zn = z - t * step
            if zn[0] > 0:
                gn = displacement(spec, eps, zn)
                rn = float(np.max(np.abs(gn)))
                if rn < res:
                    z, g, res = zn, gn, rn
                    break
            t *= 0.5
        else:
            raise NoConvergenceError(f"return-map Newton stalled at residual {res:.3e} (eps={eps})", res)
    else:
        raise NoConvergenceError(f"return-map Newton did not converge, last residual {res:.3e}", res)
    # res is max|g| with g = displacement(spec, eps, z), integrated at this very z
    return CycleRecord(eps, z, res, predicted, float(np.linalg.norm(z - predicted)))


def eps_sweep(spec: SystemSpec, nu_star, eps_values=DEFAULT_EPS_SWEEP) -> list:
    return [refine_cycle(spec, eps, nu_star) for eps in eps_values]


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def distance_slope(records) -> float:
    """Convergence rate of |fixed_point - predicted| over an eps sweep."""
    return loglog_slope([r.epsilon for r in records], [max(r.distance, 1e-300) for r in records])


def write_cycle_csv(path, records, d: int):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "r"] + [f"z{k}" for k in range(1, d + 1)]
                        + ["period_residual", "distance", "accepted"])
        for rec in records:
            writer.writerow(rec.as_row())


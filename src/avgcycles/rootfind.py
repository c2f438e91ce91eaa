"""Locating and certifying simple zeros of polynomial systems on r > 0.

Dense grid seeding plus damped Newton: at desk-scale degrees every zero in
the box is reachable from some nearby seed, so no continuation machinery is
needed.  The system is compiled once (polyalg.CompiledPolyVec) and Newton
runs on all seeds as one (seeds, nvars) batch, each seed keeping its own
stopping, failure and step-halving rules.  That Newton, _batch_newton, takes
the residual and Jacobian as callbacks told which rows they serve, so
flowsim's return-map Newton runs on it too.

The search runs on the r-free system G: each component of F divided by the
largest power of r that divides it.  On the box, r >= r_min > 0, so
F = diag(r^k_i)·G has the zeros of G, and J_F = diag(r^k_i)·J_G there: a
zero is simple for F exactly when it is simple for G.  Without the factor,
the spurious zero at r = 0 no longer drags seeds to the r_min wall, and
a G with a nonzero constant component, which has no zero, is not searched.

The limits are then filtered and deduplicated in seed order; a seed that
fails at the r_min wall counts as an r_min hit, any other failure as
diverged.  The same compiled G gives each zero's final residual and
Jacobian determinant: a zero is certified simple when the residual is tiny
and the determinant clears a degree-aware threshold.  Only the Bezout
sanity check reads F itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .polyalg import CompiledPolyVec, Poly, PolyVec, bezout_bound

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
MAX_ITERS = 100
MAX_HALVINGS = 30
DEFAULT_GRID = 15
DEFAULT_R_MIN = 1e-6
SIMPLICITY_BASE = 1e-8


class EmptyBoxError(ValueError):
    """Search box has no interior."""


class CountExceedsBoundError(RuntimeError):
    """More certified zeros than the Bezout bound: internal inconsistency."""


@dataclass
class SearchBox:
    """Axis-aligned box in nu = (r, z_1..z_m) with per-axis seed counts."""

    lo: np.ndarray
    hi: np.ndarray
    grid: tuple | None = None
    r_min: float = DEFAULT_R_MIN

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise EmptyBoxError("lo and hi must be vectors of equal length")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise EmptyBoxError(f"box bounds must be finite: lo={self.lo} hi={self.hi}")
        if not np.all(self.lo < self.hi):
            raise EmptyBoxError(f"degenerate box: lo={self.lo} hi={self.hi}")
        if self.r_min <= 0:
            raise EmptyBoxError(f"r_min must be positive, got {self.r_min}")
        if self.lo[0] < self.r_min:
            raise EmptyBoxError(f"box must satisfy lo[0] >= r_min ({self.lo[0]} < {self.r_min})")
        if self.grid is None:
            self.grid = (DEFAULT_GRID,) * len(self.lo)
        self.grid = tuple(int(g) for g in self.grid)
        if len(self.grid) != len(self.lo) or any(g < 1 for g in self.grid):
            raise EmptyBoxError(f"bad grid {self.grid} for dimension {len(self.lo)}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def seeds(self):
        axes = [np.linspace(lo, hi, g + 2)[1:-1] for lo, hi, g in zip(self.lo, self.hi, self.grid)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([mm.ravel() for mm in mesh], axis=-1)


@dataclass
class ZeroRecord:
    """A certified (or rejected) zero candidate of a square system."""

    nu: np.ndarray
    residual: float
    jac_det: float
    simple: bool

    def as_row(self):
        return [*(f"{v:.16g}" for v in self.nu), f"{self.residual:.3e}", f"{self.jac_det:.16g}", str(self.simple)]


@dataclass
class SearchDiagnostics:
    """Non-fatal bookkeeping from a search run."""

    seeds: int = 0
    converged: int = 0
    r_min_hits: int = 0
    diverged: int = 0
    newton_steps: int = 0


def _batch_newton(fun, jac, x0, tol, max_iters, max_halvings, r_min):
    """Damped Newton from every point of x0 at once, each point by its own rules.

    fun(rows, X) returns the residuals at the points X and jac(rows, X, FX)
    their Jacobians, FX being fun there; rows holds the indices in x0 of the
    points X, never empty, so a residual that depends on the row can look its
    data up.  A point stops when its max-norm residual drops below tol and
    fails on a singular Jacobian or when max_halvings step halvings find no
    point with r above r_min and a lower residual; at most max_iters
    Jacobians are taken.  Returns the final points, their residuals, the
    converged mask and each point's number of Jacobian evaluations.
    """
    x = np.array(x0, dtype=float)
    fx = fun(np.arange(len(x)), x)
    res = np.max(np.abs(fx), axis=1)
    ok = np.zeros(len(x), dtype=bool)
    steps = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    for _ in range(max_iters):
        done = res[live] < tol
        ok[live[done]] = True
        live = live[~done]
        if not live.size:
            break
        steps[live] += 1
        J = jac(live, x[live], fx[live])
        det = np.linalg.det(J)
        # a finite nonzero determinant means LU met no zero pivot: solve succeeds
        regular = np.isfinite(det) & (np.abs(det) >= 1e-300)
        live = live[regular]
        step = np.linalg.solve(J[regular], fx[live][:, :, None])[:, :, 0]
        t = 1.0
        pending = np.ones(len(live), dtype=bool)
        for _ in range(max_halvings):
            cand = np.flatnonzero(pending)
            xn = x[live[cand]] - t * step[cand]
            above = xn[:, 0] > r_min
            cand, xn = cand[above], xn[above]
            if cand.size:
                fn = fun(live[cand], xn)
                rn = np.max(np.abs(fn), axis=1)
                better = rn < res[live[cand]]
                acc = live[cand[better]]
                x[acc], fx[acc], res[acc] = xn[better], fn[better], rn[better]
                pending[cand[better]] = False
            if not pending.any():
                break
            t *= 0.5
        live = live[~pending]
    ok[live] = res[live] < tol
    return x, fx, ok, steps


def simplicity_threshold(F: PolyVec) -> float:
    prod = 1
    for p in F.components:
        prod *= max(p.degree(), 1)
    return SIMPLICITY_BASE * (1 + prod)


def _r_free(p: Poly) -> Poly:
    """p divided by the largest power of r that divides it; the zero polynomial as is."""
    k = min((mono[0] for mono in p.terms), default=0)
    return Poly(p.nvars, {(mono[0] - k, *mono[1:]): c for mono, c in p.terms.items()})


def find_simple_zeros(F: PolyVec, box: SearchBox, diagnostics: SearchDiagnostics | None = None) -> list:
    """All distinct Newton limits in the box with residual < 1e-10, sorted.

    Newton, the residual, det J and the simplicity threshold are those of
    the r-free system (module docstring), which has F's zeros on the box.
    When one of its components is a nonzero constant it has no zero at
    all: no seed is run and no record returned.
    """
    if len(F) != F.nvars:
        raise ValueError(f"system is not square: {len(F)} equations, {F.nvars} variables")
    if box.dim != F.nvars:
        raise ValueError(f"box dimension {box.dim} does not match system dimension {F.nvars}")
    diag = diagnostics if diagnostics is not None else SearchDiagnostics()

    G = PolyVec([_r_free(p) for p in F])
    if any(p.degree() == 0 for p in G):
        return []  # a nonzero constant component: G, so F on the box, has no zero
    seeds = box.seeds()
    C = CompiledPolyVec.of(G)
    x, _, ok, steps = _batch_newton(lambda rows, X: C.values(X), lambda rows, X, FX: C.jacobians(X),
                                    seeds, RESIDUAL_TOL, MAX_ITERS, MAX_HALVINGS, box.r_min)
    # a seed that failed within DEDUP_TOL of the wall was stopped by r_min
    at_wall = ~ok & (x[:, 0] - box.r_min < DEDUP_TOL)
    diag.seeds += len(seeds)
    diag.newton_steps += int(steps.sum())
    diag.diverged += int(np.count_nonzero(~ok & ~at_wall))
    diag.r_min_hits += int(np.count_nonzero(at_wall))
    in_box = np.all((x >= box.lo - 1e-6) & (x <= box.hi + 1e-6), axis=1)
    cand = x[ok & in_box]
    diag.converged += len(cand)
    # keep the first limit of each cluster in seed order: the earliest
    # candidate left is never within DEDUP_TOL of a kept one
    found = []
    while len(cand):
        found.append(cand[0])
        cand = cand[np.linalg.norm(cand - cand[0], axis=1) >= DEDUP_TOL]

    found = np.array(sorted(found, key=tuple)).reshape(-1, F.nvars)
    residuals = np.max(np.abs(C.values(found)), axis=1)
    dets = np.linalg.det(C.jacobians(found))
    thresh = simplicity_threshold(G)
    records = []
    for x, res, det in zip(found, residuals.tolist(), dets.tolist()):
        # a multiple root converged to residual res sits at distance
        # ~sqrt(res), where the determinant is itself ~sqrt(res): demand a
        # clear margin over that scale as well as over the static threshold
        floor = max(thresh, 100.0 * math.sqrt(max(res, 0.0)))
        records.append(ZeroRecord(x, res, det, bool(res < RESIDUAL_TOL and abs(det) > floor)))

    bez = bezout_bound(F)
    simple = sum(1 for rec in records if rec.simple)
    if bez and simple > bez:
        raise CountExceedsBoundError(f"found {simple} simple zeros but the Bezout bound is {bez}")
    return records


def certify_count(F: PolyVec, box: SearchBox, expected: int) -> dict:
    """Check the lower-bound claim: at least `expected` simple zeros, <= Bezout."""
    bez = bezout_bound(F)
    if bez == 0:
        return {
            "found": 0,
            "expected": expected,
            "bezout": 0,
            "pass": False,
            "diagnostic": "degenerate system (constant or zero component)",
        }
    records = find_simple_zeros(F, box)
    found = sum(1 for r in records if r.simple)
    return {
        "found": found,
        "expected": expected,
        "bezout": bez,
        "pass": bool(found >= expected and found <= bez),
        "records": records,
    }


def write_zero_csv(path, records, nvars: int | None = None):
    nvars = nvars if nvars is not None else (len(records[0].nu) if records else 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r"] + [f"z{k}" for k in range(1, nvars)] + ["residual", "jac_det", "simple"])
        for rec in records:
            writer.writerow(rec.as_row())

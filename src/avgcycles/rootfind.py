"""Proved counts of the zeros of polynomial systems in a box in r > 0.

The search runs on the r-free system G: each component of F divided by the
largest power of r that divides it.  On the box, r > 0, so F =
diag(r^k_i)·G has the zeros of G, and J_F = diag(r^k_i)·J_G there: a zero
is simple for F exactly when it is simple for G.  A G with a nonzero
constant component has no zero and is not searched; only the Bezout sanity
check reads F itself.

The search is a branch and prune over boxes (Moore, Kearfott and Cloud,
Introduction to Interval Analysis, SIAM 2009, ch. 8).  The search box is
cut into about INITIAL_BOXES cells, and each level of boxes is classified
at once from CompiledPolyVec's centred-form enclosures of G and its
Jacobian, every rounding included:

- a box is excluded when the enclosure of some component of G over it
  excludes 0: it holds no zero;
- a box is proved when its Krawczyk image lies in its interior (Krawczyk,
  Computing 4, 1969): it then holds exactly one zero, and that zero is
  simple;
- any other box is bisected, the axes taken in turn, until it is about
  MIN_WIDTH of the search box wide on every axis, or until the search has
  classified MAX_BOXES boxes.

The boxes left over merge with those they touch.  When a merged cluster's
hull meets no other box that is left, the hull is classified once more,
which proves a zero that lies on a face between boxes.  Any other cluster
becomes one record that is not simple: a multiple zero, zeros closer than
the minimum width, a zero on the box's boundary.  So the simple records
are exactly the box's zeros when every record is simple, and a proved
lower bound otherwise.

The operator that proves a zero also locates it: every zero in X lies in
its Krawczyk image K(X), so X <- K(X) ∩ X contracts each proved box about
its zero (Rump, Acta Numerica 19, 2010, §13).  The record is the centre of
the last box, simple when G there is below RESIDUAL_TOL or its rounding bound.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .polyalg import CompiledPolyVec, Poly, PolyVec, bezout_bound, gamma

RESIDUAL_TOL = 1e-10
INITIAL_BOXES = 64     # the first level: round(INITIAL_BOXES ** (1/nvars)) cells per axis
MIN_WIDTH = 2.0**-24  # boxes about this narrow, relative to the search box, are not bisected
SKEW = -0.05          # the grid's faces avoid the box's simple fractions (_corners)
MAX_BOXES = 1 << 17   # a level that would pass this many boxes in all is left unresolved
CHUNK = 1024          # boxes classified per enclosure call


class EmptyBoxError(ValueError):
    """Search box has no interior."""


class CountExceedsBoundError(RuntimeError):
    """More certified zeros than the Bezout bound: internal inconsistency."""


@dataclass
class SearchBox:
    """Axis-aligned box in nu = (r, z_1..z_m), inside r > 0."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise EmptyBoxError("lo and hi must be vectors of equal length")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise EmptyBoxError(f"box bounds must be finite: lo={self.lo} hi={self.hi}")
        if not np.all(self.lo < self.hi):
            raise EmptyBoxError(f"degenerate box: lo={self.lo} hi={self.hi}")
        if not self.lo[0] > 0:
            raise EmptyBoxError(f"box must satisfy lo[0] > 0, got lo[0] = {self.lo[0]}")

    @property
    def dim(self) -> int:
        return len(self.lo)


@dataclass
class ZeroRecord:
    """A proved simple zero, or a region where the search proved nothing."""

    nu: np.ndarray
    residual: float
    jac_det: float
    simple: bool

    def as_row(self):
        return [*(f"{v:.16g}" for v in self.nu), f"{self.residual:.3e}", f"{self.jac_det:.16g}", str(self.simple)]


@dataclass
class SearchDiagnostics:
    """Work counts of a search.

    boxes are classified, each excluded, proved or bisected; unresolved
    counts the cells left in clusters that no hull resolved; contractions
    counts the boxes classified while the proved zeros are located.
    """

    boxes: int = 0
    excluded: int = 0
    proved: int = 0
    unresolved: int = 0
    contractions: int = 0


def _r_free(p: Poly) -> Poly:
    """p divided by the largest power of r that divides it; the zero polynomial as is."""
    k = min((mono[0] for mono in p.terms), default=0)
    return Poly(p.nvars, {(mono[0] - k, *mono[1:]): c for mono, c in p.terms.items()})


def _classify(C: CompiledPolyVec, lo, hi):
    """Per box [lo, hi]: excluded (no zero), proved (one simple zero), the Krawczyk image, G(c) ± err and det J(c).

    With c the box's centre, X - c within [-w, w] and Y the inverse of
    J(c), the Krawczyk image c - Y·G(c) + (I - Y·J(X))·[-w, w] contains
    every zero in X; inside X's interior it proves exactly one, at which J
    is regular.  Every rounding in G(c), Y·G(c) and Y·J(X) joins its radius,
    and the image is returned as its corners rounded outward, or as X itself
    where X is excluded or J(c) is singular.  G(c), err bounding its
    rounding, and J(c), whose determinant is returned, are the enclosure's.
    """
    E = C.enclosures(lo, hi)
    B, n = lo.shape
    excluded = np.any(np.abs(E.value) > E.value_rad, axis=1)
    klo, khi = lo.copy(), hi.copy()
    det = np.linalg.det(E.jac)
    rows = np.flatnonzero(~excluded & np.isfinite(det) & (np.abs(det) >= 1e-300))
    if rows.size:
        c, w, g0, gr, J, Jr = (a[rows] for a in (E.centre, E.half, E.value, E.value_err, E.jac, E.jac_rad))
        Y = np.linalg.inv(J)
        Ya = np.abs(Y)
        g = gamma(n + 1)
        k = c - (Y @ g0[:, :, None])[:, :, 0]
        Yg = (Ya @ np.abs(g0)[:, :, None])[:, :, 0]
        M = np.eye(n) - Y @ J
        Mr = Ya @ Jr + g * (Ya @ np.abs(J) + 1.0)
        R = (Ya @ gr[:, :, None])[:, :, 0] + ((np.abs(M) + Mr) @ w[:, :, None])[:, :, 0]
        # a nonnegative sum over at most 2n + 8 roundings, raised to cover them
        R = (R + g * (np.abs(c) + Yg)) * (1.0 + gamma(2 * n + 8)) + 1e-300
        klo[rows], khi[rows] = np.nextafter(k - R, -np.inf), np.nextafter(k + R, np.inf)
    proved = np.all((klo > lo) & (khi < hi), axis=1)
    return excluded, proved, klo, khi, E.value, E.value_err, det


def _classify_all(C, lo, hi):
    """_classify over a level, CHUNK boxes at a time."""
    parts = [_classify(C, lo[i:i + CHUNK], hi[i:i + CHUNK]) for i in range(0, len(lo), CHUNK)]
    return [np.concatenate(p) for p in zip(*parts)]


def _corners(box: SearchBox, idx, cells):
    """Corners of the grid cells idx, cells[v] to axis v; neighbours share their faces exactly.

    Cell k of an axis cut into N spans [s(k/N), s((k+1)/N)] of the box, with
    s(t) = t + SKEW t (1 - t): the generators plant zeros at simple
    fractions of the box, where the plain dyadic grid puts its faces, and a
    zero that close to a face is proved only in boxes about as narrow as
    its distance from it.
    """
    t0, t1 = idx / cells, (idx + 1) / cells
    t0, t1 = t0 + SKEW * t0 * (1.0 - t0), t1 + SKEW * t1 * (1.0 - t1)
    return box.lo * (1.0 - t0) + box.hi * t0, box.lo * (1.0 - t1) + box.hi * t1


def _clusters(idx):
    """Label of each grid cell's cluster: cells that touch (index gap <= 1 on each axis) share one."""
    cells = [tuple(c) for c in idx.tolist()]
    at = {c: i for i, c in enumerate(cells)}
    offsets = list(itertools.product((-1, 0, 1), repeat=idx.shape[1]))
    label = [-1] * len(cells)
    for first in range(len(cells)):
        if label[first] >= 0:
            continue
        label[first], todo = first, [first]
        while todo:
            c = cells[todo.pop()]
            for off in offsets:
                k = at.get(tuple(a + b for a, b in zip(c, off)))
                if k is not None and label[k] < 0:
                    label[k] = first
                    todo.append(k)
    return np.array(label)


def _overlaps(lo, hi, olo, ohi):
    """Whether the box [lo, hi]'s interior meets any of the boxes [olo, ohi]."""
    return bool(np.any(np.all((olo < hi) & (lo < ohi), axis=1)))


def _next_box(klo, khi, lo, hi):
    """The box about X = [lo, hi]'s zero that its Krawczyk image [klo, khi] leaves, as (lo, hi).

    K(X) ∩ X, grown on each side by a tenth of its width (less where X's face
    is nearer, so that its centre stays) and by an ulp, within X: it holds
    X's zeros, and K's round-off floor stays inside it, so it proves a simple
    zero again.
    """
    klo, khi = np.maximum(klo, lo), np.minimum(khi, hi)
    d = np.minimum(0.1 * (khi - klo), np.minimum(klo - lo, hi - khi))
    return np.maximum(np.nextafter(klo - d, -np.inf), lo), np.minimum(np.nextafter(khi + d, np.inf), hi)


def _bisect(C: CompiledPolyVec, box: SearchBox, diag: SearchDiagnostics):
    """The level-by-level search: the proved boxes' next boxes (_next_box), as (lo, hi) arrays, and the cells left.

    Every box of a level is a cell of one grid, `cells[v]` to axis v, so
    the cells left, `idx`, are that grid's: they are the last level's when
    the minimum width or MAX_BOXES stopped the search, and none otherwise.
    """
    n = C.nvars
    side = max(1, round(INITIAL_BOXES ** (1.0 / n)))
    idx = np.stack(np.meshgrid(*[np.arange(side)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    cells = np.full(n, side)
    proved = [(np.empty((0, n)),) * 2]
    examined = 0
    while len(idx) and examined + len(idx) <= MAX_BOXES:
        lo, hi = _corners(box, idx, cells)
        examined += len(idx)
        diag.boxes += len(idx)
        excluded, ok, klo, khi, *_ = _classify_all(C, lo, hi)
        diag.excluded += int(excluded.sum())
        diag.proved += int(ok.sum())
        proved.append(_next_box(klo[ok], khi[ok], lo[ok], hi[ok]))
        idx = idx[~excluded & ~ok]
        if np.all(cells * MIN_WIDTH >= 1.0):
            break
        v = int(np.argmin(cells))  # the axes in turn, so every box of a level has one shape
        idx = np.repeat(idx, 2, axis=0)
        idx[:, v] *= 2
        idx[1::2, v] += 1
        cells[v] *= 2
    return [np.concatenate(a) for a in zip(*proved)], idx, cells


def _unresolved(C: CompiledPolyVec, box: SearchBox, idx, cells, plo, phi, diag: SearchDiagnostics):
    """The next boxes (_next_box) of the clusters' hulls that prove a zero, and the records of the other clusters.

    A hull that meets no box [plo, phi] about a proved zero and no cell
    outside its cluster holds that cluster's zeros only, so it is classified
    as one box: excluded, it holds none; proved, its next box joins those
    about the proved zeros, returned as (lo, hi) arrays.  Each other cluster
    is a record that is not simple, at the centre of its cell with the least
    residual.
    """
    lo, hi = _corners(box, idx, cells)
    label = _clusters(idx)
    clusters = [label == lab for lab in np.unique(label)]
    hulls = np.array([(lo[m].min(axis=0), hi[m].max(axis=0)) for m in clusters])
    free = np.array([not _overlaps(*h, lo[~m], hi[~m]) and not _overlaps(*h, plo, phi)
                     for h, m in zip(hulls, clusters)])
    Hlo, Hhi = hulls[free, 0], hulls[free, 1]
    diag.boxes += len(Hlo)
    excluded, ok, klo, khi, *_ = _classify(C, Hlo, Hhi)
    diag.excluded += int(excluded.sum())
    diag.proved += int(ok.sum())
    free[free] = excluded | ok
    centres = 0.5 * lo + 0.5 * hi
    res = np.max(np.abs(C.values(centres)), axis=1)
    best = []
    for m in (m for m, f in zip(clusters, free) if not f):
        diag.unresolved += int(m.sum())
        at = np.flatnonzero(m)
        best.append(at[np.argmin(res[at])])
    points = centres[best]
    dets = np.linalg.det(C.jacobians(points))
    left = [ZeroRecord(x, r, d, False) for x, r, d in zip(points, res[best].tolist(), dets.tolist())]
    return _next_box(klo[ok], khi[ok], Hlo[ok], Hhi[ok]), left


def _locate(C: CompiledPolyVec, lo, hi, diag: SearchDiagnostics):
    """The record of the zero in each box [lo, hi], each about one proved zero, by X <- K(X) ∩ X.

    All boxes go to their next boxes (_next_box) in one batch.  A box stops
    when G(c) at its centre c is settled, and its record is simple: max|G(c)|
    below RESIDUAL_TOL, or every |G_i(c)| within its rounding bound.  It also
    stops when its next box is not a tenth narrower on the widest side: once
    K is at its round-off floor, _next_box gives about X back.  The record
    is c, with G(c) and det J(c) from the same enclosure.
    """
    nus, residuals, dets, settled = np.empty_like(lo), np.empty(len(lo)), np.empty(len(lo)), np.zeros(len(lo), bool)
    live = np.arange(len(lo))
    while live.size:
        diag.contractions += live.size
        _, _, klo, khi, value, err, det = _classify(C, lo, hi)
        res = np.max(np.abs(value), axis=1)
        done = (res < RESIDUAL_TOL) | np.all(np.abs(value) <= err, axis=1)
        nus[live], residuals[live], dets[live], settled[live] = 0.5 * lo + 0.5 * hi, res, det, done
        klo, khi = _next_box(klo, khi, lo, hi)
        go = (np.max(khi - klo, axis=1) < 0.9 * np.max(hi - lo, axis=1)) & ~done
        live, lo, hi = live[go], klo[go], khi[go]
    return [ZeroRecord(x, r, d, s) for x, r, d, s in zip(nus, residuals.tolist(), dets.tolist(), settled.tolist())]


def find_simple_zeros(F: PolyVec, box: SearchBox, diagnostics: SearchDiagnostics | None = None) -> list:
    """F's zeros in the box that are proved simple, and every region left unresolved; sorted.

    When every record is simple, they are all of F's zeros in the box;
    otherwise the simple records are only a proved lower bound on their
    number.  The search, the residuals and det J are those of the r-free
    system (module docstring), which has F's zeros on the box.  When one of
    its components is constant it has no isolated zero: nothing is searched
    and no record returned.
    """
    if len(F) != F.nvars:
        raise ValueError(f"system is not square: {len(F)} equations, {F.nvars} variables")
    if box.dim != F.nvars:
        raise ValueError(f"box dimension {box.dim} does not match system dimension {F.nvars}")
    diag = diagnostics if diagnostics is not None else SearchDiagnostics()

    G = PolyVec([_r_free(p) for p in F])
    if any(p.degree() <= 0 for p in G):
        return []  # a constant component: G, so F on the box, has no isolated zero
    C = CompiledPolyVec.of(G)
    (plo, phi), idx, cells = _bisect(C, box, diag)
    left = []
    if len(idx):
        hulls, left = _unresolved(C, box, idx, cells, plo, phi, diag)
        plo, phi = (np.concatenate(a) for a in zip((plo, phi), hulls))
    records = sorted(_locate(C, plo, phi, diag) + left, key=lambda rec: tuple(rec.nu))

    bez = bezout_bound(F)
    count = sum(1 for rec in records if rec.simple)
    if bez and count > bez:
        raise CountExceedsBoundError(f"found {count} simple zeros but the Bezout bound is {bez}")
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

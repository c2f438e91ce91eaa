"""Sparse multivariate polynomials over the averaged-function variables.

Variables are ordered (r, z_1, ..., z_m); a monomial is a dense exponent
tuple of length nvars.  Coefficients below PRUNE_TOL are dropped so that
round-off from the integral kernels does not accumulate into spurious terms.

CompiledPolyVec is the package's one compiled evaluator: it turns a list of
sparse exponent -> coefficient maps (a PolyVec's terms, or the coefficient
tables of a system spec, which are compiled as stored and never pruned) into
dense exponent and coefficient arrays that give values and Jacobians for a
whole batch of points from one table of powers, built by repeated products
because float pow costs about 30 times a multiply per element.  It also
encloses the values and the Jacobian over a whole batch of boxes, with
every rounding error bounded, for the interval root search.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

PRUNE_TOL = 1e-15
UNIT_ROUNDOFF = 2.0**-53


def gamma(k: int) -> float:
    """A bound on the relative rounding error of a float sum of k products.

    Higham's gamma_k = k*u / (1 - k*u) (Accuracy and Stability of Numerical
    Algorithms, section 3.1), taken at k + 2 so that scaling a radius by
    1 + gamma(k) also covers the rounding of that scaling.
    """
    k += 2
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


class Poly:
    """Sparse polynomial: dict of exponent-tuple -> float coefficient.

    Monomials are checked where they enter, by the constructor and
    `_accum`.  Copies, sums, differences, products, scalings and
    derivatives combine terms that are already checked, through `_add`,
    which prunes the same way.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict = {}
        if terms:
            for mono, c in dict(terms).items():
                self._accum(mono, c)

    def _accum(self, mono, c):
        if len(mono) != self.nvars:
            raise ValueError(f"monomial {mono} has wrong length for nvars={self.nvars}")
        if min(mono, default=0) < 0:
            raise ValueError(f"negative exponent in monomial {mono}")
        self._add(mono, c)

    def _add(self, mono, c):
        """Add c to a checked monomial's coefficient, dropping it below PRUNE_TOL."""
        v = self.terms.get(mono, 0.0) + c
        if abs(v) < PRUNE_TOL:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = v

    @classmethod
    def constant(cls, nvars: int, c: float) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, idx: int) -> "Poly":
        mono = tuple(1 if k == idx else 0 for k in range(nvars))
        return cls(nvars, {mono: 1.0})

    def copy(self) -> "Poly":
        out = Poly(self.nvars)
        out.terms = dict(self.terms)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def __iadd__(self, other: "Poly") -> "Poly":
        """Add other's terms into this polynomial, in place."""
        self._check(other)
        for mono, c in other.terms.items():
            self._add(mono, c)
        return self

    def __add__(self, other: "Poly") -> "Poly":
        out = self.copy()
        out += other
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "Poly":
        out = Poly(self.nvars)
        for mono, v in self.terms.items():
            out._add(mono, v * c)
        return out

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = Poly(self.nvars)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out._add(tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        return out

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def diff(self, var: int) -> "Poly":
        if not (0 <= var < self.nvars):
            raise ValueError(f"variable index {var} out of range for nvars={self.nvars}")
        out = Poly(self.nvars)
        for mono, c in self.terms.items():
            e = mono[var]
            if e > 0:
                out._add(mono[:var] + (e - 1,) + mono[var + 1:], c * e)
        return out

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.nvars,):
            raise ValueError(f"point has shape {point.shape}, expected ({self.nvars},)")
        # summed in insertion order, which is deterministic
        total = 0.0
        for mono, val in self.terms.items():
            for x, e in zip(point, mono):
                if e:
                    val *= x**e
            total += val
        return total

    def pretty(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = ["r"] + [f"z{k}" for k in range(1, self.nvars)]
        # graded lexicographic order
        parts = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), tuple(-e for e in m))):
            c = self.terms[mono]
            factors = [f"{c:.12g}"]
            for nm, e in zip(names, mono):
                if e == 1:
                    factors.append(nm)
                elif e > 1:
                    factors.append(f"{nm}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.pretty()})"


class PolyVec:
    """Ordered list of polynomials sharing the same variables."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("PolyVec must be nonempty")
        n = components[0].nvars
        if any(p.nvars != n for p in components):
            raise ValueError("components have differing variable counts")
        self.components = components

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __call__(self, point):
        return np.array([p(point) for p in self.components])

    def pretty(self, names=None) -> str:
        return "\n".join(f"[{k}] {p.pretty(names)}" for k, p in enumerate(self.components))


class CompiledPolyVec:
    """Polynomials in nvars variables as arrays, evaluated on a batch of points.

    Built from one exponent-tuple -> coefficient dict per component, taken
    as given (no pruning).  `exps[t]` is the t-th monomial of the sorted
    union of the components' monomials and `coef[i, t]` its coefficient in
    component i; `dcoef[j]` holds the coefficients of d/dx_j of those terms.
    A batch of points (B, nvars) becomes a flat table of powers with
    K = npow columns per variable, column v*K + e holding x_v**e = x_v**(e-1) * x_v.
    Each monomial is the product of its nvars columns (`cols[t]`, or
    `dcols[j, t]` for the derivative terms) and each value a matrix
    product with the coefficients.
    """

    __slots__ = ("nvars", "exps", "coef", "dcoef", "npow", "cols", "dcols", "_plan")

    def __init__(self, nvars: int, components):
        n = self.nvars = nvars
        monos = sorted(set().union(*components))
        self.exps = np.array(monos, dtype=np.intp).reshape(len(monos), n)
        coef = [[c.get(mo, 0.0) for mo in monos] for c in components]
        self.coef = np.array(coef).reshape(len(components), len(monos))
        self.npow = int(self.exps.max(initial=0)) + 1
        offsets = np.arange(n) * self.npow
        self.cols = offsets + self.exps
        # d/dx_j takes c * x^e to (c * e_j) * x^(e - unit_j); a term free of
        # x_j gets coefficient 0, so its clipped exponent never matters
        self.dcols = offsets + np.maximum(self.exps[None] - np.eye(n, dtype=np.intp)[:, None], 0)
        self.dcoef = self.coef[None] * self.exps.T[:, None]
        self._plan = None

    @classmethod
    def of(cls, F: PolyVec) -> "CompiledPolyVec":
        """Compile a PolyVec's (already pruned) terms."""
        return cls(F.nvars, [p.terms for p in F])

    def _powers(self, X, npow=None):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.nvars:
            raise ValueError(f"points have shape {X.shape}, expected (B, {self.nvars})")
        K = self.npow if npow is None else npow
        P = np.empty((len(X), self.nvars, K))
        P[:, :, 0] = 1.0
        for e in range(1, K):
            np.multiply(P[:, :, e - 1], X, out=P[:, :, e])
        return P.reshape(len(X), self.nvars * K)

    def values(self, X):
        """Component values at each point: shape (B, ncomponents)."""
        return self._powers(X)[:, self.cols].prod(axis=-1) @ self.coef.T

    def jacobians(self, X):
        """Jacobian at each point: shape (B, ncomponents, nvars)."""
        P = self._powers(X)
        cols = [P[:, dc].prod(axis=-1) @ c.T for dc, c in zip(self.dcols, self.dcoef)]
        return np.stack(cols, axis=-1)

    def _shift_plan(self):
        """The Taylor shift x^f = sum over e <= f of binom(f, e) c^(f-e) h^e, as arrays, built once.

        The shifted exponents e run over every exponent below a monomial,
        plus 0 and the unit vectors.  Returns (K, ones, dcols, shift, wcols,
        wweight): K powers per variable in the table; `ones[j]`, the index
        of the unit vector e_j; `dcols`, the table columns of c^(f-e) for
        each (f, e) pair; `shift[0]` (pairs, components * exponents), each
        pair's weight binom(f, e) * coef, so that the pairs' powers of c
        times `shift[0]` are the coefficients of G(c + h) in h, and
        `shift[1]` = |shift[0]|; `wcols` and `wweight`, the columns and
        factors of h^e, the value's radius terms, and of e_j h^(e - e_j),
        those of d/dx_j (0 on e_j itself, its centre value).
        """
        if self._plan is None:
            n, K = self.nvars, max(self.npow, 2)  # the unit vectors need first powers
            units = [tuple(int(v == j) for v in range(n)) for j in range(n)]
            below = {e for f in self.exps.tolist() for e in itertools.product(*(range(k + 1) for k in f))}
            down = sorted(below | {(0,) * n} | set(units))
            at = {e: i for i, e in enumerate(down)}
            pairs = [(t, at[e], math.prod(map(math.comb, f, e)), [a - b for a, b in zip(f, e)])
                     for t, f in enumerate(self.exps.tolist())
                     for e in itertools.product(*(range(k + 1) for k in f))]
            offsets = np.arange(n) * K
            ncomp, T = self.coef.shape[0], len(down)
            pf, pe, pb, pd = (list(a) for a in zip(*pairs)) if pairs else ([], [], [], [])
            shift = np.zeros((len(pairs), ncomp, T))
            shift[np.arange(len(pairs)), :, pe] = np.array(pb, dtype=float)[:, None] * self.coef[:, pf].T
            D = np.array(down, dtype=np.intp).reshape(T, n)
            eye = np.eye(n, dtype=np.intp)
            wweight = np.concatenate([(D.sum(axis=1) > 0)[None], D.T], dtype=float)
            wweight[1 + np.arange(n), [at[u] for u in units]] = 0.0
            self._plan = (
                K,
                np.array([at[u] for u in units]),
                offsets + np.array(pd, dtype=np.intp).reshape(len(pairs), n),
                np.stack([shift, np.abs(shift)]).reshape(2, len(pairs), ncomp * T),
                offsets + np.concatenate([D[None], np.maximum(D[None] - eye[:, None], 0)]),
                wweight,
            )
        return self._plan

    def enclosures(self, lo, hi) -> "Enclosure":
        """The system over each box of a batch, expanded about the box's centre.

        lo and hi (B, nvars) are the boxes' corners.  With c the centre and
        h = x - c, G(c + h) = sum_e a_e h^e exactly (the Taylor shift), and
        |h_v| <= half_v bounds every term but a_0 by |a_e| half^e: the
        centred form, whose width shrinks with the box even where the
        monomial coefficients cancel heavily.  The a_e come from one gather
        of c's power table and one matrix product, and their rounding error,
        gamma * (|c^(f-e)| @ |shift|), joins every radius.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if lo.ndim != 2 or lo.shape[1] != self.nvars or hi.shape != lo.shape:
            raise ValueError(f"boxes have corners {lo.shape} and {hi.shape}, expected (B, {self.nvars})")
        K, ones, dcols, shift, wcols, wweight = self._shift_plan()
        B, n, k, T = len(lo), self.nvars, self.coef.shape[0], wweight.shape[1]
        c = 0.5 * lo + 0.5 * hi
        half = np.nextafter(np.maximum(c - lo, hi - c), np.inf)
        P = self._powers(np.concatenate([c, half]), K)
        M = P[:B, dcols].prod(axis=-1)
        A, Aerr = (np.stack([M, np.abs(M)]) @ shift).reshape(2, B, k, T)
        Aerr = Aerr * gamma(len(dcols) + 2 * n * K) + 1e-300
        # half^e and half^(e - unit_j), rounded down in at most n*K products
        W = P[B:, wcols].prod(axis=-1) * wweight * (1.0 + gamma(n * K + 1))
        rad = np.einsum("bie,bse->bsi", np.abs(A) + Aerr, W) * (1.0 + gamma(T + 3)) + 1e-300
        return Enclosure(c, half, A[:, :, 0], Aerr[:, :, 0], Aerr[:, :, 0] + rad[:, 0],
                         A[:, :, ones], Aerr[:, :, ones] + rad[:, 1:].transpose(0, 2, 1))


class Enclosure(NamedTuple):
    """A compiled system over a batch of boxes, about each box's centre c.

    Each box lies within half of its centre.  The exact G(c) lies within
    value_err of value; at every point of the box G lies within value_rad
    of value, and the Jacobian within jac_rad of jac, J(c) as computed.
    Shapes: (B, nvars) for centre and half, (B, ncomponents) for the
    values, (B, ncomponents, nvars) for the Jacobians.
    """

    centre: np.ndarray
    half: np.ndarray
    value: np.ndarray
    value_err: np.ndarray
    value_rad: np.ndarray
    jac: np.ndarray
    jac_rad: np.ndarray


def jacobian(F: PolyVec, point):
    """Jacobian matrix of a square system at a point, and its determinant."""
    n = len(F)
    if F.nvars != n:
        raise ValueError(f"system is not square: {n} equations, {F.nvars} variables")
    J = CompiledPolyVec.of(F).jacobians(np.asarray(point, dtype=float).reshape(1, -1))[0]
    return J, float(np.linalg.det(J))


def bezout_bound(F: PolyVec) -> int:
    """Product of total degrees; 0 for a system with an unsolvable or degenerate row."""
    bound = 1
    for p in F.components:
        d = p.degree()
        if d <= 0:
            # nonzero constant: no solutions; zero polynomial: degenerate row
            return 0
        bound *= d
    return bound

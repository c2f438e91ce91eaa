"""Sparse multivariate polynomials over the averaged-function variables.

Variables are ordered (r, z_1, ..., z_m); a monomial is a dense exponent
tuple of length nvars.  Coefficients below PRUNE_TOL are dropped so that
round-off from the integral kernels does not accumulate into spurious terms.

For repeated evaluation a PolyVec is compiled to a CompiledPolyVec: dense
exponent and coefficient arrays that give values and Jacobians for a whole
batch of points from one table of powers.
"""

from __future__ import annotations

import numpy as np

PRUNE_TOL = 1e-15


class Poly:
    """Sparse polynomial: dict of exponent-tuple -> float coefficient."""

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
        if any(e < 0 for e in mono):
            raise ValueError(f"negative exponent in monomial {mono}")
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
        return Poly(self.nvars, self.terms)

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol <= 0.0:
            return not self.terms
        return all(abs(c) <= tol for c in self.terms.values())

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = self.copy()
        for mono, c in other.terms.items():
            out._accum(mono, c)
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1.0)

    def scaled(self, c: float) -> "Poly":
        return Poly(self.nvars, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = Poly(self.nvars)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out._accum(tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
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
                m2 = tuple(v - 1 if k == var else v for k, v in enumerate(mono))
                out._accum(m2, c * e)
        return out

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.nvars,):
            raise ValueError(f"point has shape {point.shape}, expected ({self.nvars},)")
        # deterministic summation order for reproducibility
        total = 0.0
        for mono in sorted(self.terms):
            val = self.terms[mono]
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
    """A PolyVec as arrays, evaluated on a batch of points at once.

    `exps[t]` is the t-th monomial of the sorted union of the components'
    monomials and `coef[i, t]` its coefficient in component i.  For each
    variable j, `dexps[j]` and `dcoef[j]` hold d/dx_j of those terms in the
    same layout.  A batch of points (B, nvars) becomes a table of powers
    x_v**e, each monomial a product of table entries, and each value a
    matrix product with the coefficients.
    """

    __slots__ = ("nvars", "exps", "coef", "dexps", "dcoef")

    def __init__(self, F: PolyVec):
        n = self.nvars = F.nvars
        monos = sorted(set().union(*(p.terms for p in F)))
        self.exps = np.array(monos, dtype=np.intp).reshape(len(monos), n)
        self.coef = np.array([[p.terms.get(mo, 0.0) for mo in monos] for p in F]).reshape(len(F), len(monos))
        # d/dx_j takes c * x^e to (c * e_j) * x^(e - unit_j); a term free of
        # x_j gets coefficient 0, so its clipped exponent never matters
        self.dexps = np.maximum(self.exps[None] - np.eye(n, dtype=np.intp)[:, None], 0)
        self.dcoef = self.coef[None] * self.exps.T[:, None]

    def _powers(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.nvars:
            raise ValueError(f"points have shape {X.shape}, expected (B, {self.nvars})")
        return X[:, :, None] ** np.arange(self.exps.max(initial=0) + 1)

    def _monomials(self, P, exps):
        M = np.ones((P.shape[0], len(exps)))
        for v in range(self.nvars):
            M *= P[:, v, exps[:, v]]
        return M

    def values(self, X):
        """Component values at each point: shape (B, ncomponents)."""
        return self._monomials(self._powers(X), self.exps) @ self.coef.T

    def jacobians(self, X):
        """Jacobian at each point: shape (B, ncomponents, nvars)."""
        P = self._powers(X)
        cols = [self._monomials(P, e) @ c.T for e, c in zip(self.dexps, self.dcoef)]
        return np.stack(cols, axis=-1)


def jacobian(F: PolyVec, point):
    """Jacobian matrix of a square system at a point, and its determinant."""
    n = len(F)
    if F.nvars != n:
        raise ValueError(f"system is not square: {n} equations, {F.nvars} variables")
    J = CompiledPolyVec(F).jacobians(np.asarray(point, dtype=float).reshape(1, -1))[0]
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

"""Sparse multivariate polynomials over the averaged-function variables.

Variables are ordered (r, z_1, ..., z_m); a monomial is a dense exponent
tuple of length nvars.  Coefficients below PRUNE_TOL are dropped so that
round-off from the integral kernels does not accumulate into spurious terms.

CompiledPolyVec is the package's one compiled evaluator: it turns a list of
sparse exponent -> coefficient maps (a PolyVec's terms, or the coefficient
tables of a system spec, which are compiled as stored and never pruned) into
dense exponent and coefficient arrays that give values and Jacobians for a
whole batch of points from one table of powers, built by repeated products
because float pow costs about 30 times a multiply per element.
"""

from __future__ import annotations

import numpy as np

PRUNE_TOL = 1e-15


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

    __slots__ = ("nvars", "exps", "coef", "dcoef", "npow", "cols", "dcols")

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

    @classmethod
    def of(cls, F: PolyVec) -> "CompiledPolyVec":
        """Compile a PolyVec's (already pruned) terms."""
        return cls(F.nvars, [p.terms for p in F])

    def _powers(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.nvars:
            raise ValueError(f"points have shape {X.shape}, expected (B, {self.nvars})")
        P = np.empty((len(X), self.nvars, self.npow))
        P[:, :, 0] = 1.0
        for e in range(1, self.npow):
            np.multiply(P[:, :, e - 1], X, out=P[:, :, e])
        return P.reshape(len(X), self.nvars * self.npow)

    def values(self, X):
        """Component values at each point: shape (B, ncomponents)."""
        return self._powers(X)[:, self.cols].prod(axis=-1) @ self.coef.T

    def jacobians(self, X):
        """Jacobian at each point: shape (B, ncomponents, nvars)."""
        P = self._powers(X)
        cols = [P[:, dc].prod(axis=-1) @ c.T for dc, c in zip(self.dcols, self.dcoef)]
        return np.stack(cols, axis=-1)


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

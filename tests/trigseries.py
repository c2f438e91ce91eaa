"""The series algebra the tests compare the pipeline's closed forms against.

:class:`HarmonicSum` holds a finite sum of terms ``c * nu^mono * s^k *
e^(lam*s)``, where nu^mono is a monomial in the averaged-function variables
(r, z_1, ..., z_m), or () for a function of s alone, with products and
running integrals.  ``cos^p sin^q`` enters through the package's harmonic
linearization (:func:`trig_monomial`) and every integral through its
antiderivatives, so this route shares no code with avgcore's array builder
beyond those two.  The nested kernels and the parity lemma's vanishing
predictions are written on it; :func:`poly_diff` is the formal derivative
of a sparse polynomial, the reference for the compiled Jacobians.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from avgcycles.polyalg import Poly
from avgcycles.trigkernel import TWO_PI, KernelError, TrigKey, _antider_term, _harmonics


class HarmonicSum:
    """Finite sum of terms coeff * nu^mono * s^k * e^(lam*s).

    ``mono`` is the exponent tuple of nu = (r, z_1, ..., z_m), its r exponent
    possibly -1; the empty tuple () marks a function of s alone, and is the
    unit of the monomial product.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # key (mono, k, lam), value complex coefficient
        self.terms: dict = dict(terms) if terms else {}

    def _accum(self, mono, k, lam, c):
        key = (mono, k, lam)
        v = self.terms.get(key, 0.0j) + c
        if v == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = v

    def __mul__(self, other):
        out = HarmonicSum()
        for (m1, k1, l1), c1 in self.terms.items():
            for (m2, k2, l2), c2 in other.terms.items():
                out._accum(_mono_product(m1, m2), k1 + k2, l1 + l2, c1 * c2)
        return out

    def antiderivative(self) -> "HarmonicSum":
        out = HarmonicSum()
        for (mono, k, lam), c in self.terms.items():
            for (k2, l2), c2 in _antider_term(k, lam):
                out._accum(mono, k2, l2, c * c2)
        return out

    def integral_from_zero(self) -> "HarmonicSum":
        """The running integral over [0, s]: the antiderivative vanishing at s = 0."""
        anti = self.antiderivative()
        for mono, v in anti._by_mono(0.0).items():
            anti._accum(mono, 0, 0.0j, -v)
        return anti

    def _by_mono(self, s: float) -> dict:
        """Each nu-monomial's coefficient at s: {mono: complex}."""
        out = {}
        for (mono, k, lam), c in self.terms.items():
            out[mono] = out.get(mono, 0.0j) + c * s**k * cmath.exp(lam * s)
        return out

    def integrals(self, a: float, b: float) -> dict:
        """Integral over [a, b] (b may be below a) of each nu-monomial's coefficient: {mono: float}."""
        anti = self.antiderivative()
        lo = anti._by_mono(a)
        return {mono: (v - lo[mono]).real for mono, v in anti._by_mono(b).items()}

    def definite(self, a: float, b: float) -> float:
        """Integral over [a, b] of a function of s alone."""
        return self.integrals(a, b).get((), 0.0)


@lru_cache(maxsize=None)
def _mono_product(m1: tuple, m2: tuple) -> tuple:
    """Product of two nu-monomials: exponents add, () is the unit."""
    if not m1 or not m2:
        return m1 or m2
    return tuple(a + b for a, b in zip(m1, m2))


def trig_monomial(p: int, q: int, k: int = 0, lam: complex = 0.0j) -> HarmonicSum:
    """HarmonicSum of s^k e^(lam*s) cos^p(s) sin^q(s)."""
    out = HarmonicSum()
    for n, c in _harmonics(p, q):
        out._accum((), k, lam + 1j * n, c)
    return out


def _check_exponents(*es):
    if any(e < 0 for e in es):
        raise KernelError(f"exponents must be nonnegative, got {es}")


def nested_I(i: int, j: int, p: int, q: int, phi: float) -> float:
    """Integral over [0, phi] of cos^i s sin^j s * I_(p,q,s)."""
    _check_exponents(i, j, p, q)
    TrigKey(p, q, phi)  # validate phi range
    return (trig_monomial(i, j) * trig_monomial(p, q).integral_from_zero()).definite(0.0, phi)


def nested_J(i: int, j: int, p: int, q: int, phi: float) -> float:
    """Integral over [phi, 2*pi] of cos^i s sin^j s * I_(p,q,s)."""
    _check_exponents(i, j, p, q)
    TrigKey(p, q, phi)
    return (trig_monomial(i, j) * trig_monomial(p, q).integral_from_zero()).definite(phi, TWO_PI)


def lemma_vanish_predicate(interval: str, kind: str, exponents, phi: float) -> bool:
    """Parity-lemma prediction of whether a kernel integral vanishes.

    ``interval`` is "first" ([0, phi]) or "second" ([phi, 2*pi]); ``kind`` is
    "plain" for I/J or "nested" for the iterated integrals.  ``exponents`` is
    (p, q) for plain and (i, j, p, q) for nested.  The lemma covers phi = pi
    (both kinds) and phi = 2*pi (plain only); elsewhere nothing vanishes.
    """
    if interval not in ("first", "second"):
        raise ValueError(f"unknown interval {interval!r}")
    if kind == "plain":
        p, q = exponents
        _check_exponents(p, q)
    elif kind == "nested":
        i, j, p, q = exponents
        _check_exponents(i, j, p, q)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    at_pi = abs(phi - math.pi) < 1e-12
    at_2pi = abs(phi - TWO_PI) < 1e-12
    if not (at_pi or at_2pi):
        return False
    if at_2pi:
        if kind != "plain":
            raise ValueError("no vanishing prediction for nested integrals at phi=2*pi")
        if interval == "second":
            return True  # empty interval
        return not (p % 2 == 0 and q % 2 == 0)
    # phi = pi
    if kind == "plain":
        return p % 2 == 1
    # nested: the four parity cases all reduce to i odd and p odd
    return i % 2 == 1 and p % 2 == 1


def poly_diff(p: Poly, var: int) -> Poly:
    """d/d(nu_var) of a sparse polynomial, termwise."""
    if not (0 <= var < p.nvars):
        raise ValueError(f"variable index {var} out of range for nvars={p.nvars}")
    out = Poly(p.nvars)
    for mono, c in p.terms.items():
        e = mono[var]
        if e > 0:
            out._add(mono[:var] + (e - 1,) + mono[var + 1:], c * e)
    return out

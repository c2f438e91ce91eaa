"""Closed-form evaluation of trigonometric and exponential-weighted integrals.

Every coefficient of the averaged functions reduces to definite integrals of
``s^k * e^(mu*s) * cos^p(s) * sin^q(s)``.  These have finite closed forms:
``cos^p sin^q`` linearizes into complex harmonics ``e^(i*n*s)`` and each
``s^k e^(lam*s)`` term has an elementary antiderivative.  :class:`HarmonicSum`
is the one series type of that machinery: a finite sum of terms
``c * nu^mono * s^k * e^(lam*s)``, where nu^mono is a monomial in the
averaged-function variables (r, z_1, ..., z_m), or () for a function of s
alone.  The public kernels I, J and their nested forms are thin wrappers
over it, or over the memoized power-reduction recurrence for I.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

TWO_PI = 2.0 * math.pi

# Below this |lambda| the closed form has a 1/lambda cancellation; switch to a
# short Taylor expansion of e^(lam*s) instead.
_LAM_SMALL = 1e-8


class KernelError(ValueError):
    """Invalid integral key."""


@dataclass(frozen=True)
class TrigKey:
    p: int
    q: int
    phi: float

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise KernelError(f"exponents must be nonnegative, got p={self.p} q={self.q}")
        if not (0.0 < self.phi <= TWO_PI + 1e-12):
            raise KernelError(f"phi must lie in (0, 2*pi], got {self.phi}")


# ---------------------------------------------------------------------------
# Harmonic sums: finite sums of c * nu^mono * s^k * e^(lam*s), complex c and lam.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _harmonics(p: int, q: int) -> tuple:
    """Linearize cos^p(s) sin^q(s) into harmonics: tuple of (n, coeff)."""
    coeffs = {0: 1.0 + 0.0j}
    for _ in range(p):
        nxt = {}
        for n, c in coeffs.items():
            for dn, f in ((1, 0.5), (-1, 0.5)):
                nxt[n + dn] = nxt.get(n + dn, 0.0j) + c * f
        coeffs = nxt
    for _ in range(q):
        nxt = {}
        for n, c in coeffs.items():
            for dn, f in ((1, -0.5j), (-1, 0.5j)):
                nxt[n + dn] = nxt.get(n + dn, 0.0j) + c * f
        coeffs = nxt
    return tuple(sorted(coeffs.items()))


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

    def __add__(self, other):
        out = HarmonicSum(self.terms)
        for key, c in other.terms.items():
            out._accum(*key, c)
        return out

    def scaled(self, c):
        return HarmonicSum({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other):
        out = HarmonicSum()
        for (m1, k1, l1), c1 in self.terms.items():
            for (m2, k2, l2), c2 in other.terms.items():
                out._accum(_mono_product(m1, m2), k1 + k2, l1 + l2, c1 * c2)
        return out

    def shifted(self, lam):
        """Multiply by e^(lam*s)."""
        return HarmonicSum({(mono, k, l + lam): c for (mono, k, l), c in self.terms.items()})

    def diff(self, var: int) -> "HarmonicSum":
        """Formal derivative in nu_var: 0 is r, rho is z_rho."""
        out = HarmonicSum()
        for (mono, k, lam), c in self.terms.items():
            e = mono[var]
            if e:
                out._accum(mono[:var] + (e - 1,) + mono[var + 1 :], k, lam, c * e)
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

    def eval(self, s: float) -> complex:
        """Value at s of a function of s alone."""
        return self._by_mono(s).get((), 0.0j)

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


@lru_cache(maxsize=None)
def _antider_term(k: int, lam: complex) -> tuple:
    """Antiderivative of s^k e^(lam*s) as a tuple of ((k, lam), coeff) terms."""
    if lam == 0:
        return (((k + 1, 0.0j), 1.0 / (k + 1)),)
    if abs(lam) < _LAM_SMALL:
        # e^(lam*s) ~ sum lam^t s^t / t!; truncation error O(lam^6).
        out = []
        fact = 1.0
        lam_t = 1.0 + 0.0j
        for t in range(6):
            if t > 0:
                fact *= t
                lam_t *= lam
            out.append(((k + t + 1, 0.0j), lam_t / (fact * (k + t + 1))))
        return tuple(out)
    # integration by parts: F(k) = s^k e/lam - (k/lam) F(k-1)
    coeffs = [0.0j] * (k + 1)
    coeffs[k] = 1.0 / lam
    for j in range(k, 0, -1):
        coeffs[j - 1] = -j * coeffs[j] / lam
    return tuple(((j, lam), coeffs[j]) for j in range(k + 1))


def trig_monomial(p: int, q: int, k: int = 0, lam: complex = 0.0j) -> HarmonicSum:
    """HarmonicSum of s^k e^(lam*s) cos^p(s) sin^q(s)."""
    out = HarmonicSum()
    for n, c in _harmonics(p, q):
        out._accum((), k, lam + 1j * n, c)
    return out


# ---------------------------------------------------------------------------
# Public kernels.
# ---------------------------------------------------------------------------

_I_CACHE: dict = {}


def _trig_I(p: int, q: int, phi: float) -> float:
    """I_(p,q,phi) by the two-term power reduction recurrence, memoized."""
    key = (p, q, phi)
    hit = _I_CACHE.get(key)
    if hit is not None:
        return hit
    cphi = math.cos(phi)
    sphi = math.sin(phi)
    if p >= 2:
        val = (cphi ** (p - 1) * sphi ** (q + 1)) / (p + q) + (p - 1) / (p + q) * _trig_I(p - 2, q, phi)
    elif q >= 2:
        val = -(cphi ** (p + 1) * sphi ** (q - 1)) / (p + q) + (q - 1) / (p + q) * _trig_I(p, q - 2, phi)
    elif (p, q) == (0, 0):
        val = phi
    elif (p, q) == (1, 0):
        val = sphi
    elif (p, q) == (0, 1):
        val = 1.0 - cphi
    else:  # (1, 1)
        val = 0.5 * sphi * sphi
    _I_CACHE[key] = val
    return val


def trig_I(key: TrigKey) -> float:
    """Integral of cos^p s sin^q s over [0, phi]."""
    return _trig_I(key.p, key.q, key.phi)


def trig_J(key: TrigKey) -> float:
    """Integral of cos^p s sin^q s over [phi, 2*pi]."""
    return _trig_I(key.p, key.q, TWO_PI) - _trig_I(key.p, key.q, key.phi)


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


# ---------------------------------------------------------------------------
# Vanishing predictions of the parity lemma (test-suite support).
# ---------------------------------------------------------------------------


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

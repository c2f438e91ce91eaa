"""Closed-form evaluation of trigonometric and exponential-weighted integrals.

Every coefficient of the averaged functions reduces to definite integrals of
``s^k * e^(mu*s) * cos^p(s) * sin^q(s)``.  These have finite closed forms:
``cos^p sin^q`` linearizes into complex harmonics ``e^(i*n*s)``
(:func:`_harmonics`) and each ``s^k e^(lam*s)`` term has an elementary
antiderivative (:func:`_antider_term`).  The kernels I and J, the integrals
of cos^p sin^q over [0, phi] and [phi, 2*pi], come from the memoized
power-reduction recurrence.  :func:`gram_matrix` integrates, in one
vectorized pass, every product of a term of one basis of
``s^k * e^(lam*s)`` terms with a term of another, so that two series'
product integrates as a bilinear form of their coefficients; avgcore reads
every zone integral of r*f_2 from it.  This is the package's one route to
these integrals; the tests keep a symbolic series algebra as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
# Harmonics and antiderivatives of s^k * e^(lam*s), complex lam.
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


def gram_matrix(left, right, a: float, b) -> np.ndarray:
    """W[..., i, j] = integral over [a, b] of s^(k_i + k_j) e^((lam_i + lam_j)*s), for two bases of (k, lam) pairs.

    Each entry takes _antider_term's branch, so a series product integrates
    to C_F W C_G^T; an array of ends b, shape (..., 1, 1), gives one W per end.
    """
    (kl, ll), (kr, lr) = (np.array(basis, dtype=complex).reshape(-1, 2).T for basis in (left, right))
    k, lam = (kl.real[:, None] + kr.real).astype(int), ll[:, None] + lr
    big = np.abs(lam) >= _LAM_SMALL
    W, term = 0.0, np.where(big, 0.0, 1.0)  # small lam: e^(lam*s) ~ sum_t lam^t s^t / t!, one term at lam = 0
    for t in range(6 if np.any(~big & (lam != 0)) else 1):
        term = term * lam / t if t else term
        W = W + term * (b ** (k + t + 1) - a ** (k + t + 1)) / (k + t + 1)
    lb = np.where(big, lam, 1.0)
    eb, ea = np.exp(lb * b), np.exp(lb * a)
    run = (eb - ea) / lb  # else by parts: F(j) = (s^j e^(lam*s) - j F(j-1)) / lam
    for j in range(int(k.max(initial=0)) + 1):
        run = (b**j * eb - a**j * ea - j * run) / lb if j else run
        W = np.where(big & (k == j), run, W)
    return W


# ---------------------------------------------------------------------------
# Public kernels.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _trig_I(p: int, q: int, phi: float) -> float:
    """I_(p,q,phi) by the two-term power reduction recurrence, memoized."""
    cphi = math.cos(phi)
    sphi = math.sin(phi)
    if p >= 2:
        return (cphi ** (p - 1) * sphi ** (q + 1)) / (p + q) + (p - 1) / (p + q) * _trig_I(p - 2, q, phi)
    if q >= 2:
        return -(cphi ** (p + 1) * sphi ** (q - 1)) / (p + q) + (q - 1) / (p + q) * _trig_I(p, q - 2, phi)
    if (p, q) == (0, 0):
        return phi
    if (p, q) == (1, 0):
        return sphi
    if (p, q) == (0, 1):
        return 1.0 - cphi
    return 0.5 * sphi * sphi  # (1, 1)


def trig_I(key: TrigKey) -> float:
    """Integral of cos^p s sin^q s over [0, phi]."""
    return _trig_I(key.p, key.q, key.phi)


def trig_J(key: TrigKey) -> float:
    """Integral of cos^p s sin^q s over [phi, 2*pi]."""
    return _trig_I(key.p, key.q, TWO_PI) - _trig_I(key.p, key.q, key.phi)

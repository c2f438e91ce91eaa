"""Closed-form averaged functions and their quadrature oracle.

The first- and second-order averaged functions of a system are polynomials in
nu = (r, z_1, ..., z_m), assembled here exactly, each by one closed form.
f_1 is linear in the first-order tables: one map per (n, m, phi), cached
(:func:`_f1_map`), sums each table entry, weighted by a trigonometric
integral of :mod:`trigkernel`, into the one coefficient it reaches.  r*f_2
is the slave term plus, per zone, the integral of the order-2 field and of
one bilinear form of the zone's first-order fields, all built from arrays
of terms val * nu^a * cos^p(s) sin^q(s) (:class:`_Terms`), with d/dnu an
index map on them.  One Gram matrix gives every zone integral
(:func:`_zone_kernels`), and the bilinear form is one real matmul and one
bincount (:func:`_quadratic_rf2`), never a series product (the tests keep
that route as their reference).  An independent route, :func:`numeric_g`,
evaluates the same objects along the unperturbed flow; the two must agree
and the tests enforce it.  There each zone is one Chebyshev spectral rule
(Greengard, SIAM J. Numer. Anal. 28, 1991): every field is evaluated in one
batch at the Chebyshev-Lobatto nodes of the zone's angle interval, and the
spectral integration matrix gives y_1, y_2 and dy_1/dz_tail.  The integrands
are entire, so the rule converges geometrically in its node count N: from
N = 32, doubling, the 2N result is accepted once N and 2N agree to
QUAD_TOL * max(1, |y|_inf).

Conventions fixed here (and pinned against the oracle):

* the slave components use the exponential weight e^(-mu_w * s) derived from
  the fundamental matrix;
* ``numeric_g(order=2)`` returns the half-second-variation g_2 such that the
  displacement of the 2*pi return map is eps*g_1 + eps^2*g_2 + O(eps^3), and
  f_2 = 2*(d(xi g_1)/dv) gamma + 2*xi g_2;
* ``build_f2`` returns the polynomials r*f_2l (f_2l itself carries a 1/r
  term); their zeros with r > 0 are exactly the zeros of f_2.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

from .polyalg import PRUNE_TOL, CompiledPolyVec, Poly, PolyVec
from .sysspec import FIRST_ORDER, SECOND_ORDER, VECTOR_FAMILIES, SystemSpec, multi_indices
from .trigkernel import TWO_PI, TrigKey, _antider_term, _harmonics, gram_matrix, trig_I, trig_J

F1_ZERO_TOL = 1e-10
DEGENERATE_TOL = 1e-12
KERNEL_WEIGHT_TOL = 1e-12  # a row of f_1's map whose weights are all below this constrains nothing
QUAD_TOL = 1e-12  # the oracle's N and 2N Chebyshev results must agree to QUAD_TOL * max(1, |y|_inf)
NODE_START = 32  # N of the oracle's first N/2N comparison
NODE_CAP = 512  # largest N compared; past it the oracle raises QuadratureFailure


class DegenerateEigenvalueError(ValueError):
    """1 - e^(-2*pi*mu) is numerically singular for some tail eigenvalue."""


class FirstOrderNotZeroError(ValueError):
    """build_f2 requires the first-order averaged function to vanish."""


class QuadratureFailure(RuntimeError):
    """The oracle's Chebyshev rule did not converge: N and 2N still disagreed at the node cap."""


# ---------------------------------------------------------------------------
# zone fields as term arrays
# ---------------------------------------------------------------------------


@functools.cache
def _harmonic_table(n: int) -> np.ndarray:
    """cos^p(s) sin^q(s), p + q <= n + 1, over the harmonics e^(ihs), h = -(n+1)..n+1: row _pq(p, q)."""
    T = np.zeros((_pq(0, n + 2), 2 * n + 3), dtype=complex)
    for p, q in itertools.product(range(n + 2), repeat=2):
        for h, c in _harmonics(p, q) if p + q <= n + 1 else ():
            T[_pq(p, q), h + n + 1] = c
    return T


def _pq(p, q):
    return (p + q) * (p + q + 1) // 2 + q  # by total degree, then q


@functools.cache
def _mono_grid(n: int, m: int):
    """The nu-monomials of degree <= 2n + 1, their codes sum_v e_v (2n + 2)^v (a product's code is the sum
    of the codes) and the code -> position table."""
    monos = list(multi_indices(2 * n + 1, m + 1))
    codes = _codes(n, m, np.array(monos, dtype=np.intp).reshape(-1, m + 1))
    pos = np.full((2 * n + 2) ** (m + 1), -1, dtype=np.intp)
    pos[codes] = np.arange(len(monos))
    return monos, codes, pos


def _codes(n: int, m: int, E: np.ndarray) -> np.ndarray:
    return E[:, : m + 1] @ (2 * n + 2) ** np.arange(m + 1)  # of the nu-parts of exponent rows


class _Terms(NamedTuple):
    """Terms val * (r, z_1..z_d)^E * cos^p(s) sin^q(s) in component ``comp`` (0 angular with its 1/r left
    out, 1 radial, 1 + l z_l) of the field tagged ``tag``, one per row; pq = _pq(p, q)."""

    comp: np.ndarray
    pq: np.ndarray
    E: np.ndarray
    val: np.ndarray
    tag: np.ndarray


def _terms(fam, idx, val, tag) -> _Terms:
    """The terms of tagged table entries (fam 0 for a, 1 for b, 2 + l for c_l).

    At x = r cos s, y = r sin s: A_1 = (b cos s - a sin s)/r, A_2 = a cos s +
    b sin s and A_(l+2) = c_l, so an a or b entry gives two terms.
    """
    k = np.concatenate([np.arange(len(fam)), np.flatnonzero(fam < 2)])
    first, isa, isb = np.arange(len(k)) < len(fam), fam[k] == 0, fam[k] == 1
    comp = np.where(first, np.where(fam[k] < 2, 0, fam[k]), 1)
    p, q = idx[k, 0] + np.where(first, isb, isa), idx[k, 1] + np.where(first, isa, isb)
    E = np.column_stack([idx[k, 0] + idx[k, 1], idx[k, 2:]])
    return _Terms(comp, _pq(p, q), E, np.where(first & isa, -val[k], val[k]), tag[k])


def _spec_terms(spec: SystemSpec, order: int) -> _Terms:
    """The terms of both zones' tables of one order, tagged 0 in the plus zone and 1 in the minus zone."""
    fam_a, fam_b, fam_c = FIRST_ORDER if order == 1 else SECOND_ORDER
    tables = [t.entries for sign in ("+", "-")
              for t in (spec.table(fam_a, sign), spec.table(fam_b, sign), *spec.tables[fam_c + sign])]
    sizes, chain = list(map(len, tables)), itertools.chain.from_iterable
    idx = np.fromiter(chain(chain(tables)), dtype=np.intp, count=sum(sizes) * (spec.d + 2)).reshape(-1, spec.d + 2)
    val = np.fromiter(chain(t.values() for t in tables), dtype=float, count=len(idx))
    zone = np.repeat([0, 1], [sum(sizes[: spec.d + 2]), sum(sizes[spec.d + 2 :])])
    return _terms(np.repeat(np.tile(np.arange(spec.d + 2), 2), sizes), idx, val, zone)


def _jacobian_terms(n: int, m: int, terms: _Terms):
    """(t, ell, code, pq, val, tag): -F_l (t = 0) and dF_l/d(r, z_1..z_d)[t - 1] at tail z = 0, l <= m.

    F_0 is the radial component and F_l the z_l one: the bilinear form's right factors.
    """
    E, live = terms.E, (terms.comp >= 1) & (terms.comp <= m + 1)
    tail = E[:, m + 1 :].sum(axis=1)
    # a head derivative keeps the tail-free terms, a tail derivative the terms linear in that tail
    e, v = np.nonzero(live[:, None] & (E > 0) & (tail[:, None] == (np.arange(E.shape[1]) > m)))
    k = np.concatenate([np.flatnonzero(live & (tail == 0)), e])
    t, f = np.concatenate([np.zeros(len(k) - len(e), dtype=np.intp), v + 1]), k[: len(k) - len(e)]
    lowered = np.concatenate([E[f], E[e] - np.eye(E.shape[1], dtype=np.intp)[v]])
    val = np.concatenate([-terms.val[f], terms.val[e] * E[e, v]])
    return t, terms.comp[k] - 1, _codes(n, m, lowered), terms.pq[k], val, terms.tag[k]


def _running_map(n: int, mu: float):
    """(columns, M): row h + n + 1 of M is e^(mu*s) int_0^s e^(-mu*u) e^(ihu) du on the (k, lam) columns.

    mu = 0 gives y_1 of a field, a tail's mu its y_1 by variation of constants.
    """
    cols, entries = {}, []
    for row, h in enumerate(range(-n - 1, n + 2)):
        for (k, lam), c in _antider_term(0, complex(-mu, h)):
            entries.append((row, cols.setdefault((k, lam + mu), len(cols)), c))
            if k == 0:
                entries.append((row, cols.setdefault((0, complex(mu)), len(cols)), -c))
    M = np.zeros((2 * n + 3, len(cols)), dtype=complex)
    for row, col, c in entries:
        M[row, col] += c
    return list(cols), M


_ZONE_SIGN = np.array([1.0, -1.0])  # g takes the minus zone (tag 1 of _spec_terms) negated


def _integrals(spec: SystemSpec, K: np.ndarray, rows, nrows: int, zone, code, pq, val) -> np.ndarray:
    """Each term's val * nu^code * K[zone, pq], summed onto (nrows, mono grid) by its row."""
    monos, _, pos = _mono_grid(spec.n, spec.m)
    return np.bincount(rows * len(monos) + pos[code], val * K[zone, pq], len(monos) * nrows).reshape(nrows, -1)


def _zone_kernels(spec: SystemSpec):
    """(Q, K): both zones' integrals, from one Gram matrix evaluation against the harmonics e^(ihs).

    Q[zone, t] = Re(H M_t W_t H^T), H the _harmonic_table, M_0 = I, M_t the
    _running_map at variable t's mu and W_t the Gram matrix of M_t's columns
    against the harmonics: the table values are real, so left factor t times
    right factor t, vectors over pq, integrates to left Q_t right^T.
    K[shift][zone] holds the integrals of cos^p sin^q e^(shift*s).
    """
    n, dmu = spec.n, (0.0,) + spec.mu
    harm = [(0, complex(0, h)) for h in range(-n - 1, n + 2)]
    maps = {mu: _running_map(n, mu) for mu in dict.fromkeys(dmu)}
    shifts = list(dict.fromkeys([0.0] + [s for mu in spec.mu[spec.m :] for s in (mu, -mu)]))
    rows = {c: k for k, c in enumerate(dict.fromkeys(harm + [c for cols, _ in maps.values() for c in cols]
                                                       + [(0, complex(s)) for s in shifts]))}
    W = gram_matrix(list(rows), harm, 0.0, np.array([spec.phi, spec.phi - TWO_PI])[:, None, None])  # minus backward
    blocks = {mu: np.einsum("ij,zjk->zik", M, W[:, [rows[c] for c in cols]]) for mu, (cols, M) in maps.items()}
    G = np.stack([W[:, : len(harm)]] + [blocks[mu] for mu in dmu], axis=1)
    Hr, Hi = _harmonic_table(n).real, _harmonic_table(n).imag  # Re(H G H^T), in real arithmetic
    Q = Hr @ (G.real @ Hr.T - G.imag @ Hi.T) - Hi @ (G.real @ Hi.T + G.imag @ Hr.T)
    Ws = W[:, [rows[0, complex(s)] for s in shifts]]
    K = Ws.real @ Hr.T - Ws.imag @ Hi.T
    return Q, dict(zip(shifts, K.transpose(1, 0, 2)))


def _to_poly(n: int, m: int, vec: np.ndarray) -> Poly:
    """A coefficient vector over the mono grid as a Poly, pruned below PRUNE_TOL."""
    monos, keep = _mono_grid(n, m)[0], np.flatnonzero(np.abs(vec) >= PRUNE_TOL)
    out = Poly(m + 1)
    out.terms = dict(zip([monos[k] for k in keep.tolist()], vec[keep].tolist()))
    return out


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------


def _full_slots(n, m, families) -> list:
    """Every entry of total degree <= n of the given families in both zones; vector families per component.

    A slot is (family, sign, ell, idx), ell None for scalar families.  Entries
    run family by family, then component, then zone ("+" first), in sorted
    index order.
    """
    out, indices = [], sorted(multi_indices(n, m + 2))
    for fam in families:
        for ell in range(m) if fam in VECTOR_FAMILIES else (None,):
            for sign in ("+", "-"):
                out += [(fam, sign, ell, idx) for idx in indices]
    return out


def _slot_terms(slots) -> _Terms:
    """The terms of one unit first-order table entry per slot, each tagged by its place in ``slots``."""
    fam = np.array([2 + ell if f == "c" else "ab".index(f) for f, _, ell, _ in slots], dtype=np.intp)
    idx = np.array([slot[3] for slot in slots], dtype=np.intp)
    return _terms(fam, idx, np.ones(len(slots)), np.arange(len(slots)))


class _F1Map(NamedTuple):
    """f_1 as a linear map of the values x of the first-order slots ``slots`` (_full_slots, d = m).

    The coefficient of keys[k] = (component, monomial) in f_1 is the sum of
    weight[t] * x[col[t]] over the terms t of row[t] = k.  A weight is the
    integral I (zone +) or J (zone -) of the cos^p(s) sin^q(s) its entry
    carries at tail z = 0, so it depends on (n, m, phi) alone.  Every slot is
    the one term of exactly one key.  Terms run row by row and, in a row, by
    the entry's x exponent, then zone, then family; pivot[k] is the term of
    row k with the largest |weight|, ties going to the later slot.
    """

    slots: tuple
    keys: tuple
    row: np.ndarray
    col: np.ndarray
    weight: np.ndarray
    pivot: np.ndarray

    def coefficients(self, spec: SystemSpec) -> np.ndarray:
        """f_1's coefficient per key: the spec's slot values, tail exponents zero, through the map."""
        tail = (0,) * (spec.d - spec.m)
        x = np.array([spec.table(fam, sign, ell).get(idx + tail) for fam, sign, ell, idx in self.slots])
        return np.bincount(self.row, self.weight * x[self.col], len(self.keys))


@functools.cache
def _f1_map(n: int, m: int, phi: float) -> _F1Map:
    slots = tuple(_full_slots(n, m, FIRST_ORDER))
    T = _slot_terms(slots)
    f1 = T.comp >= 1  # the radial and z_l terms; the angular ones leave f_1
    col, key = T.tag[f1], np.column_stack([T.comp[f1] - 1, T.E[f1]])  # key: component, r exponent, z exponents
    zone = np.array([sign == "-" for _, sign, _, _ in slots], dtype=np.intp)[col]
    xexp = np.array([idx[0] for *_, idx in slots])[col]
    pq = [(t - q, q) for t in range(n + 2) for q in range(t + 1)]  # in _pq order
    W = np.array([[trig_I(TrigKey(p, q, phi)) for p, q in pq], [trig_J(TrigKey(p, q, phi)) for p, q in pq]])
    # rows by component, then z exponents, then r exponent
    order = np.lexsort((col, zone, xexp, key[:, 1], *key[:, :1:-1].T, key[:, 0]))
    col, key, weight = col[order], key[order], (W[zone, T.pq[f1]] * T.val[f1])[order]
    first = np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)])
    row = np.cumsum(first) - 1
    pivot = np.lexsort((col, np.abs(weight), row))[np.append(np.flatnonzero(first[1:]), len(row) - 1)]
    for a in (row, col, weight, pivot):
        a.flags.writeable = False  # the map is shared by every spec of its shape
    return _F1Map(slots, tuple((c, tuple(mono)) for c, *mono in key[first].tolist()), row, col, weight, pivot)


def build_f1(spec: SystemSpec) -> PolyVec:
    """Closed-form first-order averaged function (m+1 components in nu), linear in the first-order tables."""
    f1map = _f1_map(spec.n, spec.m, spec.phi)
    comps = [Poly(spec.m + 1) for _ in range(spec.m + 1)]
    for (comp, mono), c in zip(f1map.keys, f1map.coefficients(spec).tolist()):
        comps[comp]._accum(mono, c)
    return PolyVec(comps)


def project_to_kernel(spec: SystemSpec) -> SystemSpec:
    """Nearest spec with f_1 identically zero, solving each coefficient on its row's pivot entry.

    A row whose pivot weight is below KERNEL_WEIGHT_TOL has integrals that
    all vanish: it constrains nothing and is left as it is.
    """
    out, f1map, tail = spec.copy(), _f1_map(spec.n, spec.m, spec.phi), (0,) * (spec.d - spec.m)
    res, w = f1map.coefficients(spec), f1map.weight[f1map.pivot]
    for k in np.flatnonzero((np.abs(res) >= 1e-14) & (np.abs(w) >= KERNEL_WEIGHT_TOL)).tolist():
        fam, sign, ell, idx = f1map.slots[f1map.col[f1map.pivot[k]]]
        table = out.table(fam, sign, ell)
        table.set(idx + tail, table.get(idx + tail) - res[k] / w[k])
    return out


# ---------------------------------------------------------------------------
# slave components and second order
# ---------------------------------------------------------------------------


def _delta_entries(spec: SystemSpec):
    out = []
    for w in range(spec.m + 1, spec.d + 1):
        mu = spec.mu[w - 1]
        denom = 1.0 - math.exp(-TWO_PI * mu)
        if abs(denom) < DEGENERATE_TOL:
            raise DegenerateEigenvalueError(f"mu_{w} = {mu} makes 1 - e^(-2*pi*mu) vanish")
        out.append((w, mu, denom))
    return out


def _gammas(spec: SystemSpec, K: dict, terms: _Terms) -> list:
    """Slave components gamma_w, w = m+1..d, as vectors over the mono grid, from _zone_kernels' K."""
    out = []
    for w, mu, denom in _delta_entries(spec):
        T = _Terms(*(a[(terms.comp == w + 1) & ~terms.E[:, spec.m + 1 :].any(axis=1)] for a in terms))
        weight = -_ZONE_SIGN * np.array([1.0, math.exp(-TWO_PI * mu)]) / denom
        out.append(_integrals(spec, K[-mu], 0, 1, T.tag, _codes(spec.n, spec.m, T.E), T.pq, weight[T.tag] * T.val)[0])
    return out


def build_gamma(spec: SystemSpec) -> list:
    """Slave components gamma_w(nu) as polynomials, w = m+1..d."""
    return [_to_poly(spec.n, spec.m, g) for g in _gammas(spec, _zone_kernels(spec)[1], _spec_terms(spec, 1))]


def _quadratic_rf2(spec: SystemSpec, Q: np.ndarray, zone_of: np.ndarray, terms: _Terms, jac: tuple) -> np.ndarray:
    """The symmetrized quadratic part of r*f_2 for every pair of tagged fields, tag a in zone zone_of[a].

    X[a, b, l, k] is the coefficient of mono grid monomial k in 2*g of
    (B_l(F_a, F_b) + B_l(F_b, F_a)) / 2 over F_a's zone, F_a the first-order
    field tagged a; only pairs of one zone mean anything.  B_l(Z, Z) is the
    quadratic part of r*f_2l's integrand, Z the zone's fields, with

        B_l(F, G) = -A_1^F f_1l^G + grad(f_1l^G) . y_1^F = sum_t left_t^F right_lt^G,

    left_0 = A_1 and left_t (t >= 1) y_1 in variable t, r raised by one, and
    right_l the ``jac`` terms of component l.  Each side is one dense array
    of rows (tag, [l,] monomial) and columns (t, pq); through _zone_kernels'
    Q one real matmul and one bincount give X, zeroed below PRUNE_TOL.
    """
    n, m, ntag = spec.n, spec.m, len(zone_of)
    monos, _, pos = _mono_grid(n, m)
    npq, nt, ncode = _pq(0, n + 2), spec.d + 2, (2 * n + 2) ** (m + 1)

    def dense(key, t, code, pq, val):  # rows (key, code) x columns (t, pq)
        rows, row = np.unique(key * ncode + code, return_inverse=True)
        C = np.bincount((row * nt + t) * npq + pq, val, minlength=len(rows) * nt * npq)
        return rows // ncode, rows % ncode, C.reshape(len(rows), nt, npq)

    plain = ~terms.E[:, m + 1 :].any(axis=1)
    comp = terms.comp[plain]
    ltag, lcode, CL = dense(terms.tag[plain], comp, _codes(n, m, terms.E[plain]) + (comp > 0), terms.pq[plain],
                            terms.val[plain])
    t, ell, code, pq, val, tag = jac
    rkey, rcode, CR = dense(tag * (m + 1) + ell, t, code, pq, val)
    for z in range(2):  # each left row through its own zone's Q_t
        on = zone_of[ltag] == z
        CL[on] = np.matmul(CL[on].transpose(1, 0, 2), Q[z]).transpose(1, 0, 2)
    P = CL.reshape(len(ltag), nt * npq) @ CR.reshape(len(rkey), nt * npq).T

    pair = (ltag[:, None] * ntag + rkey // (m + 1)) * (m + 1) + rkey % (m + 1)
    flat = pair * len(monos) + pos[lcode[:, None] + rcode]
    shape = (ntag, ntag, m + 1, len(monos))
    X = np.bincount(flat.ravel(), P.ravel(), minlength=math.prod(shape)).reshape(shape)
    X = (X + X.transpose(1, 0, 2, 3)) * _ZONE_SIGN[zone_of][:, None, None, None]  # 2 * g of the half-sum
    X[np.abs(X) < PRUNE_TOL] = 0.0
    return X


def check_f1_zero(spec: SystemSpec):
    f1 = build_f1(spec)
    worst = max(p.max_coeff() for p in f1.components)
    if worst > F1_ZERO_TOL:
        raise FirstOrderNotZeroError(
            f"f_1 is not identically zero: largest polynomial coefficient {worst:.3e} exceeds {F1_ZERO_TOL:g}"
        )


def build_f2(spec: SystemSpec, check_f1: bool = True) -> PolyVec:
    """Second-order averaged function, returned as the polynomials r*f_2l.

    Requires f_1 to vanish identically (kernel-projected spec).  Components
    have total degree <= 2n; divide values by r to evaluate f_2 itself.
    Component l is the slave term 2*r*(dg_1l/dz_tail) gamma plus, per zone,
    2*g of the order-2 field and of the quadratic part B_l(Z, Z).
    """
    if check_f1:
        check_f1_zero(spec)
    n, m = spec.n, spec.m
    (Q, K), T = _zone_kernels(spec), _spec_terms(spec, 1)
    jac = _jacobian_terms(n, m, T)
    X = _quadratic_rf2(spec, Q, np.arange(2), T, jac)  # one tag per zone
    total = X[0, 0] + X[1, 1]

    def two_g(shift, ell, code, pq, val, zone):  # 2*g of terms times e^(shift*s), r raised by one, per component
        return _integrals(spec, K[shift], ell, m + 1, zone, code + 1, pq, 2.0 * _ZONE_SIGN[zone] * val)

    T2 = _spec_terms(spec, 2)
    T2 = _Terms(*(a[(T2.comp >= 1) & (T2.comp <= m + 1) & ~T2.E[:, m + 1 :].any(axis=1)] for a in T2))
    total += two_g(0.0, T2.comp - 1, _codes(n, m, T2.E), T2.pq, T2.val, T2.tag)
    # 2*r*(d(g_1l)/dz_w) gamma_w, the tail derivative of f_1l carried along e^(mu_w*s)
    monos, codes, pos = _mono_grid(n, m)
    for w, gamma in enumerate(_gammas(spec, K, T), start=m + 1):
        dg = two_g(spec.mu[w - 1], *(a[jac[0] == w + 1] for a in jac[1:]))
        i, j = np.flatnonzero(dg.any(axis=0)), np.flatnonzero(gamma)
        flat = np.arange(m + 1)[:, None, None] * len(monos) + pos[codes[i][:, None] + codes[j]]
        total += np.bincount(flat.ravel(), (dg[:, i, None] * gamma[j]).ravel(), total.size).reshape(total.shape)
    return PolyVec([_to_poly(n, m, row) for row in total])


@dataclass
class AveragedSystem:
    """Averaged functions of one spec: f_1, and r*f_2 when f_1 vanishes."""

    spec: SystemSpec
    f1: PolyVec
    rf2: PolyVec | None = None


def build_averaged_system(spec: SystemSpec) -> AveragedSystem:
    f1 = build_f1(spec)
    rf2 = None
    if max(p.max_coeff() for p in f1.components) <= F1_ZERO_TOL:
        rf2 = build_f2(spec, check_f1=False)
    return AveragedSystem(spec, f1, rf2)


# ---------------------------------------------------------------------------
# numeric oracle: integration along the unperturbed flow
# ---------------------------------------------------------------------------


def _Y_diag(spec: SystemSpec, theta) -> np.ndarray:
    """Fundamental matrix diagonal (a row per angle for K angles): 1 on r, z_1..z_m, e^(mu_w*theta) on the tail."""
    return np.exp(np.multiply.outer(theta, (0.0,) + spec.mu))


def flow(spec: SystemSpec, theta, zz: np.ndarray) -> np.ndarray:
    """Unperturbed flow from (r, z) at time theta (or at each of K angles): tail scales by e^(mu*theta)."""
    return _Y_diag(spec, theta) * zz


def compile_fields(spec: SystemSpec, order, sign: str) -> CompiledPolyVec:
    """One zone's perturbation tables, compiled over (x, y, z_1, ..., z_d).

    The components are a, b, c_1..c_d for order 1 and alpha, beta,
    gamma_1..gamma_d for order 2; order (1, 2) stacks both, order 1's first.
    """
    tables = []
    for o in (order,) if isinstance(order, int) else order:
        fam_a, fam_b, fam_c = FIRST_ORDER if o == 1 else SECOND_ORDER
        tables += [spec.table(fam_a, sign), spec.table(fam_b, sign), *spec.tables[fam_c + sign]]
    return CompiledPolyVec(spec.d + 2, [t.entries for t in tables])


def _cylindrical(vals: np.ndarray, cx, sx, r) -> np.ndarray:
    """Table values (a, b, c_1..c_d) at a point -> cylindrical components, in place."""
    va, vb = vals[0], vals[1]
    vals[0], vals[1] = (vb * cx - va * sx) / r, va * cx + vb * sx
    return vals


def _node_points(s: np.ndarray, X: np.ndarray):
    """cos(s), sin(s) and the points (r cos s, r sin s, z) of K angles s and states X (K, d+1)."""
    cx, sx = np.cos(s), np.sin(s)
    return cx, sx, np.column_stack([X[:, 0] * cx, X[:, 0] * sx, X[:, 1:]])


def _node_fields(C: CompiledPolyVec, s: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Cylindrical field components (A or B), numbered 1..d+2, at K angles s and states X: (K, d+2).

    ``C`` is the zone's compile_fields vector of the wanted order.
    """
    cx, sx, points = _node_points(s, X)
    return _cylindrical(C.values(points).T, cx, sx, X[:, 0]).T


def _F1_of(spec: SystemSpec, A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """First-order theta-time field (K, d+1) from the order-1 fields A at K states X."""
    return A[:, 1:] - np.array((0.0,) + spec.mu) * X * A[:, :1]


def _F2_of(spec: SystemSpec, A: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Second-order theta-time field (K, d+1) from the order-1 and -2 fields A, B at K states X."""
    return B[:, 1:] - A[:, :1] * A[:, 1:] + np.array((0.0,) + spec.mu) * X * (A[:, :1] ** 2 - B[:, :1])


def _F1_jacobians(spec: SystemSpec, C1: CompiledPolyVec, s: np.ndarray, X: np.ndarray):
    """The fields A (K, d+2) and the analytic Jacobians of F_1 wrt (r, z), (K, d+1, d+1), at K nodes."""
    A = _node_fields(C1, s, X)
    cx, sx, points = _node_points(s, X)
    G = C1.jacobians(points)
    # gradients wrt (x, y, z) -> wrt (r, z) along x = r cos, y = r sin, then
    # rotated like the fields: g[:, 0] is grad(r*A_1)/r, g[:, 1:] grad A_2..A_{d+2}
    g = G[:, :, 1:].copy()
    g[:, :, 0] = cx[:, None] * G[:, :, 0] + sx[:, None] * G[:, :, 1]
    _cylindrical(g.transpose(1, 0, 2), cx[:, None], sx[:, None], X[:, :1])
    g[:, 0, 0] -= A[:, 0] / X[:, 0]
    dmu = np.array((0.0,) + spec.mu)
    J = g[:, 1:] - (dmu * X)[:, :, None] * g[:, :1]
    diag = np.arange(spec.d + 1)
    J[:, diag, diag] -= dmu * A[:, :1]
    return A, J


@functools.cache
def _cheb_rule(N: int):
    """Chebyshev-Lobatto nodes x_j = -cos(pi*j/N) on [-1, 1] and the cumulative-integration matrix S.

    (S @ f)[j] is the integral over [-1, x_j] of the degree-N interpolant of
    the node values f, so S[-1] holds the Clenshaw-Curtis weights.
    """
    x = -np.cos(np.pi * np.arange(N + 1) / N)
    S = chebvander(x, N + 1) @ chebint(np.eye(N + 1), lbnd=-1) @ np.linalg.inv(chebvander(x, N))
    return x, S


def _zone_samples(spec: SystemSpec, fields: list, s: np.ndarray, zz: np.ndarray):
    """Y and F_1 at the angles s; with the order-2 tables also F_2 and the Jacobians J of F_1."""
    Y = _Y_diag(spec, s)
    X = flow(spec, s, zz)
    if len(fields) == 1:
        return Y, _F1_of(spec, _node_fields(fields[0], s, X), X)
    A, J = _F1_jacobians(spec, fields[0], s, X)
    return Y, _F1_of(spec, A, X), _F2_of(spec, A, _node_fields(fields[1], s, X), X), J


def _zone_integrals(spec: SystemSpec, theta: float, S: np.ndarray, Y, F1, F2=None, J=None) -> list:
    """[y_1(theta)], or [y_1, y_2, T] at theta, from one zone's node samples and the rule S.

    Each solves y' = D y + forcing along the unperturbed flow, so y(theta) =
    Y(theta) * int Y^-1 forcing.  y_1 at every node forces y_2; T_w = dy_1/dz_w
    is forced by (dF_1/dz_w) e^(mu_w*s), and T[:, k] is the tangent for w = m+1+k.
    """
    h = 0.5 * theta
    y1 = Y * (h * S @ (F1 / Y))
    if F2 is None:
        return [y1[-1]]
    w, tail = h * S[-1], slice(spec.m + 1, None)
    y2 = Y[-1] * (w @ (2.0 * (F2 + np.einsum("kij,kj->ki", J, y1)) / Y))
    T = Y[-1, :, None] * np.einsum("k,kij->ij", w, J[:, :, tail] * Y[:, None, tail] / Y[:, :, None])
    return [y1[-1], y2, T]


def _zone_variations(spec: SystemSpec, sign: str, order: int, zz: np.ndarray) -> list:
    """One zone's [y_1] (order 1) or [y_1, y_2, T] (order 2) at its end angle, by the Chebyshev rule.

    One sampling at the level-2N nodes serves level N too (its nodes are the
    even ones); N doubles from NODE_START until the two levels agree.
    """
    theta = spec.phi if sign == "+" else spec.phi - TWO_PI
    if theta == 0.0:
        return [np.zeros(spec.d + 1), np.zeros(spec.d + 1), np.zeros((spec.d + 1, spec.d - spec.m))][: 2 * order - 1]
    fields = [compile_fields(spec, o, sign) for o in range(1, order + 1)]
    N = NODE_START
    while True:
        x, S = _cheb_rule(2 * N)
        samples = _zone_samples(spec, fields, 0.5 * theta * (x + 1.0), zz)
        fine = _zone_integrals(spec, theta, S, *samples)
        coarse = _zone_integrals(spec, theta, _cheb_rule(N)[1], *(a[::2] for a in samples))
        diff = max(np.abs(f - c).max(initial=0.0) for f, c in zip(fine, coarse))
        tol = QUAD_TOL * max(1.0, *(np.abs(f).max(initial=0.0) for f in fine))
        if diff <= tol:
            return fine
        N *= 2
        if N > NODE_CAP:
            raise QuadratureFailure(
                f"{sign} zone on [0, {theta:.6g}]: the Chebyshev rule at N = {N // 2} and {N} "
                f"still differs by {diff:.3e} (tolerance {tol:.3e}) at the node cap N = {NODE_CAP}"
            )


def _g_variations(spec: SystemSpec, order: int, zz: np.ndarray) -> list:
    """Plus zone minus minus zone: [g_1], or [g_1, 2*g_2, dg_1/dz_tail]."""
    return [p - q for p, q in zip(*(_zone_variations(spec, sign, order, zz) for sign in "+-"))]


def numeric_g(spec: SystemSpec, order: int, z) -> np.ndarray:
    """Oracle for g_1 (order 1) or the half-variation g_2 (order 2) at the state z."""
    zz = np.asarray(z, dtype=float)
    if zz.shape != (spec.d + 1,):
        raise ValueError(f"state has shape {zz.shape}, expected ({spec.d + 1},)")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    g = _g_variations(spec, order, zz)
    return g[0] if order == 1 else 0.5 * g[1]


def _embed(spec: SystemSpec, nu) -> np.ndarray:
    zz = np.zeros(spec.d + 1)
    zz[: spec.m + 1] = np.asarray(nu, dtype=float)
    return zz


def _gamma_from_g1(spec: SystemSpec, g1: np.ndarray) -> np.ndarray:
    """Slave components -Delta^{-1} xi-perp g_1."""
    return np.array([-g1[w] / (math.exp(mu * spec.phi) * denom) for w, mu, denom in _delta_entries(spec)])


def oracle_f1(spec: SystemSpec, nu) -> np.ndarray:
    """xi g_1 at z_nu by quadrature; the independent check of build_f1."""
    return numeric_g(spec, 1, _embed(spec, nu))[: spec.m + 1]


def oracle_gamma(spec: SystemSpec, nu) -> np.ndarray:
    """-Delta^{-1} xi-perp g_1(z_nu) by quadrature."""
    return _gamma_from_g1(spec, numeric_g(spec, 1, _embed(spec, nu)))


def oracle_f2(spec: SystemSpec, nu) -> np.ndarray:
    """Variational route for f_2: 2*(d(xi g_1)/dv) gamma + 2*xi g_2.

    g_1, 2*g_2 and dg_1/dv all come from one Chebyshev rule per zone.
    """
    g1, two_g2, dg1 = _g_variations(spec, 2, _embed(spec, nu))
    return two_g2[: spec.m + 1] + 2.0 * dg1[: spec.m + 1] @ _gamma_from_g1(spec, g1)

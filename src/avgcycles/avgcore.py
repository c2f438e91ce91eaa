"""Closed-form averaged functions and their quadrature oracle.

The first- and second-order averaged functions of a system are polynomials in
nu = (r, z_1, ..., z_m), assembled here exactly, each by one closed form.
f_1 is linear in the first-order tables: each of its coefficients is the
residual of one kernel constraint, whose weights are the trigonometric
integrals of :mod:`trigkernel`.  r*f_2 is the slave term plus, per zone, the
integral of the order-2 field and of one bilinear form of the zone's
first-order fields (:class:`_ZoneFields`).  Every field is one
:class:`trigkernel.HarmonicSum`, a finite sum of terms

    coeff * r^a * z^k * s^j * e^(lam*s)        (lam complex, a >= -1)

keyed by the nu-monomial (a, k), j and lam.  A linear integrand is
integrated termwise, and :func:`_g_contribution` turns the result into a
Poly in nu.  The bilinear form is never multiplied out: each series is a
dense matrix C over nu-monomials and the zone's (j, lam) basis, and the
integral of a product F*G is Re(C_F W C_G^T), W the basis Gram matrix
(:func:`_quadratic_rf2`).  An independent route, :func:`numeric_g`,
evaluates the same objects along the unperturbed flow; the two must agree
and the tests enforce it.  There each
zone is one Chebyshev spectral rule (Greengard, SIAM J. Numer. Anal. 28,
1991): every field is evaluated in one batch at the Chebyshev-Lobatto nodes
of the zone's angle interval, and the spectral integration matrix gives
y_1, y_2 and dy_1/dz_tail.  The integrands
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
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

from .polyalg import PRUNE_TOL, CompiledPolyVec, Poly, PolyVec
from .sysspec import SystemSpec, multi_indices
from .trigkernel import TWO_PI, HarmonicSum, TrigKey, _harmonics, gram_matrix, trig_I, trig_J

F1_ZERO_TOL = 1e-10
DEGENERATE_TOL = 1e-12
KERNEL_WEIGHT_TOL = 1e-12  # integral weights below this cannot carry a kernel constraint
QUAD_TOL = 1e-12  # the oracle's N and 2N Chebyshev results must agree to QUAD_TOL * max(1, |y|_inf)
NODE_START = 32  # N of the oracle's first N/2N comparison
NODE_CAP = 512  # largest N compared; past it the oracle raises QuadratureFailure


class DegenerateEigenvalueError(ValueError):
    """1 - e^(-2*pi*mu) is numerically singular for some tail eigenvalue."""


class FirstOrderNotZeroError(ValueError):
    """build_f2 requires the first-order averaged function to vanish."""


class InfeasibleConstraintError(ValueError):
    """A kernel constraint pins a coefficient through vanishing integrals."""


class QuadratureFailure(RuntimeError):
    """The oracle's Chebyshev rule did not converge: N and 2N still disagreed at the node cap."""


# ---------------------------------------------------------------------------
# symbolic field components restricted to the cycle manifold (tail z = 0)
# ---------------------------------------------------------------------------


def _field_series(spec: SystemSpec, order: int, sign: str, comp: int, tail_pick: int | None = None) -> HarmonicSum:
    """Symbolic A (order 1) or B (order 2) component at tail z = 0.

    ``comp`` follows the cylindrical numbering: 1 is the angular component
    (with its 1/r prefactor), 2 the radial one, l+2 the z_l components.
    """
    m = spec.m
    fam_a, fam_b, fam_c = ("a", "b", "c") if order == 1 else ("alpha", "beta", "gamma")
    out = HarmonicSum()

    def add(table, dp, dq, r_off, scale):
        for idx, coeff in table.entries.items():
            i, j = idx[0], idx[1]
            head = idx[2 : 2 + m]
            tail = idx[2 + m :]
            if tail_pick is None:
                if any(tail):
                    continue
            else:
                want = tuple(1 if k == tail_pick - 1 else 0 for k in range(spec.d - m))
                if tail != want:
                    continue
            mono = (i + j + r_off,) + head
            for h, c in _harmonics(i + dp, j + dq):
                out._accum(mono, 0, 1j * h, c * (coeff * scale))

    if comp == 1:
        add(spec.table(fam_b, sign), 1, 0, -1, 1.0)
        add(spec.table(fam_a, sign), 0, 1, -1, -1.0)
    elif comp == 2:
        add(spec.table(fam_a, sign), 1, 0, 0, 1.0)
        add(spec.table(fam_b, sign), 0, 1, 0, 1.0)
    else:
        add(spec.table(fam_c, sign, comp - 3), 0, 0, 0, 1.0)
    return out


def _zone_bounds(spec: SystemSpec, sign: str):
    """(start, end) of the y-integration for each zone; minus zone runs backward."""
    return (0.0, spec.phi) if sign == "+" else (0.0, spec.phi - TWO_PI)


def _g_contribution(spec: SystemSpec, sign: str, series: HarmonicSum, rshift: int = 0) -> Poly:
    """Contribution of one zone to g = y+(phi) - y-(phi - 2*pi), as a Poly in nu.

    The series is integrated over the zone and each r exponent raised by
    ``rshift``; a 1/r term left over must have integrated to zero.
    """
    a, b = _zone_bounds(spec, sign)
    poly = Poly(spec.m + 1)
    for mono, val in series.integrals(a, b).items():
        r_exp = mono[0] + rshift
        if r_exp < 0:
            if abs(val) > 1e-11:
                raise ValueError(f"residual 1/r term with weight {val}")
            continue
        poly._accum((r_exp,) + mono[1:], val)
    return poly if sign == "+" else poly.scaled(-1.0)


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------


@dataclass
class KernelConstraint:
    """Linear relation on spec coefficients forcing one f_1 monomial to zero."""

    component: int  # 0 for the radial equation, 1..m for z_l
    monomial: tuple  # (r_exp, k_1, ..., k_m)
    terms: list  # list of (family, sign, index, weight)

    def residual(self, spec: SystemSpec) -> float:
        total = 0.0
        for fam, sign, idx, w in self.terms:
            ell = self.component - 1 if fam == "c" else None
            total += w * spec.table(fam, sign, ell).get(idx)
        return total


def f1_kernel_constraints(spec: SystemSpec) -> list:
    """One linear constraint per potential monomial of each f_1 component.

    A constraint's residual is that monomial's coefficient in f_1: the
    weights are the integrals I (zone +) and J (zone -) of the trigonometric
    factor each table entry carries at tail z = 0.
    """
    n, m, phi = spec.n, spec.m, spec.phi
    tail = (0,) * (spec.d - m)
    constraints = []
    heads = sorted(set(multi_indices(n, m)))
    for ell in range(m + 1):
        for kvec in heads:
            ksum = sum(kvec)
            for e in range(0, n - ksum + 1):
                terms = []
                for i in range(e + 1):
                    j = e - i
                    idx = (i, j) + kvec + tail
                    if ell == 0:
                        terms.append(("a", "+", idx, trig_I(TrigKey(i + 1, j, phi))))
                        terms.append(("b", "+", idx, trig_I(TrigKey(i, j + 1, phi))))
                        terms.append(("a", "-", idx, trig_J(TrigKey(i + 1, j, phi))))
                        terms.append(("b", "-", idx, trig_J(TrigKey(i, j + 1, phi))))
                    else:
                        terms.append(("c", "+", idx, trig_I(TrigKey(i, j, phi))))
                        terms.append(("c", "-", idx, trig_J(TrigKey(i, j, phi))))
                constraints.append(KernelConstraint(ell, (e,) + kvec, terms))
    return constraints


def build_f1(spec: SystemSpec) -> PolyVec:
    """Closed-form first-order averaged function (m+1 components in nu).

    f_1 is linear in the first-order tables: each coefficient is the
    residual of its kernel constraint.
    """
    comps = [Poly(spec.m + 1) for _ in range(spec.m + 1)]
    for con in f1_kernel_constraints(spec):
        comps[con.component]._accum(con.monomial, con.residual(spec))
    return PolyVec(comps)


def project_to_kernel(spec: SystemSpec) -> SystemSpec:
    """Nearest spec with f_1 identically zero, solving one coefficient per constraint."""
    out = spec.copy()
    for con in f1_kernel_constraints(out):
        res = con.residual(out)
        if abs(res) < 1e-14:
            continue
        fam, sign, idx, w = max(con.terms, key=lambda t: (abs(t[3]), t[:3]))
        if abs(w) < KERNEL_WEIGHT_TOL:
            raise InfeasibleConstraintError(
                f"constraint on component {con.component}, monomial {con.monomial}: "
                f"all integral weights vanish but the residual is {res:.3e}"
            )
        ell = con.component - 1 if fam == "c" else None
        table = out.table(fam, sign, ell)
        table.set(idx, table.get(idx) - res / w)
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


def build_gamma(spec: SystemSpec) -> list:
    """Slave components gamma_w(nu) as polynomials, w = m+1..d."""
    gammas = []
    for w, mu, denom in _delta_entries(spec):
        poly = Poly(spec.m + 1)
        for sign in ("+", "-"):
            contrib = _g_contribution(spec, sign, _field_series(spec, 1, sign, w + 2).shifted(complex(-mu)))
            poly = poly + (contrib if sign == "+" else contrib.scaled(math.exp(-TWO_PI * mu)))
        gammas.append(poly.scaled(-1.0 / denom))
    return gammas


class _ZoneFields:
    """The first-order fields of one zone at tail z = 0, as the two sides of one bilinear form.

    The quadratic part of a zone's integrand of r*f_2l is B_l(Z, Z), Z the
    zone's fields, with

        B_l(F, G) = -A_1^F f_1l^G + grad(f_1l^G) . y_1^F,

    bilinear in the first-order tables.  It is a sum of termwise products
    left[t] * right[l][t]: ``left`` holds A_1 (the angular component) and the
    closed forms of y_1 (functions of s, d+1 components); ``right[l]`` holds
    -f_1l and f_1l's derivatives ``grads[l]`` (d_r, d_z1, ..., d_zm, then d_zw
    for each tail w, those taken at z = 0).  :func:`_quadratic_rf2`
    integrates the form without forming the products.
    """

    def __init__(self, spec: SystemSpec, sign: str):
        m, tails = spec.m, range(spec.m + 1, spec.d + 1)
        f1 = [_field_series(spec, 1, sign, ell + 2) for ell in range(m + 1)]
        self.grads = [
            [f.diff(var) for var in range(m + 1)]
            + [_field_series(spec, 1, sign, ell + 2, tail_pick=w - m) for w in tails]
            for ell, f in enumerate(f1)
        ]
        y1 = [f.integral_from_zero() for f in f1]
        for w in tails:  # the tail components by variation of constants
            mu = spec.mu[w - 1]
            y1.append(_field_series(spec, 1, sign, w + 2).shifted(complex(-mu)).integral_from_zero().shifted(complex(mu)))
        self.left = [_field_series(spec, 1, sign, 1)] + y1
        self.right = [[f.scaled(-1.0)] + g for f, g in zip(f1, self.grads)]


def _dense_rows(groups, basis: dict, monos: dict, width: int, rshift: int = 0):
    """Stacked series as dense-matrix rows, one per (group key, nu-monomial).

    ``groups`` yields (key, series), key a tuple of width - 1 ints.  Each
    (k, lam) is a column of ``basis`` and each monomial, its r exponent raised
    by ``rshift``, an entry of ``monos``; both dicts gain the new ones.
    Returns the rows as an int array (key..., monomial's entry) and the
    (row, column, coeff) entries.
    """
    rows, entries = {}, []
    for key, series in groups:
        for (mono, k, lam), c in series.terms.items():
            mono = (mono[0] + rshift,) + mono[1:]
            row = rows.setdefault(key + (monos.setdefault(mono, len(monos)),), len(rows))
            entries.append((row, basis.setdefault((k, lam), len(basis)), c))
    return np.array(list(rows), dtype=np.intp).reshape(len(rows), width), entries


def _quadratic_rf2(spec: SystemSpec, sign: str, fields: list):
    """One zone's contribution to r*f_2 of the symmetrized quadratic part, for every pair of fields.

    Returns (monos, X): X[a, b, l, k] is the coefficient of nu^monos[k] in
    2*g of (B_l(F_a, F_b) + B_l(F_b, F_a)) / 2 over the zone, F = fields, so
    that X[a, a] is B_l(F_a, F_a) itself.  Every series of the fields is a
    dense matrix C (nu-monomials x the zone's (k, lam) basis), and the
    integral of a product F*G over the zone is Re(C_F W C_G^T), W the basis
    Gram matrix: one W serves every pair.  One orientation B_l(F_a, F_b) is
    integrated, then X + X^T.  Each entry lands on mono_F + mono_G with r
    raised by one; entries below PRUNE_TOL are zeroed.
    """
    m, basis, lmonos, rmonos = spec.m, {}, {}, {}
    # left rows (field, term, mono), right rows (field, component, term, mono)
    Lrows, Lentries = _dense_rows((((a, t), s) for a, F in enumerate(fields) for t, s in enumerate(F.left)),
                                  basis, lmonos, 3, rshift=1)
    Rrows, Rentries = _dense_rows((((b, ell, t), s) for b, G in enumerate(fields)
                                   for ell, comp in enumerate(G.right) for t, s in enumerate(comp)), basis, rmonos, 4)
    W = gram_matrix(list(basis), *_zone_bounds(spec, sign))
    out = {}  # the output monomial of each (left, right) monomial pair
    target = np.array([[out.setdefault(tuple(e + f for e, f in zip(p, q)), len(out)) for q in rmonos]
                       for p in lmonos], dtype=np.intp).reshape(len(lmonos), len(rmonos))

    # every product in real form, so no complex BLAS kernel is paged in:
    # (Re C_F, Im C_F) Wr is (Re, Im) of C_F W, and its product with
    # (Re C_G, -Im C_G)^T is Re(C_F W C_G^T)
    Wr = np.block([[W.real, W.imag], [-W.imag, W.real]])

    def dense(rows, entries, imag_sign):
        C = np.zeros((len(rows), 2, len(basis)))
        if entries:
            r, col, c = zip(*entries)
            C[r, 0, col], C[r, 1, col] = np.real(c), imag_sign * np.imag(c)
        return C.reshape(len(rows), 2 * len(basis))

    CLW, CR = dense(Lrows, Lentries, 1.0) @ Wr, dense(Rrows, Rentries, -1.0)
    flat, vals = [], []  # each product term's index in X and its integral
    for t in range(spec.d + 2):
        i, j = np.flatnonzero(Lrows[:, 1] == t), np.flatnonzero(Rrows[:, 2] == t)
        a, b = Lrows[i, :1], Rrows[j, 0]  # broadcast to the (i, j) pairs
        k = target[Lrows[i, 2:], Rrows[j, 3]]
        flat.append((((a * len(fields) + b) * (m + 1) + Rrows[j, 1]) * len(out) + k).ravel())
        vals.append((CLW[i] @ CR[j].T).ravel())
    shape = (len(fields), len(fields), m + 1, len(out))
    X = np.bincount(np.concatenate(flat), weights=np.concatenate(vals), minlength=math.prod(shape)).reshape(shape)
    X = (X + X.transpose(1, 0, 2, 3)) * (1.0 if sign == "+" else -1.0)  # 2 * g of the half-sum
    X[np.abs(X) < PRUNE_TOL] = 0.0
    return list(out), X


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
    m = spec.m
    gammas = build_gamma(spec) if m < spec.d else []
    zones = {sign: _ZoneFields(spec, sign) for sign in ("+", "-")}
    quadratic = {sign: _quadratic_rf2(spec, sign, [Z]) for sign, Z in zones.items()}
    r_poly = Poly.variable(m + 1, 0)
    comps = []
    for ell in range(m + 1):
        terms = {}
        for monos, X in quadratic.values():
            for mono, c in zip(monos, X[0, 0, ell]):
                terms[mono] = terms.get(mono, 0.0) + c
        total = Poly(m + 1, terms)
        for w, gam in enumerate(gammas, start=m + 1):
            # d(g_1l)/dz_w: the tail derivative of f_1l carried along e^(mu_w*s)
            mu = complex(spec.mu[w - 1])
            dg = Poly(m + 1)
            for sign, Z in zones.items():
                dg = dg + _g_contribution(spec, sign, Z.grads[ell][w].shifted(mu))
            total = total + (dg * gam * r_poly).scaled(2.0)
        for sign in zones:
            total = total + _g_contribution(spec, sign, _field_series(spec, 2, sign, ell + 2), rshift=1).scaled(2.0)
        comps.append(total)
    return PolyVec(comps)


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
        fam_a, fam_b, fam_c = ("a", "b", "c") if o == 1 else ("alpha", "beta", "gamma")
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

"""Closed-form averaged functions and their quadrature oracle.

The first- and second-order averaged functions of a system are polynomials in
nu = (r, z_1, ..., z_m), assembled here exactly, each by one closed form.
f_1 is linear in the first-order tables: each of its coefficients is the
residual of one kernel constraint, whose weights are the trigonometric
integrals of :mod:`trigkernel`.  r*f_2 is the slave term plus, per zone, the
integral of the order-2 field and of one bilinear form of the zone's
first-order fields (:class:`_ZoneFields`), computed by representing every
integrand as a finite sum of terms

    coeff * r^a * z^k * s^j * e^(lam*s)        (lam complex)

and integrating termwise.  An independent route, :func:`numeric_g`,
evaluates the same objects along the unperturbed flow; the two must agree
and the tests enforce it.  There g_1 is the variation-of-constants integral,
taken by scipy's adaptive ``quad_vec``; g_2 and dg_1/dz_tail come from one
variational ODE solve per zone (``solve_ivp``), which carries y_1, y_2 and
the tail tangents of y_1 together.

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec, solve_ivp

from .polyalg import CompiledPolyVec, Poly, PolyVec
from .sysspec import SystemSpec, multi_indices
from .trigkernel import TWO_PI, HarmonicSum, TrigKey, trig_I, trig_J, trig_monomial

F1_ZERO_TOL = 1e-10
DEGENERATE_TOL = 1e-12
KERNEL_WEIGHT_TOL = 1e-12  # integral weights below this cannot carry a kernel constraint
QUAD_TOL = 1e-12  # absolute max-norm error target of the order-1 quadrature


class DegenerateEigenvalueError(ValueError):
    """1 - e^(-2*pi*mu) is numerically singular for some tail eigenvalue."""


class FirstOrderNotZeroError(ValueError):
    """build_f2 requires the first-order averaged function to vanish."""


class InfeasibleConstraintError(ValueError):
    """A kernel constraint pins a coefficient through vanishing integrals."""


class QuadratureFailure(RuntimeError):
    """The oracle's integration failed: quad_vec (order 1) or solve_ivp (order 2) did not converge."""


# ---------------------------------------------------------------------------
# nu-monomial x harmonic series
# ---------------------------------------------------------------------------


class NuTrigSeries:
    """Sum of terms (r^a * z-monomial) * HarmonicSum(s); a may be -1."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        self.terms: dict = {}  # (r_exp, zexps) -> HarmonicSum
        if terms:
            for mono, hs in terms.items():
                self.terms[mono] = HarmonicSum(hs.terms)

    def accum(self, r_exp, zexps, hs: HarmonicSum, factor=1.0):
        mono = (r_exp, tuple(zexps))
        cur = self.terms.get(mono)
        if cur is None:
            cur = HarmonicSum()
            self.terms[mono] = cur
        for (k, lam), c in hs.terms.items():
            cur._accum(k, lam, c * factor)

    def __add__(self, other: "NuTrigSeries") -> "NuTrigSeries":
        out = NuTrigSeries(self.m, self.terms)
        for mono, hs in other.terms.items():
            out.accum(mono[0], mono[1], hs)
        return out

    def scaled(self, c) -> "NuTrigSeries":
        out = NuTrigSeries(self.m)
        for mono, hs in self.terms.items():
            out.accum(mono[0], mono[1], hs.scaled(c))
        return out

    def __mul__(self, other: "NuTrigSeries") -> "NuTrigSeries":
        out = NuTrigSeries(self.m)
        for (a1, z1), h1 in self.terms.items():
            for (a2, z2), h2 in other.terms.items():
                out.accum(a1 + a2, tuple(x + y for x, y in zip(z1, z2)), h1 * h2)
        return out

    def shifted(self, lam) -> "NuTrigSeries":
        out = NuTrigSeries(self.m)
        for mono, hs in self.terms.items():
            out.accum(mono[0], mono[1], hs.shifted(lam))
        return out

    def antider(self) -> "NuTrigSeries":
        """s-antiderivative vanishing at s = 0."""
        out = NuTrigSeries(self.m)
        for mono, hs in self.terms.items():
            out.accum(mono[0], mono[1], hs.integral_from_zero())
        return out

    def diff_r(self) -> "NuTrigSeries":
        out = NuTrigSeries(self.m)
        for (a, z), hs in self.terms.items():
            if a != 0:
                out.accum(a - 1, z, hs.scaled(float(a)))
        return out

    def diff_z(self, rho: int) -> "NuTrigSeries":
        """Formal derivative in z_rho (1-based index into the z block)."""
        out = NuTrigSeries(self.m)
        for (a, z), hs in self.terms.items():
            e = z[rho - 1]
            if e:
                z2 = tuple(v - 1 if k == rho - 1 else v for k, v in enumerate(z))
                out.accum(a, z2, hs.scaled(float(e)))
        return out

    def definite(self, a: float, b: float, rshift: int = 0) -> Poly:
        """Integrate over [a, b] (b may be below a) into a Poly in nu."""
        poly = Poly(self.m + 1)
        for (re, zex), hs in self.terms.items():
            val = hs.definite(a, b)
            re2 = re + rshift
            if re2 < 0:
                if abs(val) > 1e-11:
                    raise ValueError(f"residual 1/r term with weight {val}")
                continue
            poly._accum((re2,) + zex, val)
        return poly


# ---------------------------------------------------------------------------
# symbolic field components restricted to the cycle manifold (tail z = 0)
# ---------------------------------------------------------------------------


def _field_series(spec: SystemSpec, order: int, sign: str, comp: int, tail_pick: int | None = None) -> NuTrigSeries:
    """Symbolic A (order 1) or B (order 2) component at tail z = 0.

    ``comp`` follows the cylindrical numbering: 1 is the angular component
    (with its 1/r prefactor), 2 the radial one, l+2 the z_l components.
    """
    m = spec.m
    fam_a, fam_b, fam_c = ("a", "b", "c") if order == 1 else ("alpha", "beta", "gamma")
    out = NuTrigSeries(m)

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
            out.accum(i + j + r_off, head, trig_monomial(i + dp, j + dq), coeff * scale)

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


def _g_contribution(spec: SystemSpec, sign: str, series: NuTrigSeries, rshift: int = 0) -> Poly:
    """Contribution of one zone to g = y+(phi) - y-(phi - 2*pi)."""
    a, b = _zone_bounds(spec, sign)
    poly = series.definite(a, b, rshift=rshift)
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
            a, b = _zone_bounds(spec, sign)
            contrib = _field_series(spec, 1, sign, w + 2).shifted(complex(-mu)).definite(a, b)
            if sign == "-":
                contrib = contrib.scaled(-math.exp(-TWO_PI * mu))
            poly = poly + contrib
        gammas.append(poly.scaled(-1.0 / denom))
    return gammas


class _ZoneFields:
    """The first-order fields of one zone at tail z = 0.

    A_1 (the angular component), f_1l for l = 0..m, each f_1l's derivatives
    (d_r, d_z1, ..., d_zm, then d_zw for each tail w, those taken at z = 0),
    and the closed forms of y_1 (functions of s, d+1 components): every
    series the quadratic part of r*f_2 takes from a zone.
    """

    def __init__(self, spec: SystemSpec, sign: str):
        m, tails = spec.m, range(spec.m + 1, spec.d + 1)
        self.a1 = _field_series(spec, 1, sign, 1)
        self.f1 = [_field_series(spec, 1, sign, ell + 2) for ell in range(m + 1)]
        self.grads = [
            [f.diff_r()] + [f.diff_z(rho) for rho in range(1, m + 1)]
            + [_field_series(spec, 1, sign, ell + 2, tail_pick=w - m) for w in tails]
            for ell, f in enumerate(self.f1)
        ]
        self.y1 = [f.antider() for f in self.f1]
        for w in tails:  # the tail components by variation of constants
            mu = spec.mu[w - 1]
            self.y1.append(_field_series(spec, 1, sign, w + 2).shifted(complex(-mu)).antider().shifted(complex(mu)))

    def bilinear(self, other, ell):
        """B_l(self, other) = -A_1 f_1l + grad(f_1l) . y_1, with A_1, y_1 of self and f_1l of other.

        B_l(Z, Z) for a zone's fields Z is the quadratic part of that zone's
        integrand of r*f_2l; it is bilinear in the first-order tables.
        """
        ftil = other.grads[ell][0] * self.y1[0]
        for df, y in zip(other.grads[ell][1:], self.y1[1:]):
            ftil = ftil + df * y
        return (self.a1 * other.f1[ell]).scaled(-1.0) + ftil


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
    2*g of the order-2 field and the quadratic part Z.bilinear(Z, l).
    """
    if check_f1:
        check_f1_zero(spec)
    m = spec.m
    gammas = build_gamma(spec) if m < spec.d else []
    zones = {sign: _ZoneFields(spec, sign) for sign in ("+", "-")}
    r_poly = Poly.variable(m + 1, 0)
    comps = []
    for ell in range(m + 1):
        total = Poly(m + 1)
        for w, gam in enumerate(gammas, start=m + 1):
            # d(g_1l)/dz_w: the tail derivative of f_1l carried along e^(mu_w*s)
            mu = complex(spec.mu[w - 1])
            dg = Poly(m + 1)
            for sign, Z in zones.items():
                dg = dg + _g_contribution(spec, sign, Z.grads[ell][w].shifted(mu))
            total = total + (dg * gam * r_poly).scaled(2.0)
        for sign, Z in zones.items():
            series = _field_series(spec, 2, sign, ell + 2) + Z.bilinear(Z, ell)
            total = total + _g_contribution(spec, sign, series, rshift=1).scaled(2.0)
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


def _Y_diag(spec: SystemSpec, theta: float) -> np.ndarray:
    """Diagonal of the fundamental matrix: 1 on (r, z_1..z_m), e^(mu_w*theta) on the tail."""
    diag = np.ones(spec.d + 1)
    for w in range(spec.m + 1, spec.d + 1):
        diag[w] = math.exp(spec.mu[w - 1] * theta)
    return diag


def flow(spec: SystemSpec, theta: float, zz: np.ndarray) -> np.ndarray:
    """Unperturbed flow from (r, z) at time theta: tail scales by e^(mu*theta)."""
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


def _cartesian(theta: float, x: np.ndarray):
    """cos(theta), sin(theta) and the point (r cos, r sin, z) as a batch of one."""
    cx, sx = math.cos(theta), math.sin(theta)
    point = np.empty((1, len(x) + 1))
    point[0, 0], point[0, 1], point[0, 2:] = x[0] * cx, x[0] * sx, x[1:]
    return cx, sx, point


def _cylindrical(vals: np.ndarray, cx: float, sx: float, r: float) -> np.ndarray:
    """Table values (a, b, c_1..c_d) at a point -> cylindrical components, in place."""
    va, vb = vals[0], vals[1]
    vals[0], vals[1] = (vb * cx - va * sx) / r, va * cx + vb * sx
    return vals


def eval_fields(C: CompiledPolyVec, theta: float, x: np.ndarray) -> np.ndarray:
    """Cylindrical field components (A or B), numbered 1..d+2, at a state.

    ``C`` is the zone's compile_fields vector of the wanted order.
    """
    cx, sx, point = _cartesian(theta, x)
    return _cylindrical(C.values(point)[0], cx, sx, x[0])


def _F1_of(spec: SystemSpec, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First-order theta-time field (d+1 components) from the order-1 fields A."""
    out = np.empty(spec.d + 1)
    out[: spec.m + 1] = A[1 : spec.m + 2]
    for w in range(spec.m + 1, spec.d + 1):
        out[w] = A[w + 1] - spec.mu[w - 1] * x[w] * A[0]
    return out


def _F2_of(spec: SystemSpec, A: np.ndarray, B: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second-order theta-time field (d+1 components) from the order-1 and -2 fields A, B."""
    out = np.empty(spec.d + 1)
    for ell in range(spec.m + 1):
        out[ell] = B[ell + 1] - A[0] * A[ell + 1]
    for w in range(spec.m + 1, spec.d + 1):
        mu = spec.mu[w - 1]
        out[w] = B[w + 1] + mu * x[w] * A[0] ** 2 - A[0] * A[w + 1] - mu * x[w] * B[0]
    return out


def eval_F1(spec: SystemSpec, C1: CompiledPolyVec, theta: float, x: np.ndarray) -> np.ndarray:
    """First-order theta-time field (d+1 components) from the zone's order-1 tables."""
    return _F1_of(spec, eval_fields(C1, theta, x), x)


def _F1_jac(spec: SystemSpec, C1: CompiledPolyVec, theta: float, x: np.ndarray):
    """The fields A and the analytic Jacobian of F_1 wrt (r, z), from one table evaluation."""
    r = x[0]
    cx, sx, point = _cartesian(theta, x)
    A = _cylindrical(C1.values(point)[0], cx, sx, r)
    G = C1.jacobians(point)[0]
    # gradients wrt (x, y, z) -> wrt (r, z) along x = r cos, y = r sin
    g = np.empty((spec.d + 2, spec.d + 1))
    g[:, 0] = cx * G[:, 0] + sx * G[:, 1]
    g[:, 1:] = G[:, 2:]
    dA1 = (cx * g[1] - sx * g[0]) / r
    dA1[0] -= A[0] / r

    J = np.empty((spec.d + 1, spec.d + 1))
    J[0] = cx * g[0] + sx * g[1]
    J[1:] = g[2:]
    for k in range(spec.m + 1, spec.d + 1):
        mu = spec.mu[k - 1]
        J[k] -= mu * x[k] * dA1
        J[k, k] -= mu * A[0]
    return A, J


def _y1(spec: SystemSpec, sign: str, theta: float, zz: np.ndarray) -> np.ndarray:
    """First variation y_1(theta) by variation of constants, on scipy's quad_vec."""
    C1 = compile_fields(spec, 1, sign)

    def integrand(s):
        return eval_F1(spec, C1, s, flow(spec, s, zz)) / _Y_diag(spec, s)

    val, err, info = quad_vec(integrand, 0.0, theta, epsabs=QUAD_TOL, epsrel=0, norm="max", full_output=True)
    # scipy only warns.  Status 2 stops where the rounding-error estimate
    # exceeds the discretization error: the arithmetic's floor, accepted.
    if info.status not in (0, 2):
        raise QuadratureFailure(f"first-variation quadrature on [0, {theta}]: {info.message} (err={err:.2e})")
    return _Y_diag(spec, theta) * val


def _variations(spec: SystemSpec, sign: str, theta: float, zz: np.ndarray):
    """Joint integration of y_1, y_2 and the tail tangents of y_1.

    y_1 and the second variation y_2 satisfy linear equations y' = D y +
    forcing along the unperturbed flow (D the diagonal of tail eigenvalues).
    The flow is linear in z, so T_w = d y_1/d z_w obeys T_w' = D T_w +
    (dF_1/dz_w) e^(mu_w*s).  One ODE solve per zone returns
    (y_1, y_2, T) at theta, with T[:, k] the tangent for w = m+1+k.
    """
    nvar, m, ntail = spec.d + 1, spec.m, spec.d - spec.m
    if theta == 0.0:
        return np.zeros(nvar), np.zeros(nvar), np.zeros((nvar, ntail))
    dmu = np.array((0.0,) + spec.mu)
    C1, C2 = compile_fields(spec, 1, sign), compile_fields(spec, 2, sign)

    def rhs(s, y):
        xs = flow(spec, s, zz)
        y1, y2, T = y[:nvar], y[nvar : 2 * nvar], y[2 * nvar :].reshape(nvar, ntail)
        A, J = _F1_jac(spec, C1, s, xs)
        d1 = dmu * y1 + _F1_of(spec, A, xs)
        d2 = dmu * y2 + 2.0 * _F2_of(spec, A, eval_fields(C2, s, xs), xs) + 2.0 * J @ y1
        dT = dmu[:, None] * T + J[:, m + 1 :] * _Y_diag(spec, s)[m + 1 :]
        return np.concatenate([d1, d2, dT.ravel()])

    y0 = np.zeros(nvar * (2 + ntail))
    sol = solve_ivp(rhs, (0.0, theta), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise QuadratureFailure(f"variational integration failed: {sol.message}")
    y = sol.y[:, -1]
    return y[:nvar], y[nvar : 2 * nvar], y[2 * nvar :].reshape(nvar, ntail)


def _zone_variations(spec: SystemSpec, zz: np.ndarray):
    """Differences plus-zone minus minus-zone of (y_1, y_2, T): g_1, 2*g_2 and dg_1/dz_tail."""
    plus = _variations(spec, "+", spec.phi, zz)
    minus = _variations(spec, "-", spec.phi - TWO_PI, zz)
    return [p - q for p, q in zip(plus, minus)]


def numeric_g(spec: SystemSpec, order: int, z) -> np.ndarray:
    """Oracle for g_1 (order 1) or the half-variation g_2 (order 2) at the state z."""
    zz = np.asarray(z, dtype=float)
    if zz.shape != (spec.d + 1,):
        raise ValueError(f"state has shape {zz.shape}, expected ({spec.d + 1},)")
    if order == 1:
        return _y1(spec, "+", spec.phi, zz) - _y1(spec, "-", spec.phi - TWO_PI, zz)
    if order == 2:
        return 0.5 * _zone_variations(spec, zz)[1]
    raise ValueError(f"order must be 1 or 2, got {order}")


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

    g_1, 2*g_2 and dg_1/dv all come from the one joint ODE solve per zone.
    """
    g1, two_g2, dg1 = _zone_variations(spec, _embed(spec, nu))
    return two_g2[: spec.m + 1] + 2.0 * dg1[: spec.m + 1] @ _gamma_from_g1(spec, g1)

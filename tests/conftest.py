"""Shared test fixtures, the series-product reference for r*f_2 and the per-constraint reference for f_1.

The series reference builds every zone field as one trigkernel.HarmonicSum,
one harmonic at a time, with the sums, scalings, shifts by e^(lam*s) and
nu-derivatives defined here, multiplies the bilinear form's series out term
by term and integrates the products termwise.  It shares no code with
avgcore's array builder beyond the harmonic linearization and the
antiderivatives.

The per-constraint reference writes f_1 out as one constraint per
coefficient, with the weight of each table entry in it, and reads the
tables one term at a time: build_f1, project_to_kernel and the generators'
matrix, as they were before avgcore's cached map replaced them.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from avgcycles.avgcore import KERNEL_WEIGHT_TOL, _delta_entries, _full_slots, check_f1_zero
from avgcycles.polyalg import Poly, PolyVec
from avgcycles.sysspec import FIRST_ORDER, SECOND_ORDER, multi_indices
from avgcycles.trigkernel import TWO_PI, HarmonicSum, TrigKey, _harmonics, trig_I, trig_J


def _add(f, g):
    out = HarmonicSum(f.terms)
    for key, c in g.terms.items():
        out._accum(*key, c)
    return out


def _scaled(f, c):
    return HarmonicSum({key: v * c for key, v in f.terms.items()})


def _shifted(f, lam):
    """f times e^(lam*s)."""
    return HarmonicSum({(mono, k, l + lam): c for (mono, k, l), c in f.terms.items()})


def _diff(f, var):
    """Formal derivative in nu_var: 0 is r, rho is z_rho."""
    out = HarmonicSum()
    for (mono, k, lam), c in f.terms.items():
        e = mono[var]
        if e:
            out._accum(mono[:var] + (e - 1,) + mono[var + 1 :], k, lam, c * e)
    return out


def _eval(f, s):
    """Value at s of a function of s alone."""
    return f._by_mono(s).get((), 0.0j)


def _field_series(spec, order, sign, comp, tail_pick=None):
    """Symbolic A (order 1) or B (order 2) component at tail z = 0.

    ``comp`` follows the cylindrical numbering: 1 is the angular component
    (with its 1/r prefactor), 2 the radial one, l+2 the z_l components.
    """
    m = spec.m
    fam_a, fam_b, fam_c = FIRST_ORDER if order == 1 else SECOND_ORDER
    out = HarmonicSum()
    # the tail exponents an entry must carry: none, or one on z_{m+tail_pick}
    want = [0] * (spec.d - m)
    if tail_pick is not None:
        want[tail_pick - 1] = 1
    want = tuple(want)

    def add(table, dp, dq, r_off, scale):
        for idx, coeff in table.entries.items():
            if idx[2 + m :] != want:
                continue
            i, j = idx[0], idx[1]
            mono, weight = (i + j + r_off,) + idx[2 : 2 + m], coeff * scale
            for h, c in _harmonics(i + dp, j + dq):
                out._accum(mono, 0, 1j * h, c * weight)

    if comp == 1:
        add(spec.table(fam_b, sign), 1, 0, -1, 1.0)
        add(spec.table(fam_a, sign), 0, 1, -1, -1.0)
    elif comp == 2:
        add(spec.table(fam_a, sign), 1, 0, 0, 1.0)
        add(spec.table(fam_b, sign), 0, 1, 0, 1.0)
    else:
        add(spec.table(fam_c, sign, comp - 3), 0, 0, 0, 1.0)
    return out


def _g_contribution(spec, sign, series, rshift=0):
    """Contribution of one zone to g = y+(phi) - y-(phi - 2*pi), as a Poly in nu.

    The series is integrated over the zone and each r exponent raised by
    ``rshift``; a 1/r term left over must have integrated to zero.
    """
    a, b = (0.0, spec.phi) if sign == "+" else (0.0, spec.phi - TWO_PI)  # the minus zone runs backward
    poly = Poly(spec.m + 1)
    for mono, val in series.integrals(a, b).items():
        r_exp = mono[0] + rshift
        if r_exp < 0:
            if abs(val) > 1e-11:
                raise ValueError(f"residual 1/r term with weight {val}")
            continue
        poly._accum((r_exp,) + mono[1:], val)
    return poly if sign == "+" else poly.scaled(-1.0)


class _ZoneFields:
    """The first-order fields of one zone at tail z = 0, as the two sides of one bilinear form.

    B_l(F, G) = sum_t left[t] * right[l][t]: ``left`` holds A_1 (the
    angular component) and the closed forms of y_1 (d+1 components);
    ``right[l]`` holds -f_1l and f_1l's derivatives ``grads[l]`` (d_r,
    d_z1, ..., d_zm, then d_zw for each tail w, those taken at z = 0).
    """

    def __init__(self, spec, sign):
        m, tails = spec.m, range(spec.m + 1, spec.d + 1)
        f1 = [_field_series(spec, 1, sign, ell + 2) for ell in range(m + 1)]
        self.grads = [
            [_diff(f, var) for var in range(m + 1)]
            + [_field_series(spec, 1, sign, ell + 2, tail_pick=w - m) for w in tails]
            for ell, f in enumerate(f1)
        ]
        y1 = [f.integral_from_zero() for f in f1]
        for w in tails:  # the tail components by variation of constants
            mu = spec.mu[w - 1]
            y1.append(_shifted(_shifted(_field_series(spec, 1, sign, w + 2), -mu).integral_from_zero(), mu))
        self.left = [_field_series(spec, 1, sign, 1)] + y1
        self.right = [[_scaled(f, -1.0)] + g for f, g in zip(f1, self.grads)]


def _series_bilinear(F, G, ell):
    """B_l(F, G) of two _ZoneFields as one HarmonicSum, by termwise series products."""
    out = HarmonicSum()
    for left, right in zip(F.left, G.right[ell]):
        out = _add(out, left * right)
    return out


def _build_gamma(spec):
    """Slave components gamma_w(nu) as polynomials, w = m+1..d."""
    gammas = []
    for w, mu, denom in _delta_entries(spec):
        poly = Poly(spec.m + 1)
        for sign in ("+", "-"):
            contrib = _g_contribution(spec, sign, _shifted(_field_series(spec, 1, sign, w + 2), -mu))
            poly += contrib if sign == "+" else contrib.scaled(math.exp(-TWO_PI * mu))
        gammas.append(poly.scaled(-1.0 / denom))
    return gammas


def _build_f2(spec, check_f1=True):
    """r*f_2 by series products: the slave term, then per zone the quadratic part and the order-2 field."""
    if check_f1:
        check_f1_zero(spec)
    m = spec.m
    gammas = _build_gamma(spec) if m < spec.d else []
    zones = {sign: _ZoneFields(spec, sign) for sign in ("+", "-")}
    comps = []
    for ell in range(m + 1):
        total = Poly(m + 1)
        for sign, Z in zones.items():
            total += _g_contribution(spec, sign, _series_bilinear(Z, Z, ell), rshift=1).scaled(2.0)
            total += _g_contribution(spec, sign, _field_series(spec, 2, sign, ell + 2), rshift=1).scaled(2.0)
        for w, gam in enumerate(gammas, start=m + 1):
            dg = Poly(m + 1)
            for sign, Z in zones.items():
                dg += _g_contribution(spec, sign, _shifted(Z.grads[ell][w], spec.mu[w - 1]), rshift=1)
            total += (dg * gam).scaled(2.0)
        comps.append(total)
    return PolyVec(comps)


SERIES = SimpleNamespace(add=_add, scaled=_scaled, shifted=_shifted, diff=_diff, eval=_eval,
                         field_series=_field_series, g_contribution=_g_contribution, ZoneFields=_ZoneFields,
                         bilinear=_series_bilinear, build_gamma=_build_gamma, build_f2=_build_f2)


@pytest.fixture
def series():
    """The series-product reference route (see the module docstring)."""
    return SERIES


def _kernel_constraints(n, m, d, phi):
    """f_1 as [(key, terms)]: per key (component, monomial), the (family, sign, ell, idx, weight) of each entry.

    At tail z = 0 an a or b entry x^i y^j z^k reaches the radial component
    through cos^(i+1) sin^j or cos^i sin^(j+1), a c_l entry component l + 1
    through cos^i sin^j; the weight is the factor's integral, I in zone +
    and J in zone -.
    """
    tail, out = (0,) * (d - m), []
    for comp in range(m + 1):
        for kvec in sorted(set(multi_indices(n, m))):
            for e in range(n - sum(kvec) + 1):
                terms = []
                for i in range(e + 1):
                    idx, j = (i, e - i) + kvec + tail, e - i
                    if comp == 0:
                        terms += [("a", "+", None, idx, trig_I(TrigKey(i + 1, j, phi))),
                                  ("b", "+", None, idx, trig_I(TrigKey(i, j + 1, phi))),
                                  ("a", "-", None, idx, trig_J(TrigKey(i + 1, j, phi))),
                                  ("b", "-", None, idx, trig_J(TrigKey(i, j + 1, phi)))]
                    else:
                        terms += [("c", "+", comp - 1, idx, trig_I(TrigKey(i, j, phi))),
                                  ("c", "-", comp - 1, idx, trig_J(TrigKey(i, j, phi)))]
                out.append(((comp, (e,) + kvec), terms))
    return out


def _residual(spec, terms):
    total = 0.0
    for fam, sign, ell, idx, w in terms:
        total += w * spec.table(fam, sign, ell).get(idx)
    return total


def _ref_build_f1(spec):
    comps = [Poly(spec.m + 1) for _ in range(spec.m + 1)]
    for (comp, mono), terms in _kernel_constraints(spec.n, spec.m, spec.d, spec.phi):
        comps[comp]._accum(mono, _residual(spec, terms))
    return PolyVec(comps)


def _ref_project_to_kernel(spec):
    """One coefficient per constraint solved on its largest weight, ties to the largest (family, sign, idx)."""
    out = spec.copy()
    for _, terms in _kernel_constraints(spec.n, spec.m, spec.d, spec.phi):
        res = _residual(out, terms)
        fam, sign, ell, idx, w = max(terms, key=lambda t: (abs(t[4]), t[:4]))
        if abs(res) >= 1e-14 and abs(w) >= KERNEL_WEIGHT_TOL:
            table = out.table(fam, sign, ell)
            table.set(idx, table.get(idx) - res / w)
    return out


def _ref_f1_matrix(n, m, phi):
    """Each constraint's weights as a dict, looked up once per first-order slot."""
    slots, cons = _full_slots(n, m, FIRST_ORDER), _kernel_constraints(n, m, m, phi)
    A = np.zeros((len(cons), len(slots)))
    for row, (_, terms) in zip(A, cons):
        weights = {(fam, sign, ell, idx): w for fam, sign, ell, idx, w in terms}
        row[:] = [weights.get(slot, 0.0) for slot in slots]
    return A, [key for key, _ in cons]


F1_REFERENCE = SimpleNamespace(constraints=_kernel_constraints, build_f1=_ref_build_f1,
                               project_to_kernel=_ref_project_to_kernel, f1_matrix=_ref_f1_matrix)


@pytest.fixture
def f1_reference():
    """The per-constraint reference route for f_1 (see the module docstring)."""
    return F1_REFERENCE

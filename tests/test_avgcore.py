"""Closed-form averaged functions against the quadrature oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec, solve_ivp

from avgcycles import avgcore
from avgcycles.avgcore import (
    DegenerateEigenvalueError,
    QuadratureFailure,
    _F1_jacobians,
    _ZoneFields,
    _F1_of,
    _F2_of,
    _node_fields,
    _zone_variations,
    build_averaged_system,
    build_f1,
    build_f2,
    build_gamma,
    compile_fields,
    f1_kernel_constraints,
    numeric_g,
    oracle_f1,
    oracle_f2,
    oracle_gamma,
    project_to_kernel,
)
from avgcycles.polyalg import Poly
from avgcycles.sysspec import random_spec, zero_spec
from avgcycles.trigkernel import TWO_PI

POINTS = [np.array(v) for v in ([0.8], [1.3], [0.45])]


def _points(m):
    rng = np.random.default_rng(99)
    return [np.concatenate([[0.5 + 0.4 * k], rng.uniform(-0.8, 0.8, m)]) for k in range(3)]


class TestF1Oracle:
    @pytest.mark.parametrize("n,m,d,phi", [
        (1, 0, 0, math.pi / 2),
        (2, 1, 1, math.pi / 3),
        (2, 1, 2, math.pi),
        (3, 0, 1, 2.0),
    ])
    def test_matches_quadrature(self, n, m, d, phi):
        spec = random_spec(n, m, d, phi, 11, scale=0.5)
        f1 = build_f1(spec)
        for nu in _points(m):
            closed = np.array([p(nu) for p in f1])
            np.testing.assert_allclose(closed, oracle_f1(spec, nu), atol=1e-10, rtol=0)

    def test_zero_spec_gives_zero(self):
        f1 = build_f1(zero_spec(2, 1, 1, 1.0))
        assert all(p.is_zero() for p in f1)

    @pytest.mark.parametrize("n,m,d,phi", [
        (2, 1, 2, math.pi / 3),
        (3, 2, 3, math.pi),
        (3, 0, 2, TWO_PI),
        (2, 2, 2, 1.1),
    ])
    def test_matches_field_series_route(self, n, m, d, phi):
        # reference: each zone's radial and z fields integrated termwise, the
        # route build_f1 took before it read the kernel-constraint weights
        spec = random_spec(n, m, d, phi, 13, scale=0.5)
        for ell, poly in enumerate(build_f1(spec)):
            ref = Poly(m + 1)
            for sign in ("+", "-"):
                ref = ref + avgcore._g_contribution(spec, sign, avgcore._field_series(spec, 1, sign, ell + 2))
            monos = set(poly.terms) | set(ref.terms)
            assert max(abs(poly.terms.get(mo, 0.0) - ref.terms.get(mo, 0.0)) for mo in monos) < 4e-15


def _scipy_zone_reference(spec, sign, zz):
    """One zone by scipy's adaptive integrators: y_1 by quad_vec, and (y_1, y_2, T) by DOP853.

    The ODE is the joint variational system y_1' = D y_1 + F_1, y_2' = D y_2
    + 2 F_2 + 2 J y_1, T' = D T + J[:, tail] e^(mu_tail*s) along the
    unperturbed flow, with D the diagonal of tail eigenvalues.
    """
    nvar, m, ntail = spec.d + 1, spec.m, spec.d - spec.m
    theta = spec.phi if sign == "+" else spec.phi - TWO_PI
    dmu = np.array((0.0,) + spec.mu)
    C1, C2 = compile_fields(spec, 1, sign), compile_fields(spec, 2, sign)

    def fields(s):
        s, x = np.array([s]), (np.exp(dmu * s) * zz)[None]
        A, J = _F1_jacobians(spec, C1, s, x)
        return _F1_of(spec, A, x)[0], _F2_of(spec, A, _node_fields(C2, s, x), x)[0], J[0]

    def rhs(s, y):
        y1, y2, T = y[:nvar], y[nvar : 2 * nvar], y[2 * nvar :].reshape(nvar, ntail)
        F1, F2, J = fields(s)
        dT = dmu[:, None] * T + J[:, m + 1 :] * np.exp(dmu[m + 1 :] * s)
        return np.concatenate([dmu * y1 + F1, dmu * y2 + 2.0 * F2 + 2.0 * J @ y1, dT.ravel()])

    sol = solve_ivp(rhs, (0.0, theta), np.zeros(nvar * (2 + ntail)), method="DOP853", rtol=1e-13, atol=1e-13)
    assert sol.success, sol.message
    y = sol.y[:, -1]
    v1 = quad_vec(lambda s: fields(s)[0] * np.exp(-dmu * s), 0.0, theta, epsabs=1e-13, epsrel=0, norm="max")[0]
    return np.exp(dmu * theta) * v1, [y[:nvar], y[nvar : 2 * nvar], y[2 * nvar :].reshape(nvar, ntail)]


class TestChebyshevRule:
    """The oracle's spectral rule against scipy's adaptive integrators at tight tolerances."""

    @pytest.mark.parametrize("n,m,d,phi,seed", [
        (1, 0, 3, math.pi / 3, 7),  # minus zone output above 100
        (2, 1, 2, math.pi / 3, 1),
        (3, 0, 1, math.pi / 3, 2),
        (2, 0, 1, math.pi, 3),
        (1, 1, 2, math.pi, 4),
        (3, 2, 3, math.pi, 5),
        (2, 0, 2, TWO_PI, 6),
        (2, 2, 3, TWO_PI, 8),
    ])
    def test_matches_scipy_reference(self, n, m, d, phi, seed):
        spec = random_spec(n, m, d, phi, seed, scale=0.4)
        rng = np.random.default_rng(seed)
        zz = avgcore._embed(spec, np.concatenate([[rng.uniform(0.4, 1.6)], rng.uniform(-0.8, 0.8, m)]))
        g1 = 0.0
        for sign in ("+", "-"):
            y1_ref, triple_ref = _scipy_zone_reference(spec, sign, zz)
            g1 = g1 + (y1_ref if sign == "+" else -y1_ref)
            for got, want in zip(_zone_variations(spec, sign, 2, zz), triple_ref, strict=True):
                np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)
        np.testing.assert_allclose(numeric_g(spec, 1, zz), g1, atol=1e-10, rtol=0)
        if seed == 7:
            assert max(np.abs(v).max() for v in _zone_variations(spec, "-", 2, zz)) > 100

    def test_empty_minus_zone_evaluates_nothing(self, monkeypatch):
        spec = random_spec(2, 0, 2, TWO_PI, 6, scale=0.4)
        monkeypatch.setattr(avgcore, "compile_fields", None)
        y1, y2, T = _zone_variations(spec, "-", 2, np.array([0.8, 0.1, -0.2]))
        assert not y1.any() and not y2.any() and T.shape == (3, 2) and not T.any()


class TestQuadratureFailure:
    @pytest.mark.parametrize("oracle", [oracle_f1, oracle_f2])
    def test_nonconvergence_at_the_node_cap_raises(self, monkeypatch, oracle):
        # degree-9 trigonometric integrands over the 11*pi/6-long minus zone
        # need more than 32 Chebyshev intervals; with the cap at the starting
        # N the rule gives up after its first N/2N comparison
        spec = random_spec(8, 0, 1, math.pi / 6, 11, scale=0.5)
        oracle(spec, [0.8])
        monkeypatch.setattr(avgcore, "NODE_CAP", avgcore.NODE_START)
        with pytest.raises(QuadratureFailure, match=r"- zone on \[0, -5\.7\d*\]: .* N = 32 and 64 still differs by"):
            oracle(spec, [0.8])


class TestKernelConstraints:
    def test_projection_kills_f1(self):
        spec = random_spec(2, 1, 2, math.pi / 3, 3, scale=0.7)
        ps = project_to_kernel(spec)
        f1 = build_f1(ps)
        assert max(p.max_coeff() for p in f1) < 1e-10

    def test_constraints_annihilate_projected_tables(self):
        spec = random_spec(2, 0, 1, 1.2, 5)
        ps = project_to_kernel(spec)
        for con in f1_kernel_constraints(ps):
            total = sum(w * ps.table(fam, sign, con.component - 1 if fam == "c" else None).get(idx)
                        for fam, sign, idx, w in con.terms)
            assert abs(total) < 1e-10


class TestGammaOracle:
    def test_matches_quadrature(self):
        spec = random_spec(2, 0, 2, 1.1, 21, scale=0.5)
        gamma = build_gamma(spec)
        for nu in _points(0):
            closed = np.array([g(nu) for g in gamma])
            np.testing.assert_allclose(closed, oracle_gamma(spec, nu), atol=1e-9, rtol=0)


class TestF2Oracle:
    @pytest.mark.parametrize("n,m,d,phi", [
        (2, 0, 0, math.pi / 2),
        (2, 1, 1, math.pi / 3),
        (1, 0, 1, math.pi),
    ])
    def test_matches_quadrature_on_kernel(self, n, m, d, phi):
        spec = project_to_kernel(random_spec(n, m, d, phi, 31, scale=0.5))
        rf2 = build_f2(spec, check_f1=False)
        for nu in _points(m):
            closed = np.array([p(nu) for p in rf2]) / nu[0]
            np.testing.assert_allclose(closed, oracle_f2(spec, nu), atol=1e-8, rtol=0)

    @pytest.mark.parametrize("n,m,d", [(2, 1, 2), (3, 2, 3)])
    def test_slave_derivative_is_not_a_difference_quotient(self, n, m, d):
        # dg_1/dv comes from the tail tangents the oracle integrates with y_1,
        # so the agreement sits near the rule's tolerance; a central
        # difference of g_1 missed 1e-10 on these specs
        spec = project_to_kernel(random_spec(n, m, d, math.pi / 3, 61, scale=0.4))
        rf2 = build_f2(spec, check_f1=False)
        for nu in _points(m):
            closed = np.array([p(nu) for p in rf2]) / nu[0]
            np.testing.assert_allclose(closed, oracle_f2(spec, nu), rtol=0, atol=1e-10)

    def test_f2_requires_zero_f1(self):
        spec = random_spec(1, 0, 0, 1.0, 41, scale=0.5)
        with pytest.raises(ValueError, match="f_1"):
            build_f2(spec)

    def test_degenerate_eigenvalue_rejected(self):
        # a slave decay rate this close to zero degenerates the return factor
        spec = random_spec(1, 0, 1, 1.0, 43, mu=[1e-14], scale=0.2)
        with pytest.raises(DegenerateEigenvalueError):
            build_f2(project_to_kernel(spec), check_f1=False)


class TestQuadraticContraction:
    """The Gram-matrix contraction against series products integrated termwise."""

    DIMS = [(1, 0, 0), (2, 0, 1), (3, 0, 2), (3, 0, 0), (1, 1, 1), (2, 1, 2), (3, 1, 3), (2, 1, 1),
            (2, 2, 2), (3, 2, 3), (1, 2, 3), (3, 2, 2)]

    @pytest.mark.parametrize("phi", [math.pi / 3, math.pi, TWO_PI, 1.1])
    @pytest.mark.parametrize("n,m,d", DIMS)
    def test_matches_series_products(self, n, m, d, phi, series_bilinear):
        spec = project_to_kernel(random_spec(n, m, d, phi, 100 * n + 10 * m + d, scale=0.5))
        for sign in ("+", "-"):
            Z = _ZoneFields(spec, sign)
            monos, X = avgcore._quadratic_rf2(spec, sign, [Z])
            for ell in range(m + 1):
                ref = avgcore._g_contribution(spec, sign, series_bilinear(Z, Z, ell), rshift=1).scaled(2.0)
                got = dict(zip(monos, X[0, 0, ell]))
                worst = max(abs(got.get(mo, 0.0) - ref.terms.get(mo, 0.0)) for mo in set(got) | set(ref.terms))
                assert worst <= 1e-14 * ref.max_coeff()  # 0 <= 0 on the empty minus zone at 2*pi


class TestBuildAveragedSystem:
    def test_second_order_only_when_f1_vanishes(self):
        spec = random_spec(2, 0, 0, 1.3, 51, scale=0.5)
        avg = build_averaged_system(spec)
        assert avg.rf2 is None
        avg2 = build_averaged_system(project_to_kernel(spec))
        assert avg2.rf2 is not None

    def test_full_turn_angle_supported(self):
        spec = project_to_kernel(random_spec(2, 0, 0, TWO_PI, 52, scale=0.5))
        avg = build_averaged_system(spec)
        assert avg.rf2 is not None


class TestCompiledFields:
    """The flow and oracle fields evaluate the spec's tables through CompiledPolyVec."""

    spec = random_spec(2, 1, 3, 1.1, 23)  # d > m: two slave components
    thetas = np.array([0.3, 2.9, 0.3, 2.9])
    states = np.array([[0.7, -0.4, 0.3, -0.6], [0.7, -0.4, 0.3, -0.6],
                       [1.4, 0.5, -0.2, 0.9], [1.4, 0.5, -0.2, 0.9]])

    @staticmethod
    def _table_sum(table, point):
        return sum(c * math.prod(v**e for v, e in zip(point, idx)) for idx, c in table.entries.items())

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_fields_match_per_monomial_sums(self, order, sign):
        fam_a, fam_b, fam_c = ("a", "b", "c") if order == 1 else ("alpha", "beta", "gamma")
        C = compile_fields(self.spec, order, sign)
        got = _node_fields(C, self.thetas, self.states)
        for theta, x, row in zip(self.thetas, self.states, got):
            r, cx, sx = x[0], math.cos(theta), math.sin(theta)
            point = (r * cx, r * sx, *x[1:])
            va = self._table_sum(self.spec.table(fam_a, sign), point)
            vb = self._table_sum(self.spec.table(fam_b, sign), point)
            vc = [self._table_sum(self.spec.table(fam_c, sign, k), point) for k in range(self.spec.d)]
            want = [(vb * cx - va * sx) / r, va * cx + vb * sx, *vc]
            np.testing.assert_allclose(row, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_f1_jacobian_matches_central_differences(self, sign):
        C1 = compile_fields(self.spec, 1, sign)
        h = 1e-6
        J = _F1_jacobians(self.spec, C1, self.thetas, self.states)[1]
        for k in range(self.states.shape[1]):
            dx = np.zeros(self.states.shape[1])
            dx[k] = h
            plus, minus = self.states + dx, self.states - dx
            fd = (_F1_of(self.spec, _node_fields(C1, self.thetas, plus), plus)
                  - _F1_of(self.spec, _node_fields(C1, self.thetas, minus), minus)) / (2 * h)
            np.testing.assert_allclose(J[:, :, k], fd, rtol=1e-7, atol=1e-8)

    def test_batch_equals_batches_of_one(self):
        # equal up to the summation order BLAS picks for each batch size
        C1, C2 = compile_fields(self.spec, 1, "+"), compile_fields(self.spec, 2, "+")
        A, J = _F1_jacobians(self.spec, C1, self.thetas, self.states)
        B = _node_fields(C2, self.thetas, self.states)
        for k in range(len(self.thetas)):
            s, x = self.thetas[k : k + 1], self.states[k : k + 1]
            A1, J1 = _F1_jacobians(self.spec, C1, s, x)
            np.testing.assert_allclose(A1[0], A[k], rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(J1[0], J[k], rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(_node_fields(C2, s, x)[0], B[k], rtol=1e-14, atol=1e-14)

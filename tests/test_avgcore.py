"""Closed-form averaged functions against the quadrature oracle."""

import functools
import math

import numpy as np
import pytest
import scipy.integrate

from avgcycles import avgcore
from avgcycles.avgcore import (
    DegenerateEigenvalueError,
    QuadratureFailure,
    _F1_jac,
    build_averaged_system,
    build_f1,
    build_f2,
    build_gamma,
    compile_fields,
    eval_F1,
    eval_fields,
    f1_kernel_constraints,
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


class TestQuadratureFailure:
    def test_nonconvergence_reported_by_scipy_raises(self, monkeypatch):
        # scipy's quad_vec only warns when it stops short of its target; a
        # one-interval budget makes it stop at once with status 1
        monkeypatch.setattr(avgcore, "quad_vec", functools.partial(scipy.integrate.quad_vec, limit=1))
        spec = random_spec(2, 1, 2, math.pi / 3, 11, scale=0.5)
        with pytest.raises(QuadratureFailure, match="Target precision not reached"):
            oracle_f1(spec, [0.8, 0.2])


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
        # dg_1/dv comes from the variational ODE, so the agreement sits near
        # the integrator's tolerance; a central difference of g_1 missed
        # 1e-10 on these specs
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
    states = [np.array([0.7, -0.4, 0.3, -0.6]), np.array([1.4, 0.5, -0.2, 0.9])]

    @staticmethod
    def _table_sum(table, point):
        return sum(c * math.prod(v**e for v, e in zip(point, idx)) for idx, c in table.entries.items())

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_fields_match_per_monomial_sums(self, order, sign):
        fam_a, fam_b, fam_c = ("a", "b", "c") if order == 1 else ("alpha", "beta", "gamma")
        C = compile_fields(self.spec, order, sign)
        for theta in (0.3, 2.9):
            for x in self.states:
                r, cx, sx = x[0], math.cos(theta), math.sin(theta)
                point = (r * cx, r * sx, *x[1:])
                va = self._table_sum(self.spec.table(fam_a, sign), point)
                vb = self._table_sum(self.spec.table(fam_b, sign), point)
                vc = [self._table_sum(self.spec.table(fam_c, sign, k), point) for k in range(self.spec.d)]
                want = [(vb * cx - va * sx) / r, va * cx + vb * sx, *vc]
                np.testing.assert_allclose(eval_fields(C, theta, x), want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_f1_jacobian_matches_central_differences(self, sign):
        C1 = compile_fields(self.spec, 1, sign)
        h = 1e-6
        for theta in (0.3, 2.9):
            for x in self.states:
                J = _F1_jac(self.spec, C1, theta, x)[1]
                for k in range(len(x)):
                    dx = np.zeros(len(x))
                    dx[k] = h
                    fd = (eval_F1(self.spec, C1, theta, x + dx) - eval_F1(self.spec, C1, theta, x - dx)) / (2 * h)
                    np.testing.assert_allclose(J[:, k], fd, rtol=1e-7, atol=1e-8)

"""Sparse polynomial arithmetic, compiled evaluation and Jacobians, and degree bounds."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcycles.polyalg import CompiledPolyVec, Poly, PolyVec, bezout_bound, gamma
from trigseries import poly_diff

coeffs = st.floats(-4.0, 4.0, allow_nan=False)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(monos2, coeffs, max_size=6).map(lambda t: Poly(2, t))
points2 = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(np.array)
monos3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polyvecs3 = st.lists(st.dictionaries(monos3, coeffs, max_size=8), min_size=3, max_size=3).map(
    lambda ts: PolyVec([Poly(3, t) for t in ts]))
batches3 = st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=1, max_size=5).map(np.array)
# degrees up to 8, as in r*f_2 at n = 3 and the flow's coefficient tables,
# on points with exact zeros, negative entries and |x| > 1
monos8 = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
polyvecs8 = st.lists(st.dictionaries(monos8, coeffs, max_size=8), min_size=3, max_size=3).map(
    lambda ts: PolyVec([Poly(3, t) for t in ts]))
entries8 = st.one_of(st.sampled_from([0.0, -1.0, 1.0]), st.floats(-3.0, 3.0))
batches8 = st.lists(st.tuples(*[entries8] * 3), min_size=1, max_size=5).map(np.array)
# boxes as per-axis corner pairs: some straddle 0, some are points, some touch 0
corners8 = st.tuples(entries8, st.one_of(st.sampled_from([0.0]), st.floats(0.0, 3.0)))
boxes8 = st.lists(st.tuples(*[corners8] * 3), min_size=1, max_size=3).map(
    lambda bs: (np.array([[a for a, _ in b] for b in bs]), np.array([[a + w for a, w in b] for b in bs])))


def _atol(p, x):
    """1e-12 of the sum of |term| at x (the round-off scale of any summation
    order), plus a floor for products that underflow into subnormals."""
    scale = sum(abs(c) * np.prod(np.abs(x) ** np.array(mo)) for mo, c in p.terms.items())
    return 1e-12 * scale + 1e-300


class TestPoly:
    def test_arithmetic(self):
        r = Poly.variable(2, 0)
        z = Poly.variable(2, 1)
        p = (r + z.scaled(2.0)) * (r - z)  # r^2 + rz - 2z^2
        assert p.terms == {(2, 0): 1.0, (1, 1): 1.0, (0, 2): -2.0}

    def test_eval_matches_terms(self):
        p = Poly(2, {(2, 1): 3.0, (0, 0): -1.5})
        pt = np.array([1.3, -0.7])
        assert p(pt) == pytest.approx(3.0 * 1.3**2 * (-0.7) - 1.5, rel=1e-14)

    def test_diff(self):
        p = Poly(2, {(3, 2): 2.0})
        assert poly_diff(p, 0).terms == {(2, 2): 6.0}
        assert poly_diff(p, 1).terms == {(3, 1): 4.0}
        assert poly_diff(Poly.constant(2, 5.0), 0).terms == {}

    def test_cancellation_prunes(self):
        p = Poly(1, {(1,): 1.0}) - Poly(1, {(1,): 1.0})
        assert p.is_zero()
        assert p.degree() == -1

    def test_round_off_prunes(self):
        # 0.1 + 0.2 - 0.3 leaves 5.6e-17, below PRUNE_TOL; 2e-15 stays
        assert (Poly(1, {(1,): 0.1 + 0.2}) - Poly(1, {(1,): 0.3})).is_zero()
        assert Poly(1, {(0,): 5e-16}).is_zero()
        assert Poly(1, {(0,): 1.0}).scaled(2e-15).terms == {(0,): 2e-15}
        assert Poly(1, {(0,): 1.0}).scaled(5e-16).is_zero()

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            Poly.variable(2, 0) + Poly.variable(3, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly(1, {(-1,): 1.0})

    @pytest.mark.parametrize("mono, match", [((1,), "wrong length"), ((1, 0, 2), "wrong length"),
                                             ((2, -1), "negative exponent")])
    def test_entering_monomials_checked(self, mono, match):
        # terms enter through the constructor or _accum; both check them
        with pytest.raises(ValueError, match=match):
            Poly(2, {mono: 1.0})
        p = Poly.variable(2, 0)
        with pytest.raises(ValueError, match=match):
            p._accum(mono, 1.0)
        assert p.terms == {(1, 0): 1.0}

    def test_pretty_deterministic(self):
        p = Poly(2, {(1, 0): 1.0, (0, 2): -2.0, (0, 0): 0.5})
        assert p.pretty() == "0.5 + 1*r - 2*z1^2"


class TestPolyVec:
    def test_call_and_len(self):
        F = PolyVec([Poly(2, {(1, 0): 1.0}), Poly(2, {(0, 1): 1.0, (0, 0): -1.0})])
        assert len(F) == 2
        np.testing.assert_allclose(F([2.0, 3.0]), [2.0, 2.0])

    def test_jacobian_matches_fd(self):
        F = PolyVec([
            Poly(2, {(2, 0): 1.0, (1, 1): -0.5}),
            Poly(2, {(0, 3): 2.0, (1, 0): 1.0}),
        ])
        x = np.array([0.9, -0.4])
        J = CompiledPolyVec.of(F).jacobians(x[None])[0]
        det = np.linalg.det(J)
        h = 1e-7
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = h
            fd = (F(x + dx) - F(x - dx)) / (2 * h)
            np.testing.assert_allclose(J[:, k], fd, atol=1e-6)
        assert det == pytest.approx(np.linalg.det(J))


class TestCompiledPolyVec:
    @settings(max_examples=80, deadline=None)
    @given(polyvecs3, batches3)
    def test_matches_sparse_evaluation(self, F, X):
        self._check_against_sparse(F, X)

    @settings(max_examples=80, deadline=None)
    @given(polyvecs8, batches8)
    def test_high_degrees_match_sparse_evaluation(self, F, X):
        self._check_against_sparse(F, X)

    def test_every_power_up_to_eight(self):
        F = PolyVec([Poly(3, {(e, 8 - e, e % 3): 1.0 for e in range(9)}) for _ in range(3)])
        X = np.array([[0.0, -2.5, 1.7], [-0.3, 0.0, -1.9], [2.9, 1.1, 0.0]])
        self._check_against_sparse(F, X)
        np.testing.assert_allclose(CompiledPolyVec.of(F)._powers(X).reshape(3, 3, 9),
                                   X[:, :, None] ** np.arange(9), rtol=1e-12, atol=0.0)

    def test_nonfinite_points_give_pow_table(self):
        # x**0 = 1 for every x, inf and nan included; higher powers follow pow
        C = CompiledPolyVec(3, [{(5, 0, 2): 1.0, (0, 3, 0): 1.0}])
        X = np.array([[np.inf, -np.inf, np.nan], [np.nan, 0.0, -np.inf], [-0.0, np.inf, 1.5]])
        P = C._powers(X).reshape(3, 3, C.npow)
        np.testing.assert_array_equal(P, X[:, :, None] ** np.arange(C.npow))
        np.testing.assert_array_equal(P[:, :, 0], np.ones((3, 3)))

    @staticmethod
    def _check_against_sparse(F, X):
        C = CompiledPolyVec.of(F)
        vals, jacs = C.values(X), C.jacobians(X)
        assert vals.shape == (len(X), 3) and jacs.shape == (len(X), 3, 3)
        for b, x in enumerate(X):
            for i, p in enumerate(F):
                assert vals[b, i] == pytest.approx(p(x), rel=1e-12, abs=_atol(p, x))
                for j in range(3):
                    dp = poly_diff(p, j)
                    assert jacs[b, i, j] == pytest.approx(dp(x), rel=1e-12, abs=_atol(dp, x))

    def test_zero_and_constant_components(self):
        F = PolyVec([Poly(2), Poly.constant(2, 2.5)])
        X = np.array([[0.3, -1.2], [0.0, 0.0]])
        C = CompiledPolyVec.of(F)
        np.testing.assert_array_equal(C.values(X), [[0.0, 2.5], [0.0, 2.5]])
        np.testing.assert_array_equal(C.jacobians(X), np.zeros((2, 2, 2)))
        J = C.jacobians(X[:1])[0]
        det = np.linalg.det(J)
        np.testing.assert_array_equal(J, np.zeros((2, 2)))
        assert det == 0.0
        all_zero = CompiledPolyVec.of(PolyVec([Poly(2), Poly(2)]))
        np.testing.assert_array_equal(all_zero.values(X), np.zeros((2, 2)))

    def test_constant_next_to_variable_component(self):
        F = PolyVec([Poly.constant(2, -1.0), Poly(2, {(0, 2): 3.0, (1, 0): 1.0})])
        C, x = CompiledPolyVec.of(F), np.array([[0.5, 2.0]])
        np.testing.assert_array_equal(C.jacobians(x)[0], [[0.0, 0.0], [1.0, 12.0]])
        np.testing.assert_allclose(C.values(x), [[-1.0, 12.5]])

    def test_point_shape_checked(self):
        F = PolyVec([Poly.variable(2, 0), Poly.variable(2, 1)])
        with pytest.raises(ValueError, match="shape"):
            CompiledPolyVec.of(F).values(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="shape"):
            CompiledPolyVec.of(F).jacobians(np.array([[1.0, 2.0, 3.0]]))


def _exact(terms, x, j=None):
    """The polynomial (or its d/dx_j) at the float point x, in exact rational arithmetic."""
    total = Fraction(0)
    for mono, c in terms.items():
        e = list(mono)
        w = Fraction(c)
        if j is not None:
            if not e[j]:
                continue
            w *= e[j]
            e[j] -= 1
        for xv, ev in zip(x, e):
            w *= Fraction(float(xv)) ** ev
        total += w
    return total


class TestEnclosures:
    @settings(max_examples=60, deadline=None)
    @given(polyvecs8, boxes8)
    def test_enclosures_contain_values_and_jacobians(self, F, box):
        # at the corners, centre and 0 of each box (boxes that straddle 0
        # included), the exact values and derivatives lie in the enclosures,
        # and so do the evaluator's, within its own round-off bound
        # gamma * sum |c x^e|; the exact G at the centre lies within value_err
        lo, hi = box
        C = CompiledPolyVec.of(F)
        E = C.enclosures(lo, hi)
        assert E.value.shape == E.value_rad.shape == E.value_err.shape == (len(lo), 3)
        assert E.jac.shape == E.jac_rad.shape == (len(lo), 3, 3)
        A = CompiledPolyVec(3, [{mo: abs(c) for mo, c in p.terms.items()} for p in F])
        g = gamma(len(C.exps) + 3 * C.npow)
        for b in range(len(lo)):
            for v in range(3):
                assert Fraction(E.centre[b, v]) - Fraction(E.half[b, v]) <= Fraction(lo[b, v])
                assert Fraction(hi[b, v]) <= Fraction(E.centre[b, v]) + Fraction(E.half[b, v])
            for i, p in enumerate(F):
                assert abs(_exact(p.terms, E.centre[b]) - Fraction(E.value[b, i])) <= Fraction(E.value_err[b, i])
            axes = [sorted({lo[b, v], E.centre[b, v], hi[b, v], min(max(0.0, lo[b, v]), hi[b, v])})
                    for v in range(3)]
            X = np.array(list(itertools.product(*axes)))
            vals, jacs = C.values(X), C.jacobians(X)
            bound, jbound = g * A.values(np.abs(X)), g * A.jacobians(np.abs(X))
            for x, val, jac, err, jerr in zip(X, vals, jacs, bound, jbound):
                for i, p in enumerate(F):
                    exact = _exact(p.terms, x)
                    assert abs(exact - Fraction(E.value[b, i])) <= Fraction(E.value_rad[b, i])
                    assert abs(val[i] - E.value[b, i]) <= E.value_rad[b, i] + err[i]
                    for j in range(3):
                        exact = _exact(p.terms, x, j)
                        assert abs(exact - Fraction(E.jac[b, i, j])) <= Fraction(E.jac_rad[b, i, j])
                    assert np.all(np.abs(jac[i] - E.jac[b, i]) <= E.jac_rad[b, i] + jerr[i])

    def test_point_enclosure_is_tight(self):
        # (x - 1)^2 at x = 1 + 2^-20: the exact value 2^-40 and a radius at round-off
        p = Poly(1, {(2,): 1.0, (1,): -2.0, (0,): 1.0})
        x = np.array([[1.0 + 2.0**-20]])
        E = CompiledPolyVec.of(PolyVec([p])).enclosures(x, x)
        assert abs(E.value[0, 0] - 2.0**-40) <= E.value_err[0, 0] <= E.value_rad[0, 0] < 1e-14
        assert abs(E.jac[0, 0, 0] - 2.0**-19) <= E.jac_rad[0, 0, 0] < 1e-14

    def test_centred_form_survives_cancellation(self):
        # (x - 1)^6 has coefficients up to 20 but stays below 1e-18 on
        # [1 - 1e-3, 1 + 1e-3]: the monomial form's radius would be about
        # 6e-2 there, the centred form's is the round-off of the shift
        p = Poly.constant(1, 1.0)
        for _ in range(6):
            p = p * (Poly.variable(1, 0) - Poly.constant(1, 1.0))
        E = CompiledPolyVec.of(PolyVec([p])).enclosures(np.array([[1.0 - 1e-3]]), np.array([[1.0 + 1e-3]]))
        assert E.value_rad[0, 0] < 1e-12 and E.jac_rad[0, 0, 0] < 1e-12

    def test_box_shape_checked(self):
        C = CompiledPolyVec(2, [{(1, 0): 1.0}])
        with pytest.raises(ValueError, match="corners"):
            C.enclosures(np.zeros((2, 2)), np.zeros((3, 2)))


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(polys2, polys2, points2)
    def test_product_evaluates_pointwise(self, p, q, x):
        assert (p * q)(x) == pytest.approx(p(x) * q(x), rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(polys2, polys2, points2)
    def test_sum_evaluates_pointwise(self, p, q, x):
        assert (p + q)(x) == pytest.approx(p(x) + q(x), rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(polys2, polys2)
    def test_derivative_is_linear(self, p, q):
        lhs = poly_diff(p + q, 0)
        rhs = poly_diff(p, 0) + poly_diff(q, 0)
        monos = set(lhs.terms) | set(rhs.terms)
        assert all(abs(lhs.terms.get(mo, 0.0) - rhs.terms.get(mo, 0.0)) < 1e-9 for mo in monos)


# coefficients that cancel exactly or to below PRUNE_TOL, next to generic ones
cancelling = st.one_of(coeffs, st.sampled_from([1.0, -1.0, 0.5, 2e-15, -2e-15]))
cpolys2 = st.dictionaries(monos2, cancelling, max_size=6).map(lambda t: Poly(2, t))


def _checked(nvars, pairs):
    """A Poly built from (monomial, coefficient) pairs through the checked _accum alone."""
    out = Poly(nvars)
    for mono, c in pairs:
        out._accum(mono, c)
    return out


def _same(p, q):
    """Equal terms, bit for bit and in the same order."""
    return list(p.terms.items()) == list(q.terms.items())


class TestUncheckedArithmetic:
    """Arithmetic on checked terms adds them unchecked, and the result is the checked one."""

    @settings(max_examples=80, deadline=None)
    @given(cpolys2, cpolys2, cancelling)
    def test_matches_checked_reference(self, p, q, c):
        both = [*p.terms.items(), *q.terms.items()]
        assert _same(p.copy(), _checked(2, p.terms.items()))
        assert _same(p + q, _checked(2, both))
        assert _same(p.scaled(c), _checked(2, [(mo, v * c) for mo, v in p.terms.items()]))
        minus_q = _checked(2, [(mo, -v) for mo, v in q.terms.items()])
        assert _same(p - q, _checked(2, [*p.terms.items(), *minus_q.terms.items()]))
        assert _same(p * q, _checked(2, [((a1 + a2, b1 + b2), c1 * c2) for (a1, b1), c1 in p.terms.items()
                                         for (a2, b2), c2 in q.terms.items()]))
        for var in (0, 1):
            assert _same(poly_diff(p, var), _checked(2, [(tuple(e - (k == var) for k, e in enumerate(mo)), v * mo[var])
                                                         for mo, v in p.terms.items() if mo[var]]))

    @settings(max_examples=40, deadline=None)
    @given(cpolys2, cpolys2)
    def test_in_place_sum_is_the_sum(self, p, q):
        total, before = p.copy(), p.copy()
        total += q
        assert _same(total, p + q)
        assert _same(p, before)  # the copy shares no terms with p


class TestBezout:
    def test_product_of_degrees(self):
        F = PolyVec([Poly(2, {(2, 0): 1.0}), Poly(2, {(0, 3): 1.0})])
        assert bezout_bound(F) == 6

    def test_degenerate_component_gives_zero(self):
        F = PolyVec([Poly(2, {(0, 0): 1.0}), Poly(2, {(0, 1): 1.0})])
        assert bezout_bound(F) == 0
        F0 = PolyVec([Poly(2), Poly(2, {(0, 1): 1.0})])
        assert bezout_bound(F0) == 0

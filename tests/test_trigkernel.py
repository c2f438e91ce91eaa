"""Closed-form trigonometric kernels against frozen values and quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from avgcycles.trigkernel import (
    TWO_PI,
    ExpTrigKey,
    KernelError,
    TrigKey,
    double_exp_trig,
    exp_trig,
    lemma_vanish_predicate,
    nested_I,
    trig_monomial,
    nested_J,
    trig_I,
    trig_J,
)


class TestFrozenValues:
    def test_trig_I_basic(self):
        assert trig_I(TrigKey(2, 1, math.pi / 2)) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert trig_I(TrigKey(0, 0, math.pi)) == pytest.approx(math.pi, abs=1e-14)
        assert trig_I(TrigKey(1, 0, math.pi / 2)) == pytest.approx(1.0, abs=1e-14)

    def test_trig_J_complements_full_turn(self):
        for p, q in [(0, 0), (2, 2), (3, 1)]:
            key = TrigKey(p, q, 1.1)
            total = trig_I(TrigKey(p, q, TWO_PI))
            assert trig_I(key) + trig_J(key) == pytest.approx(total, abs=1e-13)

    def test_exp_trig_value(self):
        val = exp_trig(ExpTrigKey(1.0, 1, 0, 0.0, math.pi))
        assert val == pytest.approx(-(math.e**math.pi + 1.0) / 2.0, rel=1e-13)

    def test_double_exp_trig_value(self):
        # int_0^1 int_0^s e^(s-tau) dtau ds = e - 2
        assert double_exp_trig(0, 0, 0, 0, 1.0, 0.0, 1.0) == pytest.approx(math.e - 2.0, rel=1e-13)

    def test_nested_I_value(self):
        # int_0^{pi/2} s ds = pi^2/8
        assert nested_I(0, 0, 0, 0, math.pi / 2) == pytest.approx(math.pi**2 / 8.0, rel=1e-13)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("p,q,phi", [(3, 2, 1.0), (0, 5, 2.5), (4, 4, math.pi / 3)])
    def test_trig_I(self, p, q, phi):
        ref, _ = quad(lambda s: math.cos(s) ** p * math.sin(s) ** q, 0.0, phi, epsabs=1e-13)
        assert trig_I(TrigKey(p, q, phi)) == pytest.approx(ref, abs=1e-11)

    @pytest.mark.parametrize("mu,p,q,a,b", [(0.7, 2, 1, 0.3, 2.0), (-1.3, 0, 3, 0.0, math.pi)])
    def test_exp_trig(self, mu, p, q, a, b):
        ref, _ = quad(lambda s: math.exp(mu * s) * math.cos(s) ** p * math.sin(s) ** q,
                      a, b, epsabs=1e-13)
        assert exp_trig(ExpTrigKey(mu, p, q, a, b)) == pytest.approx(ref, abs=1e-11)

    def test_nested_against_quadrature(self):
        i, j, p, q, phi = 2, 1, 1, 2, 1.3

        def inner(s):
            val, _ = quad(lambda t: math.cos(t) ** p * math.sin(t) ** q, 0.0, s, epsabs=1e-12)
            return val

        ref, _ = quad(lambda s: math.cos(s) ** i * math.sin(s) ** j * inner(s), 0.0, phi,
                      epsabs=1e-11, limit=200)
        assert nested_I(i, j, p, q, phi) == pytest.approx(ref, abs=1e-9)

    def test_double_exp_against_quadrature(self):
        i, j, p, q, mu = 1, 1, 2, 0, -0.8
        a, b = 0.2, 2.4

        def inner(s):
            val, _ = quad(lambda t: math.exp(mu * (s - t)) * math.cos(t) ** p * math.sin(t) ** q,
                          0.0, s, epsabs=1e-12)
            return val

        ref, _ = quad(lambda s: math.cos(s) ** i * math.sin(s) ** j * inner(s), a, b,
                      epsabs=1e-11, limit=200)
        assert double_exp_trig(i, j, p, q, mu, a, b) == pytest.approx(ref, abs=1e-9)


class TestIntegralFromZero:
    @pytest.mark.parametrize("p,q,lam", [(2, 1, 0.0j), (1, 3, complex(-0.8)), (0, 0, complex(1e-10))])
    def test_is_the_running_integral(self, p, q, lam):
        hs = trig_monomial(p, q, lam=lam)
        run = hs.integral_from_zero()
        assert abs(run.eval(0.0)) < 1e-15
        for s in (0.7, 2.9):
            assert run.eval(s).real == pytest.approx(hs.definite(0.0, s), abs=1e-13)


class TestVanishPredicate:
    def test_plain_at_pi_iff_p_odd(self):
        for p in range(6):
            for q in range(6):
                want = p % 2 == 1
                assert lemma_vanish_predicate("first", "plain", (p, q), math.pi) is want
                got = abs(trig_I(TrigKey(p, q, math.pi))) < 1e-12
                assert got is want

    def test_plain_full_turn_iff_not_both_even(self):
        for p in range(6):
            for q in range(6):
                want = not (p % 2 == 0 and q % 2 == 0)
                assert lemma_vanish_predicate("first", "plain", (p, q), TWO_PI) is want

    def test_nested_full_turn_out_of_scope(self):
        with pytest.raises(ValueError):
            lemma_vanish_predicate("first", "nested", (0, 0, 0, 0), TWO_PI)

    def test_generic_angle_predicts_nothing(self):
        assert lemma_vanish_predicate("first", "plain", (1, 0), 1.0) is False


class TestValidation:
    def test_negative_exponents_rejected(self):
        with pytest.raises(KernelError):
            TrigKey(-1, 0, 1.0)
        with pytest.raises(KernelError):
            nested_I(0, -2, 0, 0, 1.0)

    def test_phi_range(self):
        with pytest.raises(KernelError):
            TrigKey(0, 0, 0.0)
        with pytest.raises(KernelError):
            TrigKey(0, 0, 7.0)

    def test_reversed_limits(self):
        with pytest.raises(KernelError):
            ExpTrigKey(0.0, 0, 0, 2.0, 1.0)
        with pytest.raises(KernelError):
            double_exp_trig(0, 0, 0, 0, 1.0, 2.0, 1.0)

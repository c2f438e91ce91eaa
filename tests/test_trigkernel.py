"""Closed-form trigonometric kernels against frozen values and quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from avgcycles.trigkernel import (
    TWO_PI,
    HarmonicSum,
    KernelError,
    TrigKey,
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

    def test_nested_I_value(self):
        # int_0^{pi/2} s ds = pi^2/8
        assert nested_I(0, 0, 0, 0, math.pi / 2) == pytest.approx(math.pi**2 / 8.0, rel=1e-13)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("p,q,phi", [(3, 2, 1.0), (0, 5, 2.5), (4, 4, math.pi / 3)])
    def test_trig_I(self, p, q, phi):
        ref, _ = quad(lambda s: math.cos(s) ** p * math.sin(s) ** q, 0.0, phi, epsabs=1e-13)
        assert trig_I(TrigKey(p, q, phi)) == pytest.approx(ref, abs=1e-11)

    def test_nested_against_quadrature(self):
        i, j, p, q, phi = 2, 1, 1, 2, 1.3

        def inner(s):
            val, _ = quad(lambda t: math.cos(t) ** p * math.sin(t) ** q, 0.0, s, epsabs=1e-12)
            return val

        ref, _ = quad(lambda s: math.cos(s) ** i * math.sin(s) ** j * inner(s), 0.0, phi,
                      epsabs=1e-11, limit=200)
        assert nested_I(i, j, p, q, phi) == pytest.approx(ref, abs=1e-9)


class TestIntegralFromZero:
    @pytest.mark.parametrize("p,q,lam", [(2, 1, 0.0j), (1, 3, complex(-0.8)), (0, 0, complex(1e-10))])
    def test_is_the_running_integral(self, p, q, lam):
        hs = trig_monomial(p, q, lam=lam)
        run = hs.integral_from_zero()
        assert abs(run.eval(0.0)) < 1e-15
        for s in (0.7, 2.9):
            assert run.eval(s).real == pytest.approx(hs.definite(0.0, s), abs=1e-13)



def _times(mono, hs):
    """A function of s alone, as a HarmonicSum, times the nu-monomial mono."""
    return HarmonicSum({(mono, k, lam): c for (_, k, lam), c in hs.terms.items()})


class TestNuMonomialSeries:
    def test_product_diff_and_integrals(self):
        # nu = (r, z_1); f = r z_1 cos s + r^-1 e^(-0.8 s), g = z_1^2 s sin s + cos^2 s
        f_parts = {(1, 1): lambda s: math.cos(s), (-1, 0): lambda s: math.exp(-0.8 * s)}
        g_parts = {(0, 2): lambda s: s * math.sin(s), (): lambda s: math.cos(s) ** 2}
        f = _times((1, 1), trig_monomial(1, 0)) + _times((-1, 0), trig_monomial(0, 0, lam=complex(-0.8)))
        g = _times((0, 2), trig_monomial(0, 1, k=1)) + trig_monomial(2, 0)

        # exponent tuples add; () is the unit
        want = {}
        for mf, cf in f_parts.items():
            for mg, cg in g_parts.items():
                mono = tuple(a + b for a, b in zip(mf, mg)) if mg else mf
                want.setdefault(mono, []).append((cf, cg))
        fg = f * g
        assert {mono for mono, _, _ in fg.terms} == set(want) == {(1, 3), (1, 1), (-1, 2), (-1, 0)}

        def coeff(mono, s):
            return sum(cf(s) * cg(s) for cf, cg in want.get(mono, ()))

        for a, b in ((0.3, 2.1), (2.1, -0.5)):
            got = fg.integrals(a, b)
            for mono in want:
                ref, _ = quad(lambda s: coeff(mono, s), a, b, epsabs=1e-13, epsrel=1e-13)
                assert got[mono] == pytest.approx(ref, abs=1e-12)
            # d/d nu_var scales each monomial by its exponent and lowers it by one
            for var in (0, 1):
                got_d = fg.diff(var).integrals(a, b)
                ref_d = {}
                for mono, val in got.items():
                    if mono[var]:
                        low = mono[:var] + (mono[var] - 1,) + mono[var + 1 :]
                        ref_d[low] = mono[var] * val
                assert got_d.keys() == ref_d.keys()
                for mono, val in ref_d.items():
                    assert got_d[mono] == pytest.approx(val, abs=1e-12)
        assert set(fg.diff(0).integrals(0.0, 1.0)) == {(0, 3), (0, 1), (-2, 2), (-2, 0)}

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

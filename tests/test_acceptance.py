"""Acceptance gate: the seven headline criteria, each with its stated
tolerance and runtime budget.

One sub-case is knowingly red: the continuous-case (full-turn) second-order
generator cannot reach the claimed count for even degree, because the radial
polynomial's constant term and odd powers cancel identically under the
first-order kernel constraints (verified independently by quadrature).  See
the README section "Count formulas and honest caveats".  The test asserts
the documented diagnostic instead of silently passing.
"""

import itertools
import math
import time

import numpy as np
import pytest

from avgcycles.avgcore import (
    build_f1,
    build_f2,
    numeric_g,
    oracle_f1,
    oracle_f2,
    project_to_kernel,
)
from avgcycles.flowsim import displacement, distance_slope, eps_sweep, loglog_slope
from avgcycles.generators import (
    InfeasibleTargetError,
    first_order_count,
    gen_cor13,
    gen_prop10,
    gen_prop12,
    gen_prop16,
    gen_prop18,
    gen_prop20,
    gen_prop21,
    gen_th4,
    second_order_lower_bound,
    second_order_upper_bound,
)
from avgcycles.polyalg import Poly
from avgcycles.rootfind import SearchBox, find_simple_zeros
from avgcycles.sysspec import random_spec
from avgcycles.trigkernel import (
    TWO_PI,
    TrigKey,
    lemma_vanish_predicate,
    nested_I,
    nested_J,
    trig_I,
    trig_J,
)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds budget {self.seconds}s"


# -- criterion 1: trigonometric kernel parity predictions --------------------


def test_criterion_1_trig_lemma_suite():
    budget = Budget(10.0)
    for phi in (math.pi, TWO_PI):
        for p in range(9):
            for q in range(9):
                key = TrigKey(p, q, phi)
                for interval, val in (("first", trig_I(key)), ("second", trig_J(key))):
                    want = lemma_vanish_predicate(interval, "plain", (p, q), phi)
                    assert (abs(val) < 1e-12) is want, (interval, p, q, phi, val)
    # nested kernels: the parity predictions are stated at the half-turn angle
    phi = math.pi
    for i, j, p, q in itertools.product(range(9), repeat=4):
        for interval, val in (("first", nested_I(i, j, p, q, phi)),
                              ("second", nested_J(i, j, p, q, phi))):
            want = lemma_vanish_predicate(interval, "nested", (i, j, p, q), phi)
            assert (abs(val) < 1e-12) is want, (interval, i, j, p, q, val)
    budget.check()


# -- criterion 2: closed forms against the quadrature oracle -----------------


def _spec_matrix():
    """20 seeded random specs spanning the desk-scale parameter box."""
    dims = [(1, 0, 0), (1, 0, 1), (2, 0, 0), (2, 1, 1), (2, 1, 2),
            (3, 0, 1), (3, 1, 1), (2, 0, 2), (3, 2, 2), (2, 1, 3),
            (1, 1, 1), (2, 2, 2), (3, 0, 0), (1, 0, 2), (2, 0, 1),
            (3, 1, 2), (1, 1, 2), (2, 2, 3), (3, 2, 3), (1, 0, 3)]
    for seed, (n, m, d) in enumerate(dims):
        phi = (math.pi / 3, math.pi, TWO_PI)[seed % 3]
        yield random_spec(n, m, d, phi, seed, scale=0.4)


def test_criterion_2_oracle_equivalence():
    budget = Budget(120.0)
    rng = np.random.default_rng(2024)
    for spec in _spec_matrix():
        f1 = build_f1(spec)
        points = [np.concatenate([[0.4 + 0.15 * k], rng.uniform(-0.8, 0.8, spec.m)])
                  for k in range(10)]
        for nu in points:
            closed = np.array([p(nu) for p in f1])
            np.testing.assert_allclose(closed, oracle_f1(spec, nu), atol=1e-9, rtol=0)
        ps = project_to_kernel(spec)
        rf2 = build_f2(ps, check_f1=False)
        for nu in points[:2]:
            closed = np.array([p(nu) for p in rf2]) / nu[0]
            np.testing.assert_allclose(closed, oracle_f2(ps, nu), atol=1e-8, rtol=0)
    budget.check()


# -- criterion 3: first-order counts -----------------------------------------


def test_criterion_3_first_order_counts():
    budget = Budget(60.0)
    phi_generic = math.pi / 2
    for n in (1, 2, 3):
        for m in (0, 1):
            for gen, phi in ((gen_prop10, phi_generic), (gen_prop16, math.pi),
                             (gen_prop20, TWO_PI)):
                result = gen(n, m, phi) if gen is gen_prop10 else gen(n, m)
                expected = first_order_count(n, m, phi)
                assert result.expected_count == expected
                assert len(result.zeros) == expected, (gen.__name__, n, m)
                for nu in result.zeros:
                    assert np.max(np.abs(result.system(nu))) < 1e-10
    budget.check()


# -- criterion 4: second-order counts ----------------------------------------


def test_criterion_4_second_order_counts():
    budget = Budget(180.0)
    phi = math.pi / 3
    cases = []
    for n, m in ((1, 0), (2, 0), (1, 1)):
        cases.append((f"prop12({n},{m})", second_order_lower_bound(n, m, phi),
                      second_order_upper_bound(n, m), lambda n=n, m=m: gen_prop12(n, m, phi)))
    for n in (1, 2):
        cases.append((f"cor13({n})", (2 * n) ** 2, second_order_upper_bound(n, 1),
                      lambda n=n: gen_cor13(n, phi)))
    for n in (1, 2):
        cases.append((f"prop18({n},0)", second_order_lower_bound(n, 0, math.pi),
                      second_order_upper_bound(n, 0), lambda n=n: gen_prop18(n, 0)))
    cases.append(("prop21(3)", second_order_lower_bound(3, 0, TWO_PI),
                  second_order_upper_bound(3, 0), lambda: gen_prop21(3)))
    for name, expected, upper, make in cases:
        result = make()
        found = len(result.zeros)
        assert found >= expected, (name, found, expected)
        assert found <= upper, (name, found, upper)
    budget.check()


@pytest.mark.xfail(strict=True, reason=(
    "the claimed full-turn count n for even n is unattainable: the radial "
    "polynomial is even in r and divisible by r^2 under the kernel "
    "constraints, leaving at most n-1 positive simple roots "
    "(README: Count formulas and honest caveats)"))
def test_criterion_4_full_turn_even_degree_claim():
    result = gen_prop21(2)  # raises InfeasibleTargetError
    assert len(result.zeros) >= 2


def test_criterion_4_full_turn_even_degree_diagnostic():
    with pytest.raises(InfeasibleTargetError, match="even powers"):
        gen_prop21(2)
    # the best attainable count, n - 1, is certified
    assert len(gen_prop21(2, target_count=1).zeros) == 1


# -- criterion 5: dynamics verification --------------------------------------


def test_criterion_5_cycle_verification():
    budget = Budget(180.0)
    eps_values = (2.5e-2, 1.25e-2, 6.25e-3, 2.5e-3)  # one decade down to 2.5e-3
    for result in (gen_prop10(2, 0, math.pi / 2), gen_prop12(1, 0, math.pi / 3)):
        assert result.zeros
        for nu in result.zeros:
            records = eps_sweep(result.spec, nu, eps_values)
            final = records[-1]
            assert final.epsilon == 2.5e-3
            assert final.period_residual < 1e-10
            assert all(r.accepted for r in records)
            assert distance_slope(records) == pytest.approx(1.0, abs=0.15)
    budget.check()


# -- criterion 6: displacement expansion -------------------------------------


def test_criterion_6_displacement_expansion():
    # master-only configurations: the return-map displacement over one turn
    # divided by eps converges to the first-order expansion term
    eps_values = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    for seed, (n, m) in enumerate([(1, 0), (2, 1), (1, 2)]):
        spec = random_spec(n, m, m, math.pi / 3, 60 + seed, scale=0.4)
        rng = np.random.default_rng(80 + seed)
        z = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, m)])
        g1 = numeric_g(spec, 1, z)
        errs = [np.max(np.abs(displacement(spec, eps, z) / eps - g1)) for eps in eps_values]
        assert loglog_slope(eps_values, errs) == pytest.approx(1.0, abs=0.15), (n, m)


# -- criterion 7: reduced-system realization ---------------------------------


def test_criterion_7_reduced_system_pipeline():
    phi = math.pi / 3
    # two known isolated solutions (5/4, +/-1/2) of r*P + Q = 0
    P = [Poly(2, {(1, 0): 1.0, (0, 0): -1.25}), Poly(2)]
    Q = [Poly(2), Poly(2, {(1, 2): 1.0, (1, 0): -0.25})]
    targets = np.array([[1.25, -0.5], [1.25, 0.5]])
    box = SearchBox([0.05, -1.25], [2.1, 1.25])
    dists = []
    for delta in (1e-2, 1e-3, 1e-4):
        result = gen_th4(P, Q, phi, delta=delta)
        recs = [r for r in find_simple_zeros(result.notes["normalized"], box) if r.simple]
        assert len(recs) == 2, delta
        dists.append(max(min(np.linalg.norm(r.nu - t) for r in recs) for t in targets))
    # linear-in-delta displacement bound: dist <= C * delta with a common C
    assert all(d <= 10.0 * delta for d, delta in zip(dists, (1e-2, 1e-3, 1e-4)))

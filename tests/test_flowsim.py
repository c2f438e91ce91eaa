"""Direct integration of the discontinuous system and cycle refinement."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from avgcycles import flowsim
from avgcycles.avgcore import _node_fields, build_gamma, compile_fields, numeric_g
from avgcycles.flowsim import (
    DEFAULT_EPS_SWEEP,
    FD_STEP,
    PERIOD_RESIDUAL_TOL,
    CycleError,
    DenominatorVanishedError,
    IntegrationFailure,
    NoConvergenceError,
    RCrossedZeroError,
    _breakpoints,
    _integrate,
    _zone_sign,
    displacement,
    distance_slope,
    eps_sweep,
    integrate_theta,
    loglog_slope,
    refine_cycle,
    return_map,
    write_cycle_csv,
)
from avgcycles.generators import gen_prop10, gen_prop12, gen_prop16
from avgcycles.sysspec import SIGNS, multi_indices, random_spec, zero_spec
from avgcycles.trigkernel import TWO_PI


def _shrinking_spec(c):
    # X_a = -c x, X_b = -c y: r' = -eps*c*r at unit angular speed, so the
    # flow decays as r = e^(-eps*c*theta) and never reaches r = 0
    spec = zero_spec(1, 0, 0, 1.0)
    for sign in ("+", "-"):
        spec.table("a", sign).set((1, 0), -c)
        spec.table("b", sign).set((0, 1), -c)
    return spec


def _slow_spec():
    # X_a = 5y, X_b = -5x gives angular speed 1 - 5*eps everywhere
    spec = zero_spec(1, 0, 0, 1.0)
    for sign in ("+", "-"):
        spec.table("a", sign).set((0, 1), 5.0)
        spec.table("b", sign).set((1, 0), -5.0)
    return spec


class TestIntegration:
    def test_unperturbed_master_is_identity(self):
        spec = zero_spec(1, 1, 1, 1.0)
        z0 = np.array([1.1, 0.4])
        np.testing.assert_allclose(return_map(spec, 0.0, z0), z0, atol=1e-10)

    def test_unperturbed_slave_contracts(self):
        spec = zero_spec(1, 0, 1, 1.0, mu=[-0.5])
        z0 = np.array([1.0, 0.8])
        out = return_map(spec, 0.0, z0)
        assert out[1] == pytest.approx(0.8 * math.exp(-0.5 * TWO_PI), rel=1e-9)

    def test_zone_splitting_continuity(self):
        spec = random_spec(1, 0, 0, math.pi / 3, 1, scale=0.3)
        mid = integrate_theta(spec, 1e-2, [1.0], (0.0, 1.9))
        full = integrate_theta(spec, 1e-2, mid.x, (1.9, TWO_PI))
        np.testing.assert_allclose(full.x, return_map(spec, 1e-2, [1.0]), atol=1e-10)

    def test_r_zero_crossing_raises(self):
        with pytest.raises(RCrossedZeroError):
            integrate_theta(zero_spec(1, 0, 0, 1.0), 0.0, [-1.0], (0.0, 1.0))

    def test_large_eps_denominator_guard(self):
        with pytest.raises(DenominatorVanishedError):
            return_map(_slow_spec(), 0.5, [1.0])


def _dop853_reference(spec, eps, z, span):
    """One flow by scipy's DOP853 at rtol = atol = 1e-13, split at the zone boundaries."""
    dmu = np.array((0.0,) + spec.mu)
    x = np.array(z, dtype=float)
    knots = [span[0]] + _breakpoints(spec, *span) + [span[1]]
    for a, b in zip(knots[:-1], knots[1:]):
        C1, C2 = (compile_fields(spec, order, _zone_sign(spec, 0.5 * (a + b))) for order in (1, 2))

        def rhs(s, y):
            s, y = np.array([s]), y[None]
            A, B = _node_fields(C1, s, y)[0], _node_fields(C2, s, y)[0]
            return (dmu * y[0] + eps * A[1:] + eps**2 * B[1:]) / (1.0 + eps * A[0] + eps**2 * B[0])

        sol = solve_ivp(rhs, (a, b), x, method="DOP853", rtol=1e-13, atol=1e-13)
        assert sol.success, sol.message
        x = sol.y[:, -1]
    return x


BATCH_SPECS = [
    random_spec(2, 1, 1, math.pi / 3, 5, scale=0.4),
    random_spec(1, 0, 2, 1.2, 6, scale=0.4),  # d > m: a contracting tail
]
BATCH_SPANS = [(0.0, TWO_PI), (0.4, 5.0), (5.0, -0.3)]  # forward, offset and backward


def _mixed_batch(spec):
    rng = np.random.default_rng(7)
    E = np.array([1e-2, 0.0, 2.5e-3, 1e-2, 3e-2])
    return E, np.column_stack([rng.uniform(0.6, 1.4, len(E)), rng.uniform(-0.5, 0.5, (len(E), spec.d))])


class TestBatchedIntegration:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["master", "tail"])
    @pytest.mark.parametrize("span", BATCH_SPANS)
    def test_mixed_batch_matches_rows_alone(self, spec, span):
        E, Z = _mixed_batch(spec)
        batch = _integrate(spec, E, Z, span)
        alone = np.array([integrate_theta(spec, e, z, span).x for e, z in zip(E, Z)])
        np.testing.assert_allclose(batch, alone, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("spec,eps,error", [
        (_slow_spec(), 0.5, DenominatorVanishedError),
    ], ids=["angular-speed-lost"])
    def test_one_failing_row_fails_the_batch_as_alone(self, spec, eps, error):
        with pytest.raises(error):
            return_map(spec, eps, [1.0])
        E, Z = [1e-3, eps, 2e-3], [[1.0], [1.0], [0.8]]
        with pytest.raises(error):
            _integrate(spec, E, Z, (0.0, TWO_PI))
        # the same rows without the failing one integrate
        assert _integrate(spec, [1e-3, 2e-3], [[1.0], [0.8]], (0.0, TWO_PI)).shape == (2, 1)

    def test_initial_r_checked_per_row(self):
        with pytest.raises(RCrossedZeroError):
            _integrate(zero_spec(1, 0, 0, 1.0), [0.0, 0.0], [[1.0], [-1.0]], (0.0, 1.0))


class TestChebyshevPicard:
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=["master", "tail"])
    @pytest.mark.parametrize("span", BATCH_SPANS)
    def test_matches_dop853_reference(self, spec, span):
        E, Z = _mixed_batch(spec)
        batch = _integrate(spec, E, Z, span)
        ref = np.array([_dop853_reference(spec, e, z, span) for e, z in zip(E, Z)])
        np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-10)

    def test_halving_resolves_a_fast_decay(self, monkeypatch):
        # r' = -2r: on a whole zone the first Picard iterate, 1 - 2*(theta - a),
        # leaves r > 0; the halved segments converge
        spec = _shrinking_spec(2.0)
        assert return_map(spec, 1.0, [1.0])[0] == pytest.approx(math.exp(-4.0 * math.pi), rel=1e-8)
        monkeypatch.setattr(flowsim, "MAX_HALVINGS", 0)
        with pytest.raises(RCrossedZeroError):
            return_map(spec, 1.0, [1.0])

    def test_halving_resolves_a_fast_growth(self, monkeypatch):
        # r' = 2r: on the whole zone [1, 2*pi] the Picard iteration does not
        # contract; the halved segments converge
        spec = _shrinking_spec(-2.0)
        assert return_map(spec, 1.0, [1.0])[0] == pytest.approx(math.exp(4.0 * math.pi), rel=1e-8)
        monkeypatch.setattr(flowsim, "MAX_HALVINGS", 0)
        with pytest.raises(IntegrationFailure, match=r"segment \[1\.000000, 6\.283185\]: .* does not contract"):
            integrate_theta(spec, 1.0, [1.0], (1.0, TWO_PI))

    def test_nonconvergence_at_the_node_cap_raises(self, monkeypatch):
        # degree-8 fields over the 11*pi/6-long minus zone need more than 16
        # Chebyshev intervals; with the cap at the starting N the rule gives
        # up after its first N/2N comparison
        spec = random_spec(8, 0, 1, math.pi / 6, 11, scale=0.5)
        return_map(spec, 1e-2, [0.8, 0.1])
        monkeypatch.setattr(flowsim, "NODE_CAP", flowsim.NODE_START)
        with pytest.raises(CycleError, match=r"segment \[0\.523599, 6\.283185\]: .* N = 16 and 32 still differs by"):
            return_map(spec, 1e-2, [0.8, 0.1])


class TestDisplacementExpansion:
    def test_first_order_term_matches_quadrature(self):
        # master-only configuration: every state component is averaged
        spec = random_spec(2, 1, 1, math.pi / 3, 5, scale=0.4)
        z = np.array([1.1, 0.3])
        g1 = numeric_g(spec, 1, z)
        eps_list = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        errs = [np.max(np.abs(displacement(spec, eps, z) / eps - g1)) for eps in eps_list]
        assert loglog_slope(eps_list, errs) == pytest.approx(1.0, abs=0.15)

    def test_master_components_with_slave_zero(self):
        # with a contracting tail, the first-order term is reproduced in the
        # master components when the tail starts at zero
        spec = random_spec(1, 0, 1, 1.2, 6, scale=0.4)
        z = np.array([0.9, 0.0])
        g1 = numeric_g(spec, 1, z)
        eps_list = [1e-2, 5e-3, 2.5e-3]
        errs = [abs(displacement(spec, eps, z)[0] / eps - g1[0]) for eps in eps_list]
        assert loglog_slope(eps_list, errs) == pytest.approx(1.0, abs=0.15)


class TestRefineCycle:
    def test_predicted_zero_refines(self):
        result = gen_prop10(1, 0, math.pi / 2)
        rec = refine_cycle(result.spec, 2.5e-3, result.zeros[0])
        assert rec.accepted
        assert rec.period_residual < 1e-10
        assert rec.distance < 0.05

    def test_eps_sweep_converges_linearly(self):
        result = gen_prop10(1, 0, math.pi / 2)
        records = eps_sweep(result.spec, result.zeros[0], (1e-2, 5e-3, 2.5e-3, 1.25e-3))
        assert all(r.accepted for r in records)
        assert distance_slope(records) == pytest.approx(1.0, abs=0.15)

    def test_slope_skips_zero_distances(self):
        # at the smallest eps the prediction of these zeros already meets the
        # residual tolerance, so Newton takes no step and the distance is 0
        result = gen_prop16(2, 1)
        for nu in result.zeros[2:4]:
            records = eps_sweep(result.spec, nu, DEFAULT_EPS_SWEEP)
            assert records[-1].distance == 0.0
            kept = [r for r in records if r.distance > 0]
            assert len(kept) == len(records) - 1
            slope = distance_slope(records)
            assert math.isfinite(slope)
            assert slope == loglog_slope([r.epsilon for r in kept], [r.distance for r in kept])
        assert math.isnan(distance_slope(records[-2:]))  # one nonzero distance left

    @pytest.mark.parametrize("eps", [1e-2, 2.5e-3])
    def test_residual_is_the_fixed_points_displacement(self, eps):
        # the recorded residual is the last Newton iterate's own displacement,
        # and the integration is deterministic, so they agree bit for bit
        result = gen_prop10(2, 1, math.pi / 3)
        rec = refine_cycle(result.spec, eps, result.zeros[0])
        assert rec.period_residual == float(np.max(np.abs(displacement(result.spec, eps, rec.fixed_point))))


def _stand_in(monkeypatch, events=None):
    """Replace the return map by one whose displacement (x^2 - eps^2, y - x) has its fixed point at (eps, eps).

    Each batch it integrates is appended to ``events`` as ("turn", E, Z, displacement).
    """
    def integrator(spec, span):
        def full_turn(E, Z):
            out = Z + np.column_stack([Z[:, 0] ** 2 - E**2, Z[:, 1] - Z[:, 0]])
            if events is not None:
                events.append(("turn", E.copy(), Z.copy(), out - Z))
            return out
        return full_turn

    monkeypatch.setattr(flowsim, "_integrator", integrator)


def _lifted(spec, mu_tail, seed=0):
    """A d = m spec lifted to d = m + 1 with a tail of exponent mu_tail.

    Every entry gets tail exponent 0, and both zones gain random order-1
    tail entries (every c entry of the new component, and the w-linear a
    and b entries) at scale 0.3.  The unperturbed periodic orbits have
    w = 0, so f1 is unchanged.
    """
    rng = np.random.default_rng(seed)
    out = zero_spec(spec.n, spec.m, spec.d + 1, spec.phi, spec.mu + (mu_tail,))
    for key, tabs in spec.tables.items():
        new = out.tables[key]
        for old, lifted in zip(*((t if isinstance(t, list) else [t]) for t in (tabs, new))):
            for idx, c in old.entries.items():
                lifted.set(idx + (0,), c)
    w = (0,) * (spec.d + 2) + (1,)
    for sign in SIGNS:
        for fam in ("a", "b"):
            out.table(fam, sign).set(w, 0.3 * rng.uniform(-1.0, 1.0))
        for idx in multi_indices(spec.n, spec.d + 3):
            out.table("c", sign, spec.d).set(idx, 0.3 * rng.uniform(-1.0, 1.0))
    return out


class TestLockstepSweep:
    @pytest.mark.parametrize("make", [
        lambda: gen_prop10(2, 1, math.pi / 3),
        lambda: gen_prop12(1, 1, math.pi / 3),
    ], ids=["prop10", "prop12"])
    def test_fixed_points_hold_alone(self, make):
        # the sweep refines its eps values as one batch; each fixed point,
        # re-integrated as a single trajectory, is still a fixed point
        result = make()
        for nu in result.zeros:
            for rec in eps_sweep(result.spec, nu, DEFAULT_EPS_SWEEP):
                assert rec.accepted
                alone = np.max(np.abs(displacement(result.spec, rec.epsilon, rec.fixed_point)))
                assert alone < PERIOD_RESIDUAL_TOL, (nu, rec.epsilon, alone)

    def test_fixed_points_hold_under_the_reference(self):
        # each refined fixed point, re-integrated by DOP853, is still a fixed point
        result = gen_prop10(2, 1, math.pi / 3)
        for nu in result.zeros:
            for rec in eps_sweep(result.spec, nu, DEFAULT_EPS_SWEEP):
                ref = _dop853_reference(result.spec, rec.epsilon, rec.fixed_point, (0.0, TWO_PI))
                assert np.max(np.abs(ref - rec.fixed_point)) < PERIOD_RESIDUAL_TOL, (nu, rec.epsilon)

    @pytest.mark.parametrize("mu_tail", [-0.5, 0.7])
    def test_tail_sweep_holds_under_the_reference(self, mu_tail):
        # d > m: the tail's factor e^(mu*theta) is not 1, so a layout slip
        # between the master and tail components would show here
        result = gen_prop10(1, 0, math.pi / 3)
        spec = _lifted(result.spec, mu_tail)
        for nu in result.zeros:
            for rec in eps_sweep(spec, nu, DEFAULT_EPS_SWEEP):
                assert rec.accepted, (nu, rec.epsilon, rec.period_residual)
                ref = _dop853_reference(spec, rec.epsilon, rec.fixed_point, (0.0, TWO_PI))
                assert np.max(np.abs(ref - rec.fixed_point)) < PERIOD_RESIDUAL_TOL, (nu, rec.epsilon)

    @pytest.mark.parametrize("mu_tail", [-0.5, 0.7])
    def test_tail_over_eps_tends_to_the_slave_component(self, mu_tail):
        # the cycle's tail component is eps * gamma_w(nu*) + O(eps^2), gamma_w
        # from build_gamma: |tail/eps - gamma_w| falls like eps
        result = gen_prop10(1, 0, math.pi / 3)
        spec = _lifted(result.spec, mu_tail)
        (gamma,) = build_gamma(spec)
        for nu in result.zeros:
            records = eps_sweep(spec, nu, DEFAULT_EPS_SWEEP)
            gaps = [abs(rec.fixed_point[-1] / rec.epsilon - gamma(nu)) for rec in records]
            assert abs(loglog_slope(DEFAULT_EPS_SWEEP, gaps) - 1.0) < 0.15, (nu, gaps)

    def test_refine_cycle_is_the_one_eps_sweep(self):
        result = gen_prop10(2, 1, math.pi / 3)
        rec = refine_cycle(result.spec, 5e-3, result.zeros[1])
        (swept,) = eps_sweep(result.spec, result.zeros[1], (5e-3,))
        assert rec.epsilon == swept.epsilon
        assert np.array_equal(rec.fixed_point, swept.fixed_point)
        assert np.array_equal(rec.predicted, swept.predicted)
        assert (rec.period_residual, rec.distance) == (swept.period_residual, swept.distance)

    @pytest.mark.parametrize("eps", [0.0, -1e-2, math.nan, math.inf])
    def test_sweep_rejects_eps_that_is_not_positive(self, eps):
        # at eps = 0 the return map is the identity: every point would verify
        result = gen_prop10(1, 0, math.pi / 2)
        with pytest.raises(ValueError, match="eps values must be finite and > 0"):
            eps_sweep(result.spec, result.zeros[0], (1e-2, eps))

    def test_failing_eps_fails_the_sweep(self):
        result = gen_prop10(1, 0, math.pi / 2)
        with pytest.raises(DenominatorVanishedError):
            eps_sweep(result.spec, result.zeros[0], (3.0, 1e-2))

    def test_converging_on_the_last_allowed_iteration_is_accepted(self, monkeypatch):
        # one Jacobian takes this prediction below PERIOD_RESIDUAL_TOL (3.6e-12)
        monkeypatch.setattr(flowsim, "NEWTON_MAX_ITERS", 1)
        result = gen_prop10(1, 0, math.pi / 2)
        (rec,) = eps_sweep(result.spec, result.zeros[0], (1e-2,))
        assert rec.accepted and rec.distance > 0

    def test_unconverged_eps_is_named(self, monkeypatch):
        monkeypatch.setattr(flowsim, "NEWTON_MAX_ITERS", 0)
        result = gen_prop10(1, 0, math.pi / 2)
        with pytest.raises(NoConvergenceError, match=r"eps=0.01: .* after 0 of at most 0 Jacobians") as info:
            eps_sweep(result.spec, result.zeros[0], (1e-2,))
        assert info.value.residual == np.max(np.abs(displacement(result.spec, 1e-2, result.zeros[0])))

    def test_each_eps_is_its_own_row(self, monkeypatch):
        # each row must be evaluated at its own eps, also when the line search
        # tries only some of the rows (from 0.6, the steps of eps = 1.5, 2 and
        # 3 overshoot and are halved)
        _stand_in(monkeypatch)
        eps = (0.5, 1.0, 1.5, 2.0, 3.0)
        records = eps_sweep(zero_spec(1, 1, 1, 1.0), [0.6, 0.1], eps)
        assert all(rec.accepted for rec in records)
        np.testing.assert_allclose([rec.fixed_point for rec in records], np.column_stack([eps, eps]),
                                   rtol=0, atol=1e-9)

    def test_each_round_uses_the_jacobian_at_its_accepted_point(self, monkeypatch):
        # replay the stand-in's batches: every integrated point carries its n
        # shifted points, and each round solves with the Jacobian taken at the
        # row's current accepted point, also where a halved trial was accepted
        events = []
        _stand_in(monkeypatch, events)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda J, G: events.append(("solve", J, G)) or solve(J, G))
        eps, n = (0.5, 1.0, 1.5, 2.0, 3.0), 2
        eps_sweep(zero_spec(1, 1, 1, 1.0), [0.6, 0.1], eps)
        current, rejected, rounds = {}, 0, 0
        for kind, *event in events:
            if kind == "turn":
                E, Z, D = event
                assert len(E) % (n + 1) == 0
                for k in range(0, len(E), n + 1):
                    z, g, H = Z[k], D[k], FD_STEP * np.maximum(1.0, np.abs(Z[k]))
                    assert np.all(E[k: k + n + 1] == E[k])
                    assert np.array_equal(Z[k + 1: k + n + 1], z + np.diag(H))
                    J, res = ((D[k + 1: k + n + 1] - g) / H[:, None]).T, np.max(np.abs(g))
                    if E[k] not in current or res < current[E[k]][2]:
                        current[E[k]] = (g, J, res)
                    else:
                        rejected += 1
            else:
                J, G = event
                live = [e for e in eps if current[e][2] >= PERIOD_RESIDUAL_TOL]
                assert np.array_equal(J, [current[e][1] for e in live])
                assert np.array_equal(G[:, :, 0], [current[e][0] for e in live])
                rounds += 1
        assert rejected > 0 and rounds > 1

    def test_one_integration_per_round(self, monkeypatch):
        # the prediction's integration gives round 1's Jacobian and the
        # accepted trial round 2's: two rounds, three integrations
        batches = []
        integrator = flowsim._integrator

        def counted(spec, span):
            full_turn = integrator(spec, span)
            return lambda E, Z: batches.append(len(E)) or full_turn(E, Z)

        monkeypatch.setattr(flowsim, "_integrator", counted)
        result = gen_prop10(2, 1, math.pi / 3)
        records = eps_sweep(result.spec, result.zeros[0], DEFAULT_EPS_SWEEP)
        assert all(rec.accepted for rec in records)
        assert len(batches) == 3
        assert all(b % (result.spec.d + 2) == 0 for b in batches)  # each point and its d+1 shifted points

    @pytest.mark.parametrize("start,eps,cap,why", [
        ([0.0, 0.1], 0.5, 50, "the line search on Jacobian 1 found no lower residual in 20 halvings"),
        ([-0.5 * FD_STEP, 0.1], 0.5 * FD_STEP, 50, "Jacobian 1 is singular"),
        ([0.6, 0.1], 0.5, 1, "after 1 of at most 1 Jacobians"),
    ], ids=["line-search", "singular", "cap"])
    def test_nonconvergence_names_its_cause(self, monkeypatch, start, eps, cap, why):
        # from x = 0 the Jacobian's slope in x is FD_STEP, so the step is huge
        # and no halving comes back below the residual; at x = -eps =
        # -FD_STEP/2 the first component is exactly 0 at the point and at its
        # x-shift, so the Jacobian's first row is 0; from 0.6 one Jacobian
        # does not reach the tolerance
        _stand_in(monkeypatch)
        monkeypatch.setattr(flowsim, "NEWTON_MAX_ITERS", cap)
        with pytest.raises(NoConvergenceError, match=rf"eps={eps}: residual [^;]+; {why}$"):
            eps_sweep(zero_spec(1, 1, 1, 1.0), start, (eps,))

    def test_empty_sweep(self):
        result = gen_prop10(1, 0, math.pi / 2)
        assert eps_sweep(result.spec, result.zeros[0], ()) == []

    @pytest.mark.parametrize("nu, shape", [
        ([1.0, 0.1, 0.2], r"\(3,\)"),
        ([[1.0, 0.1]], r"\(1, 2\)"),
        (1.0, r"\(\)"),
        ([], r"\(0,\)"),
    ], ids=["too-long", "2-d", "scalar", "empty"])
    def test_malformed_prediction_is_named(self, nu, shape):
        # a prediction is 1-D with 1 to d+1 entries; anything else is an input
        # error naming its shape, not a broadcast, type or cycle error
        result = gen_prop10(1, 1, math.pi / 3)
        with pytest.raises(ValueError, match=rf"^prediction has shape {shape}, expected \(k,\) with 1 <= k <= 2$"):
            eps_sweep(result.spec, nu)

    @pytest.mark.parametrize("nu, text", [([math.nan, 0.1], r"\[nan, 0\.1\]"), ([1.0, math.inf], r"\[1\.0, inf\]")],
                             ids=["nan", "inf"])
    def test_non_finite_prediction_is_named(self, nu, text):
        # a NaN entry would exhaust the line search and an infinite one
        # overflow the integrator; both are input errors naming the prediction
        result = gen_prop10(1, 1, math.pi / 3)
        with pytest.raises(ValueError, match=rf"^prediction {text} is not finite$"):
            eps_sweep(result.spec, nu)

    def test_short_prediction_pads_the_tail(self):
        result = gen_prop10(1, 1, math.pi / 3)
        nu = result.zeros[0]
        (short,) = eps_sweep(result.spec, nu[:1], (1e-2,))
        assert np.array_equal(short.predicted, [nu[0], 0.0])
        assert short.accepted


def test_cycle_csv(tmp_path):
    result = gen_prop10(1, 0, math.pi / 2)
    records = eps_sweep(result.spec, result.zeros[0], (1e-2, 5e-3))
    path = tmp_path / "cycles.csv"
    write_cycle_csv(path, records, result.spec.d)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epsilon,r")
    assert len(lines) == 3

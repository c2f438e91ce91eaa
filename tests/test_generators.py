"""Constructive generators: count formulas, certification, infeasibility."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from avgcycles import generators
from avgcycles.avgcore import _field_series, _g_contribution, _ZoneFields, build_f1, build_f2
from avgcycles.generators import (
    STALL_WINDOW,
    TUNING_STARTS,
    ConstructionError,
    InfeasibleTargetError,
    _angular_part,
    _f1_matrix,
    _full_slots,
    _gauss_newton,
    _kernel_split,
    _monomial_basis,
    _poly_vec_to_coeffs,
    _QuadModel,
    _slot_form,
    _spec_from_slots,
    _tune_quadratic,
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
from avgcycles.polyalg import Poly, PolyVec
from avgcycles.rootfind import SearchBox, find_simple_zeros
from avgcycles.sysspec import FIRST_ORDER, SECOND_ORDER, zero_spec
from avgcycles.trigkernel import TWO_PI

PHI = math.pi / 3


class TestCountFormulas:
    def test_generic_first_order(self):
        assert first_order_count(2, 1, PHI) == 4
        assert first_order_count(3, 0, math.pi) == 3

    def test_full_turn_first_order(self):
        assert first_order_count(3, 0, TWO_PI) == 1
        assert first_order_count(2, 0, TWO_PI) == 0
        assert first_order_count(3, 1, TWO_PI) == 3

    def test_second_order_regimes(self):
        assert second_order_lower_bound(2, 0, PHI) == 4
        assert second_order_lower_bound(1, 0, math.pi) == 1
        assert second_order_lower_bound(2, 0, math.pi) == 2
        assert second_order_lower_bound(3, 0, TWO_PI) == 2
        assert second_order_upper_bound(2, 1) == 16

    def test_full_turn_second_order_needs_m0(self):
        with pytest.raises(ValueError):
            second_order_lower_bound(2, 1, TWO_PI)


class TestFirstOrderGenerators:
    @pytest.mark.parametrize("gen,n,m,phi", [
        (gen_prop10, 2, 1, PHI),
        (gen_prop16, 2, 0, math.pi),
        (gen_prop20, 3, 0, TWO_PI),
        (gen_prop20, 2, 1, TWO_PI),
    ])
    def test_certified_counts(self, gen, n, m, phi):
        result = gen(n, m) if gen is not gen_prop10 else gen(n, m, phi)
        assert result.order == 1
        assert result.expected_count == first_order_count(n, m, phi)
        assert len(result.zeros) == result.expected_count
        for nu in result.zeros:
            assert np.max(np.abs(result.system(nu))) < 1e-10

    def test_zero_count_case_returns_empty(self):
        result = gen_prop20(2, 0)  # expected count 0
        assert result.expected_count == 0
        assert result.zeros == []


class TestSecondOrderGenerators:
    def test_prop12_zero_first_order(self):
        result = gen_prop12(1, 0, PHI)
        f1 = build_f1(result.spec)
        assert max(p.max_coeff() for p in f1) < 1e-9
        assert len(result.zeros) == 2

    def test_prop12_system_is_real_pipeline(self):
        result = gen_prop12(1, 1, PHI)
        rf2 = build_f2(result.spec, check_f1=False)
        for p, q in zip(rf2, result.system):
            monos = set(p.terms) | set(q.terms)
            assert all(abs(p.terms.get(mo, 0) - q.terms.get(mo, 0)) < 1e-9 for mo in monos)

    def test_prop18_counts(self):
        assert len(gen_prop18(1, 0).zeros) == 1   # odd degree
        assert len(gen_prop18(2, 0).zeros) == 2   # even degree

    def test_prop21_odd_feasible(self):
        result = gen_prop21(3)
        assert len(result.zeros) == 2

    def test_prop21_even_infeasible_with_diagnostic(self):
        with pytest.raises(InfeasibleTargetError, match="even powers"):
            gen_prop21(2)

    def test_prop21_even_best_attainable(self):
        result = gen_prop21(2, target_count=1)
        assert len(result.zeros) == 1

    def test_cor13_small(self):
        result = gen_cor13(1, PHI)
        assert len(result.zeros) == 4
        assert result.expected_count == 4


class TestSecondOrderTuning:
    @pytest.mark.parametrize("n, m, phi", [(1, 0, PHI), (2, 0, PHI), (1, 1, PHI), (2, 1, PHI),
                                            (1, 1, math.pi), (2, 0, TWO_PI)],
                             ids=["1-0", "2-0", "1-1", "2-1", "1-1-pi", "2-0-2pi"])
    def test_tensor_surrogate_matches_pairwise_probes(self, n, m, phi):
        # reference: polarization over dense kernel directions N e_i, N (e_i + e_j)
        model = _QuadModel(n, m, phi)
        twin = dict(zip(FIRST_ORDER, SECOND_ORDER))
        assert [(twin[fam], *rest) for fam, *rest in model.uslots] == model.vslots
        zero_v = np.zeros(len(model.vslots))
        np.testing.assert_array_equal(model.S, model.S.transpose(0, 2, 1))

        seen = set()  # every monomial the reference probes produce

        def probe(u, v=zero_v):  # coeffs(r*f_2) of the assembled spec, by the real pipeline
            rf2 = build_f2(model.assemble(u, v), check_f1=False)
            seen.update(_monomial_basis([rf2]))
            return _poly_vec_to_coeffs(rf2, model.monos)

        eye = np.eye(model.udim)
        diag = [probe(e) for e in eye]
        u = np.random.default_rng(3).normal(size=model.udim)
        want = sum(u[i] ** 2 * diag[i] for i in range(model.udim))
        for i in range(model.udim):
            for j in range(i + 1, model.udim):
                want = want + u[i] * u[j] * (probe(eye[i] + eye[j]) - diag[i] - diag[j])
        np.testing.assert_allclose(model.quad(u), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.quad(u), probe(u), rtol=0, atol=1e-12)

        h = 1e-3  # central differences are exact on a quadratic, up to round-off
        t = np.random.default_rng(4).normal(size=len(model.monos))
        fd = np.stack([(model.residual(u + h * e, t)[0] - model.residual(u - h * e, t)[0]) / (2 * h)
                       for e in eye], axis=1)
        np.testing.assert_allclose(model.residual(u, t)[1], fd, rtol=0, atol=1e-10)

        # L from f_1's matrix against build_f2 on each unit v-slot
        zero_u = np.zeros(model.udim)
        lcols = np.stack([probe(zero_u, e) for e in np.eye(len(model.vslots))], axis=1)
        np.testing.assert_allclose(model.L, lcols, rtol=0, atol=1e-14)
        assert seen <= set(model.monos)
        # Lbasis is an orthonormal basis of L's range
        B = model.Lbasis
        assert B.shape[1] == np.linalg.matrix_rank(model.L)
        np.testing.assert_allclose(B.T @ B, np.eye(B.shape[1]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(B @ (B.T @ model.L), model.L, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_surrogate_matches_pairwise_series_reference(self, n, m, series_bilinear):
        # reference: S_slot from the symmetrized bilinear form of each
        # same-zone slot pair as one series product, integrated termwise
        model = _QuadModel(n, m, PHI)
        base = zero_spec(n, m, m, PHI)
        fields = [_ZoneFields(_spec_from_slots(n, m, PHI, [slot], [1.0]), slot[1]) for slot in model.uslots]

        blocks = {}
        for a, b in itertools.combinations_with_replacement(range(len(model.uslots)), 2):
            sign = model.uslots[a][1]
            if sign == model.uslots[b][1]:
                blocks[a, b] = PolyVec([
                    _g_contribution(base, sign, (series_bilinear(fields[a], fields[b], ell)
                                                 + series_bilinear(fields[b], fields[a], ell)).scaled(0.5),
                                    rshift=1).scaled(2.0)
                    for ell in range(m + 1)])
        # L's columns from each v-slot's own order-2 field series
        lcols = [PolyVec([
            _g_contribution(base, slot[1], _field_series(_spec_from_slots(n, m, PHI, [slot], [1.0]), 2, slot[1],
                                                         ell + 2), rshift=1).scaled(2.0) for ell in range(m + 1)])
            for slot in model.vslots]
        assert model.monos == _monomial_basis(list(blocks.values()) + lcols)

        S_slot = np.zeros((len(model.monos), len(model.uslots), len(model.uslots)))
        for (a, b), pv in blocks.items():
            S_slot[:, a, b] = S_slot[:, b, a] = _poly_vec_to_coeffs(pv, model.monos)
        S = model.N.T @ (S_slot @ model.N)
        S = 0.5 * (S + S.transpose(0, 2, 1))
        assert np.max(np.abs(model.S - S)) <= 1e-15 * np.max(np.abs(model.S))

    @pytest.mark.parametrize("n, m", [(1, 0), (1, 1)])
    def test_zones_do_not_interact(self, n, m):
        # at d = m, r*f_2 has no cross term between a "+" slot and a "-" slot,
        # which is why _QuadModel probes only same-zone slot pairs
        uslots = _full_slots(n, m, FIRST_ORDER)

        def rf2(slots):
            return build_f2(_spec_from_slots(n, m, PHI, slots, [1.0] * len(slots)), check_f1=False)

        alone = {slot: rf2([slot]) for slot in uslots}
        nonzero = [slot for slot, pv in alone.items() if any(p.terms for p in pv)]
        assert {s[1] for s in nonzero} == {"+", "-"}  # both zones contribute on their own
        for sp in (s for s in uslots if s[1] == "+"):
            for sm in (s for s in uslots if s[1] == "-"):
                both = rf2([sp, sm])
                monos = _monomial_basis([both, alone[sp], alone[sm]])
                np.testing.assert_allclose(
                    _poly_vec_to_coeffs(both, monos),
                    _poly_vec_to_coeffs(alone[sp], monos) + _poly_vec_to_coeffs(alone[sm], monos),
                    rtol=0, atol=1e-14)

    def test_starts_stop_on_target(self):
        starts = gen_prop12(1, 0, PHI).notes["starts"]
        assert starts and all(rec["reason"] == "target" for rec in starts)
        assert all(set(rec) == {"reason", "nfev", "misfit"} for rec in starts)
        assert starts[-1]["nfev"] < 200  # the winning start

    def test_unreachable_target_stalls_early(self):
        # generic coefficients on every monomial lie outside Q(u) + L v: the
        # (1, 2) model's image is short (17 of its 22 target directions)
        n, m = 1, 2
        model = _QuadModel(n, m, PHI)
        rng = np.random.default_rng(0)
        terms = [{} for _ in range(m + 1)]
        for ci, mo in model.monos:
            terms[ci][mo] = rng.normal()
        starts = []
        # the message counts L's rank as the linear unknowns, not its 40 v-slots
        with pytest.raises(ConstructionError, match=r"second-order tuning stalled.*28 quadratic \+ 12 linear"):
            _tune_quadratic(model, PolyVec([Poly(m + 1, t) for t in terms]), starts)
        assert len(starts) == TUNING_STARTS  # one record per start
        assert all(rec["reason"] == "stall" for rec in starts)
        assert max(rec["nfev"] for rec in starts) < 2 * STALL_WINDOW  # max_nfev is 4000

    def test_undercounting_start_moves_on(self, monkeypatch):
        # the first converged start certifies too few zeros: the tuning goes
        # on to its next start instead of giving up
        real = generators.find_simple_zeros
        calls = []

        def first_undercounts(system, box):
            calls.append(box)
            return [] if len(calls) == 1 else real(system, box)

        monkeypatch.setattr(generators, "find_simple_zeros", first_undercounts)
        result = gen_prop12(1, 0, PHI)
        starts = result.notes["starts"]
        assert [rec["reason"] for rec in starts] == ["undercount", "target"]
        assert len(calls) == 2 and len(result.zeros) == 2

    def test_every_start_undercounting_fails(self, monkeypatch):
        monkeypatch.setattr(generators, "find_simple_zeros", lambda system, box: [])
        with pytest.raises(ConstructionError, match="certified only 0 of 2 zeros"):
            gen_prop12(1, 0, PHI)

    @pytest.mark.parametrize("make", [
        lambda: gen_prop18(3, 1, seed=0),
        lambda: gen_cor13(2, PHI, seed=12),
        lambda: gen_cor13(2, PHI, seed=22),
    ], ids=["prop18-3-1-seed0", "cor13-2-seed12", "cor13-2-seed22"])
    def test_full_first_order_slots_certify(self, make):
        # these m = 1 targets lie outside the surrogate's image unless every
        # first-order entry is a u-slot
        result = make()
        assert len(result.zeros) >= result.expected_count
        assert all(set(rec) == {"reason", "nfev", "misfit"} for rec in result.notes["starts"])

    def test_seed_reproducible(self):
        one, two = (gen_prop12(1, 1, PHI, seed=5) for _ in range(2))
        assert one.spec.to_json_dict() == two.spec.to_json_dict()
        assert one.notes["starts"] == two.notes["starts"]


def _linear(A, b, lam):
    """Residual and Jacobian of |A u - b|^2 + lam^2 |u|^2, as _tune_quadratic stacks them."""
    eye = lam * np.eye(A.shape[1])
    return (lambda u: np.concatenate([A @ u - b, lam * u]), lambda u: np.vstack([A, eye]))


def _rosenbrock():
    return (lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
            lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))


class TestGaussNewton:
    def test_underdetermined_system_gives_the_minimum_norm_solution(self):
        # the penalty rows remove u's component in A's null space only through
        # an undamped Gauss-Newton step: the loop must land on pinv(A) b
        rng = np.random.default_rng(5)
        A, b = rng.normal(size=(6, 10)), rng.normal(size=6)
        fun, jac = _linear(A, b, lam=1e-9)
        x, nfev, status = _gauss_newton(lambda x: (fun(x), jac(x)), rng.normal(scale=2.0, size=10),
                                        lambda f: None)
        assert status == "converged" and nfev < 100
        np.testing.assert_allclose(x, np.linalg.pinv(A) @ b, rtol=0, atol=1e-12)

    def test_stop_iteration_ends_at_the_current_point(self):
        fun, jac = _rosenbrock()
        seen = []

        def third_stops(f):
            seen.append(f)
            if len(seen) == 3:
                raise StopIteration

        x, nfev, status = _gauss_newton(lambda x: (fun(x), jac(x)), np.array([-1.2, 1.0]), third_stops)
        assert status == "callback" and len(seen) == 3
        np.testing.assert_array_equal(fun(x), seen[-1])

    def test_converges_on_a_nonlinear_residual(self):
        fun, jac = _rosenbrock()
        x, nfev, status = _gauss_newton(lambda x: (fun(x), jac(x)), np.array([-1.2, 1.0]), lambda f: None)
        assert status == "converged"
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_inconsistent_system_ends_by_the_cost_or_step_test(self):
        # x0^2 + 1 never vanishes: the cost stops falling well before max_nfev
        fun = lambda x: np.array([x[0] ** 2 + 1.0, x[0] * x[1] - 2.0, x[1] - 1.0])  # noqa: E731
        jac = lambda x: np.array([[2.0 * x[0], 0.0], [x[1], x[0]], [0.0, 1.0]])  # noqa: E731
        calls = []
        x, nfev, status = _gauss_newton(lambda x: (fun(x), jac(x)), np.array([3.0, -2.0]), calls.append)
        assert status == "converged" and nfev < 200
        assert fun(x) @ fun(x) <= calls[0] @ calls[0]

    @pytest.mark.parametrize("n, m", [(1, 0), (1, 1)])
    def test_matches_scipy_trf_on_a_tuning_residual(self, n, m):
        # the loop is trf's exact-subproblem iteration at unit scaling: the
        # same evaluations give the same iterate up to round-off
        model = _QuadModel(n, m, PHI)
        t = model.target_vector(generators._mixed_targets(n, m, 2 * n, 2 * n - 1))
        lam = 1e-9 * max(1.0, float(np.max(np.abs(t))))
        fun = lambda u: np.concatenate([model.residual(u, t)[0], lam * u])  # noqa: E731
        jac = lambda u: np.vstack([model.residual(u, t)[1], lam * np.eye(model.udim)])  # noqa: E731
        u0 = np.random.default_rng(0).normal(size=model.udim)
        x, nfev, status = _gauss_newton(lambda u: (fun(u), jac(u)), u0, lambda f: None, max_nfev=40)
        ref = least_squares(fun, u0, jac=jac, xtol=3e-16, ftol=3e-16, gtol=3e-16, max_nfev=40)
        assert (status, nfev) == ("max_nfev", ref.nfev)
        np.testing.assert_allclose(x, ref.x, rtol=0, atol=1e-10)

    def test_max_nfev_is_the_backstop(self):
        fun, jac = _rosenbrock()
        x0 = np.array([-1.2, 1.0])
        x, nfev, status = _gauss_newton(lambda x: (fun(x), jac(x)), x0, lambda f: None, max_nfev=1)
        assert (status, nfev) == ("max_nfev", 1)
        np.testing.assert_array_equal(x, x0)


def _th4_pair():
    P0 = Poly(2, {(1, 0): 1.0, (0, 0): -1.25})
    Q1 = Poly(2, {(1, 2): 1.0, (1, 0): -0.25})
    return [P0, Poly(2)], [Poly(2), Q1]


class TestTh4:

    def test_reduced_system_realized(self):
        P, Q = _th4_pair()
        result = gen_th4(P, Q, PHI, delta=1e-3)
        norm = result.notes["normalized"]
        red = result.notes["reduced_system"]
        for p, q in zip(norm, red):
            monos = set(p.terms) | set(q.terms)
            assert all(abs(p.terms.get(mo, 0) - q.terms.get(mo, 0)) < 1e-2 for mo in monos)

    def test_zeros_converge_linearly(self):
        P, Q = _th4_pair()
        targets = np.array([[1.25, -0.5], [1.25, 0.5]])
        box = SearchBox([0.05, -1.25], [2.1, 1.25])
        dists = []
        for delta in (1e-2, 1e-3):
            result = gen_th4(P, Q, PHI, delta=delta)
            recs = [r for r in find_simple_zeros(result.notes["normalized"], box) if r.simple]
            assert len(recs) == 2
            dists.append(max(min(np.linalg.norm(r.nu - t) for r in recs) for t in targets))
        # this pair is realized exactly, so the displacement is already at
        # solver precision; linearity in delta is checked in the acceptance
        # suite against looser targets
        assert dists[0] < 1e-2 and dists[1] <= dists[0] + 1e-9

    def test_constant_q_infeasible(self):
        # a constant forcing term is outside the image: the angular factor
        # always carries one power of r
        P = [Poly(2), Poly(2)]
        Q = [Poly.constant(2, 1.0), Poly(2)]
        with pytest.raises(InfeasibleTargetError, match="divisible by r"):
            gen_th4(P, Q, PHI, n=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"delta": math.nan}, "delta must be finite and positive"),
        ({"delta": math.inf}, "delta must be finite and positive"),
        ({"n": 0}, "n must be >= 1"),
    ], ids=["delta-nan", "delta-inf", "n-0"])
    def test_bad_inputs_rejected_up_front(self, kwargs, message):
        P, Q = _th4_pair()
        with pytest.raises(ValueError, match=message):
            gen_th4(P, Q, PHI, **kwargs)

    @pytest.mark.parametrize("n, m, phi", [(1, 1, PHI), (2, 1, 1.0), (1, 2, PHI)])
    def test_q_map_is_the_cross_term_of_build_f2(self, n, m, phi):
        # reference: half the difference of the real pipeline with and without
        # the angular part, on each kernel direction N e_k
        uslots = _full_slots(n, m, FIRST_ORDER)
        h = _angular_part(m, uslots)
        _, _, N, _ = _kernel_split(n, m, phi, uslots)
        keys, S_slot = _slot_form(n, m, phi, uslots)
        QN = (h @ S_slot) @ N
        for k, col in enumerate(N.T):
            both = build_f2(_spec_from_slots(n, m, phi, uslots, h + col), check_f1=False)
            alone = build_f2(_spec_from_slots(n, m, phi, uslots, col), check_f1=False)
            ref = PolyVec([(p - q).scaled(0.5) for p, q in zip(both, alone)])
            assert set(_monomial_basis([ref])) <= set(keys)
            np.testing.assert_allclose(QN[:, k], _poly_vec_to_coeffs(ref, keys), rtol=0, atol=1e-13)


@pytest.mark.parametrize("component, kind, mono", [
    (1, "P", (1, 0, 0)),  # P_1 = r
    (1, "P", (0, 0, 1)),  # P_1 = z_2
    (1, "Q", (2, 0, 0)),  # Q_1 = r^2
    (2, "Q", (1, 1, 0)),  # Q_2 = r z_1
])
def test_th4_mixed_component_target(component, kind, mono):
    # every table entry of degree <= n is a slot, so P_l and Q_l / r (l >= 1)
    # need not be polynomials in z_l alone
    r = Poly.variable(3, 0)
    P = [r + Poly.constant(3, -1.0), Poly(3), Poly(3)]
    Q = [Poly(3)] * 3
    (P if kind == "P" else Q)[component] = Poly(3, {mono: 1.0})
    result = gen_th4(P, Q, 1.0)
    for p, q in zip(result.notes["normalized"], result.notes["reduced_system"]):
        assert all(abs(p.terms.get(mo, 0) - q.terms.get(mo, 0)) < 1e-2 for mo in set(p.terms) | set(q.terms))


class TestF1Matrix:
    @pytest.mark.parametrize("n, m, phi", [(2, 1, PHI), (2, 1, math.pi), (2, 0, TWO_PI), (3, 2, PHI)])
    def test_columns_are_unit_slot_build_f1(self, n, m, phi):
        slots = _full_slots(n, m, ("a", "b", "c"))
        A, keys = _f1_matrix(n, m, phi, slots)
        assert len(set(keys)) == len(keys)
        for col, slot in zip(A.T, slots):
            f1 = build_f1(_spec_from_slots(n, m, phi, [slot], [1.0]))
            assert set(_monomial_basis([f1])) <= set(keys)
            # build_f1 drops coefficients below polyalg.PRUNE_TOL = 1e-15
            np.testing.assert_allclose(col, _poly_vec_to_coeffs(f1, keys), rtol=0, atol=1e-15)


# each generator that needs a generic switching angle, at a small size
GENERIC_ANGLE_CALLS = {
    "gen_prop10": lambda phi: gen_prop10(1, 0, phi),
    "gen_prop12": lambda phi: gen_prop12(1, 0, phi),
    "gen_cor13": lambda phi: gen_cor13(1, phi),
    "gen_th4": lambda phi: gen_th4(*_th4_pair(), phi),
}


@pytest.mark.parametrize("phi", [math.pi, TWO_PI, 0.0], ids=["pi", "2pi", "0"])
@pytest.mark.parametrize("name", list(GENERIC_ANGLE_CALLS))
def test_generic_angle_required(name, phi):
    with pytest.raises(ValueError, match=rf"^{name} needs phi in \(0, 2\*pi\) away from pi and 2\*pi$"):
        GENERIC_ANGLE_CALLS[name](phi)


class TestResultNotes:
    def test_upper_bound_respected(self):
        result = gen_prop12(2, 0, PHI)
        assert len(result.zeros) <= second_order_upper_bound(2, 0)

"""Constructive generators: count formulas, certification, infeasibility."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from avgcycles import generators
from avgcycles.avgcore import _full_slots, build_f1, build_f2
from avgcycles.flowsim import distance_slope, eps_sweep
from avgcycles.generators import (
    STALL_WINDOW,
    TUNING_STARTS,
    ConstructionError,
    InfeasibleTargetError,
    _angular_part,
    _f1_matrix,
    _gauss_newton,
    _kernel_split,
    _monomial_basis,
    _poly_vec_to_coeffs,
    _QuadModel,
    _slot_form,
    _slot_product,
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
from avgcycles.rootfind import SearchBox, certify_count, find_simple_zeros
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

    @pytest.mark.parametrize("n, m", list(itertools.product((1, 2, 3), (0, 1, 2))))
    @pytest.mark.parametrize("make", [
        lambda n, m: gen_prop10(n, m, PHI),
        gen_prop16,
        gen_prop20,  # role-permuted at (2, 1), (2, 2)
    ], ids=["gen_prop10", "gen_prop16", "gen_prop20"])
    def test_certified_zeros_are_the_planted_ones(self, make, n, m):
        # every first-order entry is a slot, and the minimum-norm fit still
        # certifies exactly the planted grid
        result = make(n, m)
        cert = certify_count(result.system, result.box, result.expected_count)
        assert cert["pass"], cert
        simple = [rec.nu for rec in cert["records"] if rec.simple]
        assert len(simple) == len(result.zeros) == result.expected_count
        for nu in result.zeros:
            assert min(np.max(np.abs(z - nu)) for z in simple) < 1e-8, nu


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
        for _, _, X in model.zones:  # each zone's form is exactly symmetric
            np.testing.assert_array_equal(X, X.transpose(0, 2, 1))

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
        # P is an orthonormal basis of the orthogonal complement of L's range
        P = model.P
        assert P.shape[1] == len(model.monos) - np.linalg.matrix_rank(model.L)
        np.testing.assert_allclose(P.T @ P, np.eye(P.shape[1]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(P.T @ model.L, 0.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_surrogate_matches_pairwise_series_reference(self, n, m, series):
        # reference: S_slot from the symmetrized bilinear form of each
        # same-zone slot pair as one series product, integrated termwise
        model = _QuadModel(n, m, PHI)
        base = zero_spec(n, m, m, PHI)
        fields = [series.ZoneFields(_spec_from_slots(n, m, PHI, [slot], [1.0]), slot[1]) for slot in model.uslots]

        blocks = {}
        for a, b in itertools.combinations_with_replacement(range(len(model.uslots)), 2):
            sign = model.uslots[a][1]
            if sign == model.uslots[b][1]:
                halves = [series.scaled(series.add(series.bilinear(fields[a], fields[b], ell),
                                                   series.bilinear(fields[b], fields[a], ell)), 0.5)
                          for ell in range(m + 1)]
                blocks[a, b] = PolyVec([series.g_contribution(base, sign, h, rshift=1).scaled(2.0) for h in halves])
        # L's columns from each v-slot's own order-2 field series
        lcols = [PolyVec([
            series.g_contribution(base, slot[1], series.field_series(_spec_from_slots(n, m, PHI, [slot], [1.0]), 2,
                                                                     slot[1], ell + 2), rshift=1).scaled(2.0)
            for ell in range(m + 1)])
            for slot in model.vslots]
        assert model.monos == _monomial_basis(list(blocks.values()) + lcols)

        S_slot = np.zeros((len(model.monos), len(model.uslots), len(model.uslots)))
        for (a, b), pv in blocks.items():
            S_slot[:, a, b] = S_slot[:, b, a] = _poly_vec_to_coeffs(pv, model.monos)
        # each zone block against its block of the reference, and nothing
        # of the reference outside the blocks
        got = np.zeros_like(S_slot)
        for idx, rows, X in model.zones:
            got[np.ix_(rows, idx, idx)] = X
        assert np.max(np.abs(got - S_slot)) <= 1e-15 * np.max(np.abs(S_slot))

        u = np.random.default_rng(5).normal(size=model.udim)
        x = model.N @ u
        np.testing.assert_allclose(model.quad(u), np.einsum("kab,a,b->k", S_slot, x, x), rtol=0, atol=1e-12)

    def test_no_dense_tensor_and_a_dense_reference_agrees(self):
        # the model keeps the slot form as its per-zone blocks: no array
        # near the size of S = N^T S_slot N, yet quad and residual are S's
        model = _QuadModel(2, 2, PHI)
        nmono, udim = len(model.monos), model.udim

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    yield from arrays(item)

        assert max(a.size for a in arrays(list(vars(model).values()))) < nmono * udim**2

        S_slot = np.zeros((nmono, len(model.uslots), len(model.uslots)))
        for idx, rows, X in model.zones:
            S_slot[np.ix_(rows, idx, idx)] = X
        S = model.N.T @ S_slot @ model.N
        rng = np.random.default_rng(6)
        u, t = rng.normal(size=udim), rng.normal(size=nmono)
        np.testing.assert_allclose(model.quad(u), S @ u @ u, rtol=0, atol=1e-12)
        gap, J = model.residual(u, t)  # in the coordinates of L's range's complement
        np.testing.assert_allclose(gap, model.P.T @ (S @ u @ u - t), rtol=0, atol=1e-12)
        h = 1e-3  # central differences are exact on a quadratic, up to round-off
        fd = np.stack([(model.residual(u + h * e, t)[0] - model.residual(u - h * e, t)[0]) / (2 * h)
                       for e in np.eye(udim)], axis=1)
        np.testing.assert_allclose(J, fd, rtol=0, atol=1e-10)

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

    @pytest.mark.parametrize("make", [
        lambda: gen_prop12(1, 0, PHI), lambda: gen_prop12(2, 0, PHI), lambda: gen_prop18(1, 1),
    ], ids=["prop12-1-0", "prop12-2-0", "prop18-1-1"])
    def test_winning_start_is_short(self, make):
        # each of these took 35 to 40 evaluations when the tuning residual
        # carried norm-penalty rows
        assert make().notes["starts"][-1]["nfev"] <= 20

    def test_minimum_norm_point_keeps_the_cycles_linear(self):
        # what the norm-penalty rows were kept for, now held by the
        # minimum-norm projection: criterion 5's sweep at every zero of the
        # tuned specs has distance slope 1 +- 0.15
        eps_values = (2.5e-2, 1.25e-2, 6.25e-3, 2.5e-3)
        for seed in range(1, 5):
            result = gen_prop12(1, 0, PHI, seed=seed)
            for nu in result.zeros:
                records = eps_sweep(result.spec, nu, eps_values)
                assert all(rec.accepted for rec in records), (seed, nu)
                assert distance_slope(records) == pytest.approx(1.0, abs=0.15), (seed, nu)

    def test_target_in_l_range_needs_no_tuning(self):
        # gen_prop18(1, 0)'s target lies in L's range: u = 0 meets it
        model = _QuadModel(1, 0, math.pi)
        assert model.P.shape[1] == 0
        starts = gen_prop18(1, 0).notes["starts"]
        assert starts == [{"reason": "target", "nfev": 0, "misfit": 0.0}]

    def test_linalg_error_ends_one_start(self, monkeypatch):
        # a LAPACK failure inside one start is that start's stall, recorded
        # with its evaluations and misfit so far; the next start goes on
        model = _QuadModel(1, 0, PHI)
        target = generators._mixed_targets(1, 0, 2, 1)
        real, calls = np.linalg.svd, []

        def first_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(generators.np.linalg, "svd", first_fails)
        starts = []
        _, _, _, zeros = _tune_quadratic(model, target, starts, expected=2)
        assert [rec["reason"] for rec in starts] == ["stall", "target"]
        assert starts[0]["nfev"] == 1 and 0 < starts[0]["misfit"] < math.inf
        assert len(zeros) == 2

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
        lambda: gen_cor13(3, PHI, seed=0),
    ], ids=["prop18-3-1-seed0", "cor13-2-seed12", "cor13-2-seed22", "cor13-3-seed0"])
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
    """Residual and Jacobian of |A u - b|^2 + lam^2 |u|^2, the penalty as rows under A u - b."""
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
        # same evaluations give the same iterate up to round-off.  Penalty
        # rows under the tuning residual make J full rank; without them trf
        # keeps singular values that the loop's rank rule drops
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
        _, _, N, _ = _kernel_split(n, m, phi)
        keys, zones = _slot_form(n, m, phi, uslots)
        QN = _slot_product(zones, h, N, len(keys))
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
        A, keys = _f1_matrix(n, m, phi)
        assert len(set(keys)) == len(keys)
        for col, slot in zip(A.T, slots):
            f1 = build_f1(_spec_from_slots(n, m, phi, [slot], [1.0]))
            assert set(_monomial_basis([f1])) <= set(keys)
            # build_f1 drops coefficients below polyalg.PRUNE_TOL = 1e-15
            np.testing.assert_allclose(col, _poly_vec_to_coeffs(f1, keys), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("phi", [PHI, math.pi, TWO_PI, 1.2, 0.7], ids=["pi/3", "pi", "2pi", "1.2", "0.7"])
    def test_bit_identical_to_a_per_constraint_lookup(self, phi, f1_reference):
        # reference: each constraint's weights as a dict, looked up once per
        # slot; _QuadModel's N, zones and tuning rest on this exact matrix
        for n, m in itertools.product((0, 1, 2, 3), (0, 1, 2)):
            ref, ref_keys = f1_reference.f1_matrix(n, m, phi)
            A, keys = _f1_matrix(n, m, phi)
            assert keys == ref_keys
            assert A.shape == ref.shape and np.array_equal(A, ref), (n, m)

    @pytest.mark.parametrize("phi", [PHI, math.pi, TWO_PI, 1.2, 0.7], ids=["pi/3", "pi", "2pi", "1.2", "0.7"])
    def test_kernel_split_bit_identical_on_the_reference_matrix(self, phi, f1_reference, monkeypatch):
        split = {(n, m): _kernel_split(n, m, phi) for n, m in itertools.product((0, 1, 2, 3), (0, 1, 2))}
        monkeypatch.setattr(generators, "_f1_matrix", f1_reference.f1_matrix)
        for (n, m), (A, keys, N, R) in split.items():
            A_ref, keys_ref, N_ref, R_ref = _kernel_split(n, m, phi)
            assert keys == keys_ref, (n, m)
            assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip((A, N, R), (A_ref, N_ref, R_ref)))


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

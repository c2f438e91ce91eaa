"""Proved zero counts by interval subdivision, and the batched Newton that polishes them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcycles import rootfind
from avgcycles.generators import gen_prop10, gen_prop16, gen_prop20
from avgcycles.polyalg import CompiledPolyVec, Poly, PolyVec, jacobian
from avgcycles.rootfind import (
    INITIAL_BOXES,
    MAX_HALVINGS,
    MAX_ITERS,
    RESIDUAL_TOL,
    EmptyBoxError,
    SearchBox,
    SearchDiagnostics,
    _batch_newton,
    _clusters,
    _corners,
    certify_count,
    find_simple_zeros,
    write_zero_csv,
)


def _radial_poly(roots):
    p = Poly.constant(1, 1.0)
    for r in roots:
        p = p * (Poly.variable(1, 0) - Poly.constant(1, r))
    return PolyVec([p])


def _grid_system(r_roots, z_roots):
    pr = Poly.constant(2, 1.0)
    for r in r_roots:
        pr = pr * (Poly.variable(2, 0) - Poly.constant(2, r))
    pz = Poly.constant(2, 1.0)
    for z in z_roots:
        pz = pz * (Poly.variable(2, 1) - Poly.constant(2, z))
    return PolyVec([pr, pz])


class TestSearchBox:
    def test_degenerate_rejected(self):
        with pytest.raises(EmptyBoxError):
            SearchBox([1.0], [1.0])

    def test_r_min_enforced(self):
        with pytest.raises(EmptyBoxError):
            SearchBox([-0.5], [2.0])


class TestFindSimpleZeros:
    def test_univariate_roots(self):
        roots = [0.5, 1.0, 1.5]
        records = find_simple_zeros(_radial_poly(roots), SearchBox([0.05], [2.0]))
        assert [r.simple for r in records] == [True] * 3
        np.testing.assert_allclose([r.nu[0] for r in records], roots, atol=1e-8)

    def test_grid_roots_2d(self):
        records = find_simple_zeros(_grid_system([0.7, 1.4], [-0.5, 0.5]),
                                    SearchBox([0.05, -1.0], [2.0, 1.0]))
        assert sum(r.simple for r in records) == 4

    def test_double_root_not_simple(self):
        p = (Poly.variable(1, 0) - Poly.constant(1, 1.0))
        records = find_simple_zeros(PolyVec([p * p]), SearchBox([0.05], [2.0]))
        assert all(not r.simple for r in records)

    def test_root_below_r_min_excluded(self):
        records = find_simple_zeros(_radial_poly([-0.3, 1.0]), SearchBox([0.05], [2.0]))
        assert [round(r.nu[0], 6) for r in records] == [1.0]

    def test_non_square_rejected(self):
        F = PolyVec([Poly(2, {(1, 0): 1.0})])
        with pytest.raises(ValueError, match="square"):
            find_simple_zeros(F, SearchBox([0.05, -1.0], [2.0, 1.0]))

    def test_diagnostics_populated(self):
        # the first level's 64 cells: one proves the zero of r - 1, the rest
        # exclude it, and the Krawczyk centre of a linear system is its zero
        diag = SearchDiagnostics()
        find_simple_zeros(_radial_poly([1.0]), SearchBox([0.05], [2.0]), diag)
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved) == (
            INITIAL_BOXES, INITIAL_BOXES - 1, 1, 0)
        assert diag.newton_steps <= 1


def _reference_newton(F, x0, r_min):
    """Per-seed damped Newton on the sparse evaluator: (point, converged, steps)."""
    x = np.array(x0, dtype=float)
    fx = F(x)
    res = float(np.max(np.abs(fx)))
    for k in range(MAX_ITERS):
        if res < RESIDUAL_TOL:
            return x, True, k
        J = np.array([[p.diff(j)(x) for j in range(len(x))] for p in F])
        det = np.linalg.det(J)
        if not np.isfinite(det) or abs(det) < 1e-300:
            return x, False, k + 1
        step = np.linalg.solve(J, fx)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            xn = x - t * step
            if xn[0] > r_min:
                fn = F(xn)
                rn = float(np.max(np.abs(fn)))
                if rn < res:
                    x, fx, res = xn, fn, rn
                    break
            t *= 0.5
        else:
            return x, False, k + 1
    return x, res < RESIDUAL_TOL, MAX_ITERS


def _compiled_newton(F, seeds, r_min):
    """_batch_newton on F's compiled system with the root search's constants: (points, converged, steps)."""
    C = CompiledPolyVec.of(F)
    x, _, ok, steps = _batch_newton(lambda rows, X: C.values(X), lambda rows, X, FX: C.jacobians(X),
                                    seeds, RESIDUAL_TOL, MAX_ITERS, MAX_HALVINGS, r_min)
    return x, ok, steps


def _seed_grid(lo, hi, grid):
    """grid[v] evenly spaced interior seeds on each axis, all combinations."""
    axes = [np.linspace(a, b, g + 2)[1:-1] for a, b, g in zip(lo, hi, grid)]
    return np.stack([mm.ravel() for mm in np.meshgrid(*axes, indexing="ij")], axis=-1)


class TestBatchNewton:
    @pytest.mark.parametrize("make", [
        lambda: (_grid_system([0.7, 1.4], [-0.5, 0.5]), ([0.05, -1.0], [2.0, 1.0], (9, 9)), 1e-6),
        lambda: (_radial_poly([1.0, -0.5]), ([0.05], [2.0], (15,)), 0.05),
        lambda: (gen_prop10(2, 1, math.pi / 3).system, ([0.05, -1.25], [2.1, 1.25], (9, 9)), 1e-6),
        lambda: (gen_prop20(1, 1).system, ([0.05, -1.25], [2.1, 1.25], (9, 9)), 1e-6),
    ], ids=["grid", "wall", "prop10", "prop20"])
    def test_matches_per_seed_reference(self, make):
        F, grid, r_min = make()
        seeds = _seed_grid(*grid)
        x, ok, steps = _compiled_newton(F, seeds, r_min)
        ref = [_reference_newton(F, s, r_min) for s in seeds]
        assert ok.tolist() == [r[1] for r in ref]
        assert steps.tolist() == [r[2] for r in ref]
        np.testing.assert_allclose(x, [r[0] for r in ref], rtol=0, atol=1e-9)

    def test_residual_may_depend_on_the_row(self):
        # (x^2 - c[row]^2, y - x) has its root at (c[row], c[row]): each row
        # must be evaluated on its own data, also when the line search tries
        # only some of the rows (the 0.6 start overshoots and is halved)
        c = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        x0 = np.array([[1.0, 0.2], [1.0, -0.3], [0.6, 0.1], [4.0, 0.0], [1.0, 1.0]])

        def fun(rows, X):
            return np.column_stack([X[:, 0] ** 2 - c[rows] ** 2, X[:, 1] - X[:, 0]])

        def jac(rows, X, FX):
            J = np.zeros((len(X), 2, 2))
            J[:, 0, 0], J[:, 1, 0], J[:, 1, 1] = 2.0 * X[:, 0], -1.0, 1.0
            return J

        x, fx, ok, steps = _batch_newton(fun, jac, x0, RESIDUAL_TOL, MAX_ITERS, MAX_HALVINGS, 1e-6)
        assert ok.all() and (steps > 0).all()
        np.testing.assert_allclose(x, np.column_stack([c, c]), rtol=0, atol=1e-9)
        assert np.array_equal(fx, fun(np.arange(len(x)), x))

    def test_seed_uses_up_halvings(self):
        # (r - c)^2 + 1 has no zero; at r = 1 the slope is -2e-9, so the Newton
        # step is about 5e8 long and every halving down to 2^-29 overshoots
        c = 1.0 + 1e-9
        F = PolyVec([Poly(1, {(2,): 1.0, (1,): -2.0 * c, (0,): c * c + 1.0})])
        assert abs(jacobian(F, [1.0])[1]) > 1e-300
        x, ok, steps = _compiled_newton(F, np.array([[1.0]]), 1e-6)
        assert not ok[0] and x[0, 0] == 1.0 and steps[0] == 1
        # the interval search excludes every cell of the first level at once
        diag = SearchDiagnostics()
        assert find_simple_zeros(F, SearchBox([0.5], [1.5]), diag) == []
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.newton_steps) == (
            INITIAL_BOXES, INITIAL_BOXES, 0, 0, 0)

    def test_seed_stopped_at_r_min(self):
        # r + 0.5 vanishes at r = -0.5: every step aims below r_min, so the
        # seed creeps down to the wall until no halving stays above it
        F = PolyVec([Poly(1, {(1,): 1.0, (0,): 0.5})])
        box = SearchBox([0.05], [2.0], r_min=0.05)
        x, ok, steps = _compiled_newton(F, np.array([[1.025]]), box.r_min)
        assert not ok[0]
        assert box.r_min < x[0, 0] < box.r_min + 1e-6
        assert 1 < steps[0] < MAX_ITERS
        # r + 0.5 > 0 on the box: every cell of the first level is excluded
        diag = SearchDiagnostics()
        assert find_simple_zeros(F, box, diag) == []
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.newton_steps) == (
            INITIAL_BOXES, INITIAL_BOXES, 0, 0, 0)

    def test_full_turn_m2_has_no_zeros(self):
        # f_1 = (r, z1 - 0.013, z2 - 0.026): its only zero lies on r = 0.  The
        # r-free first component is the constant 1, which has no zero, so
        # the search examines no box at all
        res = gen_prop20(1, 2)
        diag = SearchDiagnostics()
        assert find_simple_zeros(res.system, res.box, diag) == []
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.newton_steps) == (
            0, 0, 0, 0, 0)

    def test_planted_grid_found(self):
        res = gen_prop10(2, 2, math.pi / 3)
        diag = SearchDiagnostics()
        records = find_simple_zeros(res.system, res.box, diag)
        # every box is excluded, proved or bisected into two: none is left
        assert (diag.proved, diag.unresolved) == (8, 0)
        assert diag.boxes - INITIAL_BOXES == 2 * (diag.boxes - diag.excluded - diag.proved)
        assert diag.boxes <= 4 * INITIAL_BOXES
        # compare as sets: records are sorted by tuple, and coordinates that
        # tie up to round-off can flip their order
        found = [r.nu for r in records if r.simple]
        assert len(found) == len(res.zeros) == 8
        for z in res.zeros:
            assert min(np.max(np.abs(f - z)) for f in found) < 1e-8


def _r_power(k, nvars=1):
    return Poly(nvars, {(k,) + (0,) * (nvars - 1): 1.0})


class TestRFreeSearch:
    @settings(max_examples=25, deadline=None)
    @given(roots=st.lists(st.floats(0.1, 1.9), min_size=1, max_size=3), k=st.integers(1, 3))
    def test_power_of_r_changes_nothing(self, roots, k):
        # on r >= r_min > 0, r^k q has the zeros of q, and the search divides
        # r^k out exactly: the records must agree bit for bit
        q = _radial_poly(roots)
        box = SearchBox([0.05], [2.0])
        bare = find_simple_zeros(q, box)
        scaled = find_simple_zeros(PolyVec([_r_power(k) * q[0]]), box)
        assert [(r.nu.tobytes(), r.residual, r.jac_det, r.simple) for r in scaled] == [
            (r.nu.tobytes(), r.residual, r.jac_det, r.simple) for r in bare]

    def test_different_powers_per_component(self):
        # (r (r - a), r^2 (z - b)) has its one zero off r = 0 at (a, b)
        a, b = 1.3, -0.4
        r, z = Poly.variable(2, 0), Poly.variable(2, 1)
        F = PolyVec([r * (r - Poly.constant(2, a)), _r_power(2, 2) * (z - Poly.constant(2, b))])
        diag = SearchDiagnostics()
        records = find_simple_zeros(F, SearchBox([0.05, -1.0], [2.0, 1.0]), diag)
        assert [rec.simple for rec in records] == [True]
        np.testing.assert_allclose(records[0].nu, [a, b], rtol=0, atol=1e-12)
        assert (diag.proved, diag.unresolved) == (1, 0)

    def test_zero_only_at_r_0(self):
        # (r, z - c) vanishes only at r = 0; its r-free form (1, z - c) has a
        # nonzero constant component and no zero, so no box is examined
        F = PolyVec([_r_power(1, 2), Poly.variable(2, 1) - Poly.constant(2, 0.3)])
        diag = SearchDiagnostics()
        assert find_simple_zeros(F, SearchBox([0.05, -1.0], [2.0, 1.0]), diag) == []
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.newton_steps) == (
            0, 0, 0, 0, 0)


class TestIntervalSearch:
    @pytest.mark.parametrize("second", [1.0, 1.0 + 1e-9], ids=["double", "pair-1e-9"])
    def test_close_roots_make_one_unresolved_record(self, second):
        # (r - 1)^2 and two zeros 1e-9 apart: no box narrower than MIN_WIDTH
        # separates them and round-off hides the sign change, so the boxes
        # left there merge into one record that is not simple
        r, one = Poly.variable(1, 0), Poly.constant(1, 1.0)
        diag = SearchDiagnostics()
        records = find_simple_zeros(PolyVec([(r - one) * (r - Poly.constant(1, second))]),
                                    SearchBox([0.05], [2.0]), diag)
        assert [rec.simple for rec in records] == [False]
        assert abs(records[0].nu[0] - 1.0) < 1e-6
        assert diag.proved == 0 and diag.unresolved >= 1
        assert diag.boxes < 1000

    def test_zero_on_an_initial_face_is_found_once(self):
        # the zero is the corner that cells (3, 3), (3, 4), (4, 3) and (4, 4) of
        # the first level's 8 x 8 share: none of them can prove it, so their
        # cluster's hull does
        box = SearchBox([0.05, -1.0], [2.0, 1.0])
        face = _corners(box, np.array([[4, 4]]), np.array([8, 8]))[0][0]
        diag = SearchDiagnostics()
        records = find_simple_zeros(_grid_system([face[0]], [face[1]]), box, diag)
        assert [rec.simple for rec in records] == [True]
        np.testing.assert_allclose(records[0].nu, face, rtol=0, atol=1e-12)
        assert (diag.proved, diag.unresolved) == (1, 0)
        # in one variable, on the face between cells 31 and 32 of 64
        box = SearchBox([0.05], [2.0])
        face = _corners(box, np.array([[32]]), np.array([64]))[0][0, 0]
        records = find_simple_zeros(_radial_poly([face, 0.5]), box)
        assert [rec.simple for rec in records] == [True, True]
        np.testing.assert_allclose([rec.nu[0] for rec in records], [0.5, face], rtol=0, atol=1e-12)

    def test_zero_on_the_outer_boundary_is_unresolved(self):
        # no box of the search lies around r = 2: the zero is reported, not proved
        diag = SearchDiagnostics()
        records = find_simple_zeros(_radial_poly([2.0]), SearchBox([0.05], [2.0]), diag)
        assert [rec.simple for rec in records] == [False]
        assert abs(records[0].nu[0] - 2.0) < 1e-6 and diag.unresolved >= 1

    def test_curve_of_zeros_stops_at_the_box_budget(self, monkeypatch):
        # two equal components vanish on a whole arc of the unit circle: no
        # box proves or excludes it, so the search stops at MAX_BOXES and
        # reports the cells left as unresolved, never as simple zeros
        monkeypatch.setattr(rootfind, "MAX_BOXES", 2000)
        r, z = Poly.variable(2, 0), Poly.variable(2, 1)
        circle = r * r + z * z - Poly.constant(2, 1.0)
        diag = SearchDiagnostics()
        records = find_simple_zeros(PolyVec([circle, circle]), SearchBox([0.05, -1.0], [2.0, 1.0]), diag)
        assert records and not any(rec.simple for rec in records)
        assert diag.boxes <= 2000 + len(records) and diag.proved == 0 and diag.unresolved > 0
        assert all(abs(np.hypot(*rec.nu) - 1.0) < 0.1 for rec in records)

    def test_clusters_are_touching_cells(self):
        idx = np.array([[0, 0], [1, 1], [4, 0], [4, 1], [5, 5], [2, 2]])
        label = _clusters(idx)
        groups = {frozenset(np.flatnonzero(label == lab)) for lab in label}
        assert groups == {frozenset({0, 1, 5}), frozenset({2, 3}), frozenset({4})}


class TestCertifyCount:
    def test_pass(self):
        out = certify_count(_radial_poly([0.6, 1.2]), SearchBox([0.05], [2.0]), 2)
        assert out["pass"] and out["found"] == 2 and out["bezout"] == 2

    def test_undercount_fails(self):
        out = certify_count(_radial_poly([0.6]), SearchBox([0.05], [2.0]), 2)
        assert not out["pass"]

    def test_degenerate_system_diagnosed(self):
        out = certify_count(PolyVec([Poly.constant(1, 1.0)]), SearchBox([0.05], [2.0]), 1)
        assert not out["pass"] and out["bezout"] == 0
        assert "degenerate" in out["diagnostic"]

    @pytest.mark.parametrize("make", [
        lambda: gen_prop10(1, 2, math.pi / 3),
        lambda: gen_prop10(2, 2, math.pi / 3),
        lambda: gen_prop16(1, 2),
        lambda: gen_prop16(2, 2),
        lambda: gen_prop20(2, 2),
    ], ids=["prop10-n1", "prop10-n2", "prop16-n1", "prop16-n2", "prop20-n2"])
    def test_first_order_m2_constructions(self, make):
        res = make()
        out = certify_count(res.system, res.box, res.expected_count)
        assert out["pass"], (out["found"], out["expected"], out["bezout"])
        found = [r.nu for r in out["records"] if r.simple]
        assert len(found) == len(res.zeros)
        for z in res.zeros:
            assert min(np.max(np.abs(f - z)) for f in found) < 1e-8


def test_zero_csv(tmp_path):
    records = find_simple_zeros(_radial_poly([1.0]), SearchBox([0.05], [2.0]))
    path = tmp_path / "zeros.csv"
    write_zero_csv(path, records, 1)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,residual,jac_det,simple"
    assert len(lines) == 2

"""Proved zero counts by interval subdivision, each zero located by the Krawczyk contraction that proves it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcycles import rootfind
from avgcycles.generators import gen_prop10, gen_prop12, gen_prop16, gen_prop20, positive_nodes
from avgcycles.polyalg import CompiledPolyVec, Poly, PolyVec
from avgcycles.rootfind import (
    INITIAL_BOXES,
    RESIDUAL_TOL,
    EmptyBoxError,
    SearchBox,
    SearchDiagnostics,
    _classify,
    _clusters,
    _corners,
    _r_free,
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

    def test_scaled_simple_zeros_settle_at_the_rounding_bound(self):
        # at 1e13 scale the residual at either zero is about 1e-3, far above
        # RESIDUAL_TOL, yet within the enclosure's own rounding bound: both
        # zeros are proved and settled, so both records are simple
        r = Poly.variable(1, 0)
        F = PolyVec([((r - Poly.constant(1, 1 / 3)) * (r - Poly.constant(1, 0.7))).scaled(1e13)])
        records = find_simple_zeros(F, SearchBox([0.05], [2.0]))
        assert [rec.simple for rec in records] == [True, True]
        assert all(rec.residual > RESIDUAL_TOL for rec in records)
        np.testing.assert_allclose([rec.nu[0] for rec in records], [1 / 3, 0.7], rtol=0, atol=1e-14)

    def test_root_below_r_min_excluded(self):
        records = find_simple_zeros(_radial_poly([-0.3, 1.0]), SearchBox([0.05], [2.0]))
        assert [round(r.nu[0], 6) for r in records] == [1.0]

    def test_non_square_rejected(self):
        F = PolyVec([Poly(2, {(1, 0): 1.0})])
        with pytest.raises(ValueError, match="square"):
            find_simple_zeros(F, SearchBox([0.05, -1.0], [2.0, 1.0]))

    def test_diagnostics_populated(self):
        # the first level's 64 cells: one proves the zero of r - 1, the rest
        # exclude it; the Krawczyk image of a linear system is its zero up to
        # round-off, so the first contraction's centre meets RESIDUAL_TOL
        diag = SearchDiagnostics()
        find_simple_zeros(_radial_poly([1.0]), SearchBox([0.05], [2.0]), diag)
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.contractions) == (
            INITIAL_BOXES, INITIAL_BOXES - 1, 1, 0, 1)


class TestBatchNewton:
    def test_seed_uses_up_halvings(self):
        # (r - c)^2 + 1 has no zero, though at r = 1 its slope is only -2e-9:
        # the interval search excludes every cell of the first level at once
        c = 1.0 + 1e-9
        F = PolyVec([Poly(1, {(2,): 1.0, (1,): -2.0 * c, (0,): c * c + 1.0})])
        diag = SearchDiagnostics()
        assert find_simple_zeros(F, SearchBox([0.5], [1.5]), diag) == []
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.contractions) == (
            INITIAL_BOXES, INITIAL_BOXES, 0, 0, 0)

    def test_seed_stopped_at_r_min(self):
        # r + 0.5 vanishes at r = -0.5, outside the box, and r + 0.5 > 0 on
        # it: every cell of the first level is excluded
        F = PolyVec([Poly(1, {(1,): 1.0, (0,): 0.5})])
        diag = SearchDiagnostics()
        assert find_simple_zeros(F, SearchBox([0.05], [2.0]), diag) == []
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.contractions) == (
            INITIAL_BOXES, INITIAL_BOXES, 0, 0, 0)

    def test_full_turn_m2_has_no_zeros(self):
        # f_1 = (r, z1 - 0.013, z2 - 0.026): its only zero lies on r = 0.  The
        # r-free first component is the constant 1, which has no zero, so
        # the search examines no box at all
        res = gen_prop20(1, 2)
        diag = SearchDiagnostics()
        assert find_simple_zeros(res.system, res.box, diag) == []
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.contractions) == (
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
        # on r > 0, r^k q has the zeros of q, and the search divides
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
        assert (diag.boxes, diag.excluded, diag.proved, diag.unresolved, diag.contractions) == (
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


def _with_planted(res, planted=None):
    return res, res.zeros if planted is None else [np.array([z]) for z in planted]


class TestLocation:
    @pytest.mark.parametrize("make", [
        lambda: _with_planted(gen_prop10(1, 2, math.pi / 3)),
        lambda: _with_planted(gen_prop10(2, 2, math.pi / 3)),
        lambda: _with_planted(gen_prop16(1, 2)),
        lambda: _with_planted(gen_prop16(2, 2)),
        lambda: _with_planted(gen_prop20(2, 2)),
        # second order: res.zeros are the search's own records, so compare
        # with the radii the tuning targets
        lambda: _with_planted(gen_prop12(2, 0, math.pi / 3), positive_nodes(4)),
    ], ids=["prop10-n1", "prop10-n2", "prop16-n1", "prop16-n2", "prop20-n2", "prop12-n2-m0"])
    def test_simple_records_are_centres_of_proved_boxes(self, make, monkeypatch):
        # each simple record is the centre of the last box the search
        # classified about it, and that box, classified again, is proved to
        # hold exactly one zero: the record lies within its half-width of it
        res, planted = make()
        boxes = []
        classify = rootfind._classify

        def spy(C, lo, hi):
            boxes.append((lo.copy(), hi.copy()))
            return classify(C, lo, hi)

        with monkeypatch.context() as m:
            m.setattr(rootfind, "_classify", spy)
            records = find_simple_zeros(res.system, res.box)
        lo, hi = (np.concatenate(a) for a in zip(*boxes))
        C = CompiledPolyVec.of(PolyVec([_r_free(p) for p in res.system]))
        simple = [rec.nu for rec in records if rec.simple]
        assert len(simple) == len(planted) == res.expected_count
        for nu in simple:
            at = np.flatnonzero(np.all(0.5 * lo + 0.5 * hi == nu, axis=1))
            assert at.size, nu
            excluded, proved = _classify(C, lo[at[-1:]], hi[at[-1:]])[:2]
            assert proved[0] and not excluded[0]
            assert min(np.max(np.abs(nu - z)) for z in planted) < 1e-8


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

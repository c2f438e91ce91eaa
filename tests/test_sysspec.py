"""System specification validation and the JSON wire format."""

import math

import numpy as np
import pytest

from avgcycles.avgcore import compile_fields
from avgcycles.polyalg import CompiledPolyVec
from avgcycles.sysspec import (
    CoefficientTable,
    SpecError,
    SystemSpec,
    multi_indices,
    random_spec,
    zero_spec,
)


class TestCoefficientTable:
    def test_set_get_and_prune(self):
        t = CoefficientTable(2, 1)
        t.set((1, 0, 1), 2.5)
        assert t.get((1, 0, 1)) == 2.5
        t.set((1, 0, 1), 0.0)
        assert t.is_zero()

    def test_degree_cap(self):
        t = CoefficientTable(2, 0)
        with pytest.raises(SpecError):
            t.set((2, 1), 1.0)

    def test_index_length(self):
        t = CoefficientTable(2, 1)
        with pytest.raises(SpecError):
            t.set((1, 0), 1.0)

    @pytest.mark.parametrize("idx, val, match", [((1, 0), 1.0, "length"), ((1, -1, 0), 1.0, "negative"),
                                                 ((2, 0, 1), 1.0, "degree"), ((1, 0, 0), math.inf, "non-finite")])
    def test_entering_entries_checked(self, idx, val, match):
        # entries enter through the constructor or set; both check them
        with pytest.raises(SpecError, match=match):
            CoefficientTable(2, 1, {idx: val})
        t = CoefficientTable(2, 1, {(0, 1, 0): 2.0})
        with pytest.raises(SpecError, match=match):
            t.set(idx, val)
        assert t.entries == {(0, 1, 0): 2.0}

    def test_copy_is_independent(self):
        t = CoefficientTable(2, 1, {(1, 0, 1): 2.5, (0, 0, 0): -1.0})
        cp = t.copy()
        assert (cp.degree, cp.d, cp.entries) == (2, 1, t.entries)
        cp.set((1, 0, 1), 0.0)
        cp.set((0, 2, 0), 4.0)
        assert t.entries == {(1, 0, 1): 2.5, (0, 0, 0): -1.0}

    def test_eval_grad(self):
        # tables are evaluated through the compiled form, as the fields are
        t = CoefficientTable(3, 1, {(1, 2, 0): 2.0, (0, 0, 1): -1.0})
        C = CompiledPolyVec(3, [t.entries])
        point = np.array([[1.5, 0.5, 2.0]])
        val, grad = C.values(point)[0, 0], C.jacobians(point)[0, 0]
        assert val == pytest.approx(2.0 * 1.5 * 0.25 - 2.0)
        assert grad[0] == pytest.approx(2.0 * 0.25)
        assert grad[1] == pytest.approx(2.0 * 1.5 * 2 * 0.5)
        assert grad[2] == pytest.approx(-1.0)

    def test_tiny_entry_survives_compilation(self):
        # table entries compile as stored: nothing below polyalg.PRUNE_TOL is dropped
        spec = zero_spec(1, 0, 1, 1.0)
        spec.table("a", "+").set((1, 0, 0), 1e-17)
        C = compile_fields(spec, 1, "+")
        assert C.coef[0].tolist() == [1e-17]
        assert C.values(np.array([[2.0, 0.0, 0.0]]))[0, 0] == 2e-17


class TestSystemSpec:
    def test_mu_master_must_vanish(self):
        with pytest.raises(SpecError):
            SystemSpec(1, 1, 1, 1.0, (0.5,))

    def test_mu_slave_must_not_vanish(self):
        with pytest.raises(SpecError):
            SystemSpec(1, 0, 1, 1.0, (0.0,))

    def test_phi_range(self):
        with pytest.raises(SpecError):
            zero_spec(1, 0, 0, 0.0)
        with pytest.raises(SpecError):
            zero_spec(1, 0, 0, 7.0)

    def test_unknown_table_group_rejected(self):
        with pytest.raises(SpecError):
            SystemSpec(1, 0, 0, 1.0, (), tables={"bogus+": CoefficientTable(1, 0)})

    def test_vector_family_length(self):
        with pytest.raises(SpecError):
            SystemSpec(1, 0, 1, 1.0, (-0.5,), tables={"c+": []})

    def test_copy_is_deep(self):
        spec = zero_spec(2, 1, 1, 1.0)
        cp = spec.copy()
        cp.table("a", "+").set((1, 0, 0), 3.0)
        assert spec.table("a", "+").is_zero()

    def test_copy_shares_no_table(self):
        spec = random_spec(2, 1, 2, 1.0, 5)
        before = spec.to_json_dict()
        cp = spec.copy()
        assert cp.to_json_dict() == before
        cp.table("a", "+").set((0, 1, 0, 0), 9.0)
        cp.table("gamma", "-", 1).set((1, 0, 1, 0), 0.0)
        cp.tables["c+"][0].entries.clear()
        assert spec.to_json_dict() == before


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = 7
        spec = random_spec(2, 1, 2, math.pi / 3, rng)
        path = tmp_path / "spec.json"
        spec.save(path)
        back = SystemSpec.load(path)
        assert back.n == spec.n and back.m == spec.m and back.d == spec.d
        assert back.mu == spec.mu
        for key, val in spec.tables.items():
            other = back.tables[key]
            if isinstance(val, list):
                assert [t.entries for t in val] == [t.entries for t in other]
            else:
                assert val.entries == other.entries

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            SystemSpec.from_json_dict({"n": 1, "m": 0, "d": 0, "phi": 1.0, "mu": [],
                                       "tables": {}, "extra": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(SpecError, match="missing spec fields"):
            SystemSpec.from_json_dict({"n": 1})

    def test_unknown_table_group_rejected(self):
        with pytest.raises(SpecError, match="unknown table groups"):
            SystemSpec.from_json_dict({"n": 1, "m": 0, "d": 0, "phi": 1.0, "mu": [],
                                       "tables": {"nope_plus": {}}})

    def test_bad_exponent_key(self):
        with pytest.raises(SpecError, match="bad exponent key"):
            SystemSpec.from_json_dict({"n": 1, "m": 0, "d": 0, "phi": 1.0, "mu": [],
                                       "tables": {"a_plus": {"x,y": 1.0}}})

    def test_invalid_json_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="invalid JSON at line"):
            SystemSpec.load(path)


def test_multi_indices_counts():
    # all exponent tuples of length 3 with sum <= 2: C(2+3,3) = 10
    assert len(list(multi_indices(2, 3))) == 10
    assert all(sum(idx) <= 2 for idx in multi_indices(2, 3))


def test_random_spec_deterministic():
    a = random_spec(2, 1, 1, 1.0, 42)
    b = random_spec(2, 1, 1, 1.0, 42)
    assert a.table("a", "+").entries == b.table("a", "+").entries


def _entry_lists(spec):
    """Every table's entries as a list, in table and insertion order."""
    tabs = [t for val in spec.tables.values() for t in (val if isinstance(val, list) else [val])]
    return [list(t.entries.items()) for t in tabs]


def _scalar_draw_spec(n, m, d, phi, seed, mu=None, scale=1.0):
    """random_spec's reference: one scalar draw per entry, each set through the checks."""
    rng = np.random.default_rng(seed)
    spec = zero_spec(n, m, d, phi, mu)
    for fam in ("a", "b", "c", "alpha", "beta", "gamma"):
        for sign in ("+", "-"):
            tabs = spec.tables[fam + sign]
            for t in tabs if isinstance(tabs, list) else [tabs]:
                for idx in multi_indices(n, d + 2):
                    t.set(idx, scale * rng.uniform(-1.0, 1.0))
    return spec


@pytest.mark.parametrize("n, m, d, mu", [(1, 0, 0, None), (2, 1, 1, None), (2, 1, 2, (0.0, 0.7)),
                                         (3, 2, 3, None), (3, 0, 2, (-0.4, 1.3)), (0, 2, 2, None)])
@pytest.mark.parametrize("seed", [0, 42, 2024])
@pytest.mark.parametrize("scale", [1.0, 0.4])
def test_random_spec_is_the_scalar_draw_stream(n, m, d, mu, seed, scale):
    # one vector draw per table is the stream of one scalar draw per entry, bit for bit
    got = random_spec(n, m, d, 1.1, seed, mu=mu, scale=scale)
    ref = _scalar_draw_spec(n, m, d, 1.1, seed, mu=mu, scale=scale)
    assert got.mu == ref.mu
    assert _entry_lists(got) == _entry_lists(ref)
    assert all(type(c) is float for t in _entry_lists(got) for _, c in t)


def test_random_spec_zero_scale_is_empty():
    assert not any(_entry_lists(random_spec(2, 1, 2, 1.0, 3, scale=0.0)))


@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan])
def test_random_spec_non_finite_scale_rejected(scale):
    with pytest.raises(SpecError, match="non-finite coefficient"):
        random_spec(1, 0, 1, 1.0, 3, scale=scale)

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

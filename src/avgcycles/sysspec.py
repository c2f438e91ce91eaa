"""Perturbation-problem description: degrees, eigenvalues, coefficient tables.

A system is the linear rotation-plus-diagonal field perturbed by two
piecewise polynomial fields (first and second order in the small parameter),
each with separate coefficient tables on the two angular zones.  Tables map
exponent multi-indices (i, j, k_1, ..., k_d) of x^i y^j z^k monomials to real
coefficients.  Tables only store and validate coefficients; evaluation goes
through polyalg.CompiledPolyVec (see avgcore.compile_fields).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .trigkernel import TWO_PI

# scalar-valued families (single table) and per-tail-component families
SCALAR_FAMILIES = ("a", "b", "alpha", "beta")
VECTOR_FAMILIES = ("c", "gamma")
FIRST_ORDER = ("a", "b", "c")
SECOND_ORDER = ("alpha", "beta", "gamma")
SIGNS = ("+", "-")

_JSON_NAMES = {"+": "plus", "-": "minus"}


class SpecError(ValueError):
    """Malformed system specification."""


def multi_indices(n: int, nvars: int):
    """All nonnegative integer tuples of length nvars with sum <= n."""
    for total in range(n + 1):
        for cuts in itertools.combinations_with_replacement(range(nvars), total):
            idx = [0] * nvars
            for c in cuts:
                idx[c] += 1
            yield tuple(idx)


@dataclass
class CoefficientTable:
    """Sparse coefficients of a polynomial of degree <= n in (x, y, z_1..z_d).

    Entries are checked where they enter, by the constructor and by `set`:
    a valid index of the table's degree and a finite value, zeros dropped.
    `copy` copies the checked entries as they are.
    """

    degree: int
    d: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, val in self.entries.items():
            idx = tuple(int(e) for e in idx)
            val = self._check_entry(idx, val)
            if val != 0.0:
                clean[idx] = val
        self.entries = clean

    def _check_entry(self, idx, val) -> float:
        """The entry's value as a float, once its index and value are valid."""
        self._check_index(idx)
        val = float(val)
        if not math.isfinite(val):
            raise SpecError(f"non-finite coefficient {val} at index {idx}")
        return val

    def _check_index(self, idx):
        if len(idx) != self.d + 2:
            raise SpecError(f"index {idx} has length {len(idx)}, expected {self.d + 2}")
        if min(idx) < 0:
            raise SpecError(f"negative exponent in index {idx}")
        if sum(idx) > self.degree:
            raise SpecError(f"index {idx} exceeds table degree {self.degree}")

    def get(self, idx) -> float:
        return self.entries.get(tuple(idx), 0.0)

    def set(self, idx, val: float):
        idx = tuple(int(e) for e in idx)
        val = self._check_entry(idx, val)
        if val == 0.0:
            self.entries.pop(idx, None)
        else:
            self.entries[idx] = val

    def copy(self) -> "CoefficientTable":
        out = object.__new__(CoefficientTable)
        out.degree, out.d, out.entries = self.degree, self.d, dict(self.entries)
        return out

    def is_zero(self) -> bool:
        return not self.entries


@dataclass
class SystemSpec:
    """Full perturbation problem: degrees, switching angle, eigenvalues, tables."""

    n: int
    m: int
    d: int
    phi: float
    mu: tuple
    tables: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise SpecError(f"degree n must be >= 0, got {self.n}")
        if not (0 <= self.m <= self.d):
            raise SpecError(f"need 0 <= m <= d, got m={self.m} d={self.d}")
        if not (0.0 < self.phi <= TWO_PI + 1e-12):
            raise SpecError(f"phi must lie in (0, 2*pi], got {self.phi}")
        self.mu = tuple(float(v) for v in self.mu)
        if len(self.mu) != self.d:
            raise SpecError(f"mu has length {len(self.mu)}, expected d={self.d}")
        if not all(math.isfinite(v) for v in self.mu):
            raise SpecError(f"mu must be finite, got {self.mu}")
        if any(self.mu[k] != 0.0 for k in range(self.m)):
            raise SpecError("mu_1..mu_m must be zero")
        if any(self.mu[k] == 0.0 for k in range(self.m, self.d)):
            raise SpecError("mu_{m+1}..mu_d must be nonzero")
        full = {}
        for fam in SCALAR_FAMILIES + VECTOR_FAMILIES:
            for sign in SIGNS:
                key = fam + sign
                val = self.tables.get(key)
                if fam in SCALAR_FAMILIES:
                    if val is None:
                        val = CoefficientTable(self.n, self.d)
                    self._check_table(val, key)
                else:
                    if val is None:
                        val = [CoefficientTable(self.n, self.d) for _ in range(self.d)]
                    val = list(val)
                    if len(val) != self.d:
                        raise SpecError(f"table group {key} must have {self.d} entries")
                    for t in val:
                        self._check_table(t, key)
                full[key] = val
        unknown = set(self.tables) - set(full)
        if unknown:
            raise SpecError(f"unknown table groups: {sorted(unknown)}")
        self.tables = full

    def _check_table(self, t, key):
        if not isinstance(t, CoefficientTable):
            raise SpecError(f"table {key} is not a CoefficientTable")
        if t.degree != self.n or t.d != self.d:
            raise SpecError(f"table {key} has degree {t.degree}, d={t.d}; expected n={self.n}, d={self.d}")

    # -- accessors ---------------------------------------------------------

    def table(self, family: str, sign: str, ell: int | None = None) -> CoefficientTable:
        val = self.tables[family + sign]
        if family in VECTOR_FAMILIES:
            if ell is None:
                raise SpecError(f"family {family} needs a component index")
            return val[ell]
        return val

    def copy(self) -> "SystemSpec":
        tables = {}
        for key, val in self.tables.items():
            tables[key] = [t.copy() for t in val] if isinstance(val, list) else val.copy()
        return SystemSpec(self.n, self.m, self.d, self.phi, self.mu, tables)

    # -- JSON wire format --------------------------------------------------

    def to_json_dict(self) -> dict:
        def tab(t):
            return {",".join(map(str, idx)): c for idx, c in sorted(t.entries.items())}

        out = {"n": self.n, "m": self.m, "d": self.d, "phi": self.phi, "mu": list(self.mu), "tables": {}}
        for fam in SCALAR_FAMILIES + VECTOR_FAMILIES:
            for sign in SIGNS:
                key = f"{fam}_{_JSON_NAMES[sign]}"
                val = self.tables[fam + sign]
                if isinstance(val, list):
                    out["tables"][key] = [tab(t) for t in val]
                else:
                    out["tables"][key] = tab(val)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SystemSpec":
        required = {"n", "m", "d", "phi", "mu", "tables"}
        unknown = set(data) - required
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        missing = required - set(data)
        if missing:
            raise SpecError(f"missing spec fields: {sorted(missing)}")
        for key in ("n", "m", "d"):
            if isinstance(data[key], bool) or not isinstance(data[key], int):
                raise SpecError(f"spec field {key!r} must be an integer, got {data[key]!r}")
        n, m, d = data["n"], data["m"], data["d"]

        def untab(raw, key):
            entries = {}
            for skey, val in raw.items():
                try:
                    idx = tuple(int(tok) for tok in skey.split(","))
                except ValueError as exc:
                    raise SpecError(f"bad exponent key {skey!r} in table {key}") from exc
                entries[idx] = _json_number(val, f"table {key} entry {skey!r}")
            return CoefficientTable(n, d, entries)

        tables = {}
        raw_tables = data["tables"]
        known = set()
        for fam in SCALAR_FAMILIES + VECTOR_FAMILIES:
            for sign in SIGNS:
                jkey = f"{fam}_{_JSON_NAMES[sign]}"
                known.add(jkey)
                if jkey not in raw_tables:
                    continue
                raw = raw_tables[jkey]
                if fam in VECTOR_FAMILIES:
                    if not isinstance(raw, list):
                        raise SpecError(f"table {jkey} must be a list of {d} tables")
                    tables[fam + sign] = [untab(rt, jkey) for rt in raw]
                else:
                    tables[fam + sign] = untab(raw, jkey)
        unknown = set(raw_tables) - known
        if unknown:
            raise SpecError(f"unknown table groups: {sorted(unknown)}")
        if not isinstance(data["mu"], list):
            raise SpecError(f"spec field 'mu' must be a list, got {data['mu']!r}")
        mu = tuple(_json_number(val, f"spec field 'mu' entry {k}") for k, val in enumerate(data["mu"]))
        return cls(n, m, d, _json_number(data["phi"], "spec field 'phi'"), mu, tables)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "SystemSpec":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        return cls.from_json_dict(data)


def _json_number(val, what) -> float:
    """A JSON number as a float; a bool, string or anything else raises SpecError naming ``what``."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SpecError(f"{what} must be a number, got {val!r}")
    return float(val)


def zero_spec(n: int, m: int, d: int, phi: float, mu=None) -> SystemSpec:
    if mu is None:
        mu = [0.0] * m + [-0.5 - 0.25 * k for k in range(d - m)]
    return SystemSpec(n, m, d, phi, tuple(mu), {})


def random_spec(n: int, m: int, d: int, phi: float, rng, mu=None, scale=1.0) -> SystemSpec:
    """Dense random tables, useful for oracle cross-checks.

    Each table draws one uniform(-1, 1) vector over its indices, in table
    order (the stream of one scalar draw per entry), scaled by ``scale``.
    """
    rng = default_rng(rng)
    spec = zero_spec(n, m, d, phi, mu)
    indices = list(multi_indices(n, d + 2))  # valid by construction
    for fam in FIRST_ORDER + SECOND_ORDER:
        for sign in SIGNS:
            tabs = spec.tables[fam + sign]
            for t in tabs if isinstance(tabs, list) else [tabs]:
                vals = scale * rng.uniform(-1.0, 1.0, len(indices))
                bad = np.flatnonzero(~np.isfinite(vals))
                if bad.size:
                    raise SpecError(f"non-finite coefficient {vals[bad[0]]} at index {indices[bad[0]]}")
                t.entries = {idx: v for idx, v in zip(indices, vals.tolist()) if v != 0.0}
    return spec

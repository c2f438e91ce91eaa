"""Reproduction harness: run the generator matrix and emit count reports.

Each report row pits a constructive generator against the count formula for
its regime; expected counts are always computed from the formulas at runtime,
never stored per row.  Rows where the strict target is provably outside the
reachable coefficient span are reported as infeasible with the diagnostic
rather than crashing the matrix (the continuous-case even-degree system is
the known instance: its radial polynomial is even in r and divisible by r^2,
so at most n - 1 positive simple roots exist).  A generator that gives up
without such a proof (ConstructionError) yields a failed row, which fails
the report; so does an "unverified" row, whose requested cycle sweep failed.
"""

from __future__ import annotations

import csv
import math
import platform
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .generators import (
    ConstructionError,
    InfeasibleTargetError,
    _require_generic_angle,
    first_order_count,
    gen_cor13,
    gen_prop10,
    gen_prop12,
    gen_prop16,
    gen_prop18,
    gen_prop20,
    gen_prop21,
    second_order_lower_bound,
    second_order_upper_bound,
)
from .flowsim import DEFAULT_EPS_SWEEP, CycleError, check_eps_values, eps_sweep
from .polyalg import bezout_bound
from .rootfind import certify_count
from .trigkernel import TWO_PI

DESK_MAX_N = 3
DESK_MAX_M = 2
SUITES = ("th3", "th6", "th7")


@dataclass
class RunConfig:
    """Parameters of one reproduction run; the seed is embedded in outputs."""

    suite: str = "all"
    max_n: int = 2
    m_values: tuple = (0, 1)
    phi: float = math.pi / 3
    seed: int = 0
    verify_cycles: bool = False
    eps_values: tuple = ()

    def __post_init__(self):
        if self.suite not in SUITES + ("all",):
            raise ValueError(f"unknown suite {self.suite!r}; choose from {SUITES + ('all',)}")
        if not (1 <= self.max_n <= DESK_MAX_N):
            raise ValueError(f"max_n must be in [1, {DESK_MAX_N}], got {self.max_n}")
        self.m_values = tuple(int(m) for m in self.m_values)
        if any(m < 0 or m > DESK_MAX_M for m in self.m_values):
            raise ValueError(f"m values must be in [0, {DESK_MAX_M}], got {self.m_values}")
        if len(set(self.m_values)) != len(self.m_values):
            raise ValueError(f"m values must be distinct, got {self.m_values}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.eps_values = check_eps_values(self.eps_values)
        if "th3" in self.suites():
            _require_generic_angle(f"the th3 suite (phi = {self.phi:.10g})", self.phi)

    def suites(self):
        return SUITES if self.suite == "all" else (self.suite,)


@dataclass
class ReportRow:
    generator: str
    n: int
    m: int
    phi: float
    expected: int
    found: int
    bezout: int
    verified_cycles: int
    status: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "ok"

    def as_list(self):
        return [self.generator, self.n, self.m, f"{self.phi:.10g}", self.expected,
                self.found, self.bezout, self.verified_cycles, self.status, self.detail]


@dataclass
class Report:
    config: RunConfig
    rows: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows if row.status != "infeasible")

    @property
    def metadata(self) -> dict:
        meta = {
            "package": f"avgcycles {__version__}",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "seed": self.config.seed,
            "suite": self.config.suite,
            "max_n": self.config.max_n,
            "m_values": ",".join(map(str, self.config.m_values)),
        }
        # only the generic suite uses the configured angle; th6 and th7 rows
        # carry their own (pi, 2*pi) in the phi column
        if "th3" in self.config.suites():
            meta["th3_phi"] = f"{self.config.phi:.10g}"
        return meta

    HEADER = ["generator", "n", "m", "phi", "expected", "found", "bezout",
              "verified_cycles", "status", "detail"]

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for key, val in self.metadata.items():
                writer.writerow([f"# {key}", val])
            writer.writerow(self.HEADER)
            for row in self.rows:
                writer.writerow(row.as_list())

    def text_table(self) -> str:
        cells = [self.HEADER] + [[str(v) for v in row.as_list()] for row in self.rows]
        widths = [max(len(row[k]) for row in cells) for k in range(len(self.HEADER))]
        lines = ["  ".join(f"{key}={val}" for key, val in self.metadata.items())]
        for i, row in enumerate(cells):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        return "\n".join(lines)


def _row_from_result(name, n, m, phi, expected, result, verify, eps_values):
    if result.order == 1:
        # first-order zeros are the planted grid: count what the root search certifies
        cert = certify_count(result.system, result.box, expected)
        found, bezout = cert["found"], cert["bezout"]
    else:
        # second-order zeros are already the simple records of find_simple_zeros
        found, bezout = len(result.zeros), bezout_bound(result.system)
    verified, failure = 0, ""
    if verify and result.order == 1 and result.zeros:
        eps_values = eps_values or DEFAULT_EPS_SWEEP
        try:
            records = eps_sweep(result.spec, result.zeros[0], eps_values)
        except CycleError as exc:
            failure = f"cycle verification failed: {type(exc).__name__}: {exc}"
        else:
            verified = sum(1 for rec in records if rec.accepted)
    if found < expected:
        status, detail = "undercount", f"found {found} of {expected}"
    elif failure:
        status, detail = "unverified", failure
    else:
        status, detail = "ok", ""
    return ReportRow(name, n, m, phi, expected, found, bezout, verified, status, detail)


def _run_case(name, n, m, phi, expected, make, verify, eps_values):
    try:
        result = make()
    except InfeasibleTargetError as exc:
        return ReportRow(name, n, m, phi, expected, 0, 0, 0, "infeasible", str(exc))
    except ConstructionError as exc:
        return ReportRow(name, n, m, phi, expected, 0, 0, 0, "failed", str(exc))
    return _row_from_result(name, n, m, phi, expected, result, verify, eps_values)


def build_report(config: RunConfig) -> Report:
    """Run the generator matrix for the configured suites and collect rows."""
    report = Report(config)
    phi, seed = config.phi, config.seed
    verify, eps_values = config.verify_cycles, config.eps_values
    for suite in config.suites():
        for n in range(1, config.max_n + 1):
            for m in config.m_values:
                if suite == "th3":
                    report.rows.append(_run_case(
                        "gen_prop10", n, m, phi, first_order_count(n, m, phi),
                        lambda n=n, m=m: gen_prop10(n, m, phi), verify, eps_values))
                    report.rows.append(_run_case(
                        "gen_prop12", n, m, phi, second_order_lower_bound(n, m, phi),
                        lambda n=n, m=m: gen_prop12(n, m, phi, seed=seed), verify, eps_values))
                    if m == 1:
                        report.rows.append(_run_case(
                            "gen_cor13", n, 1, phi, (2 * n) ** 2,
                            lambda n=n: gen_cor13(n, phi, seed=seed), verify, eps_values))
                elif suite == "th6":
                    report.rows.append(_run_case(
                        "gen_prop16", n, m, math.pi, first_order_count(n, m, math.pi),
                        lambda n=n, m=m: gen_prop16(n, m), verify, eps_values))
                    report.rows.append(_run_case(
                        "gen_prop18", n, m, math.pi, second_order_lower_bound(n, m, math.pi),
                        lambda n=n, m=m: gen_prop18(n, m, seed=seed), verify, eps_values))
                elif suite == "th7":
                    report.rows.append(_run_case(
                        "gen_prop20", n, m, TWO_PI, first_order_count(n, m, TWO_PI),
                        lambda n=n, m=m: gen_prop20(n, m), verify, eps_values))
                    if m == 0:
                        report.rows.append(_run_case(
                            "gen_prop21", n, 0, TWO_PI,
                            second_order_lower_bound(n, 0, TWO_PI),
                            lambda n=n: gen_prop21(n, seed=seed), verify, eps_values))
    for row in report.rows:
        upper = second_order_upper_bound(row.n, row.m)
        if row.found > upper:
            row.status = "overcount"
            row.detail = f"found {row.found} exceeds the degree cap {upper}"
    return report

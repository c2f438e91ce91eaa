"""Workload bodies and their output checks.

Each workload takes a size ("full" or "smoke"), the seed, a scratch
directory and a Checks collector.  It calls avgcycles only through module
attributes, so that a tracer installed beforehand sees every call.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager

import numpy as np

import avgcycles.avgcore as avgcore
import avgcycles.cli as cli
import avgcycles.flowsim as flowsim
import avgcycles.generators as generators
import avgcycles.rootfind as rootfind
import avgcycles.sysspec as sysspec

TWO_PI = 2.0 * math.pi
PHI = math.pi / 3
# Second-order tuning seed (RunConfig.seed) of every workload: the CLI's
# default, as demo 04 runs it.  The tuning work depends on it: one
# reproduce_desk body took about 6.0 s at seed 4 and 7.0-7.8 s at seeds 0-3,
# 11 and 12, and gen_prop12(1, 1) stops at max_nfev (4,000 evaluations) at
# seed 103 but converges in 65 at seed 110.  Fed from the benchmark seed, it
# would add that spread to the host's across runs with other seeds.  In the
# full matrix, gen_cor13(2) also fails to tune at seed 11.
TUNING_SEED = 0
ZERO_TOL = 1e-8      # certified zeros against the planted ones
ORACLE_F1_ATOL = 1e-9
ORACLE_F2_ATOL = 1e-8


class Checks:
    """Counts output checks; an exception inside a check counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @contextmanager
    def guard(self, name, weight=1):
        """Charge the block's `weight` checks not yet made as failed if it raises."""
        before = self.attempted
        try:
            yield
        except Exception as exc:  # any error in the program is a failed check
            missed = max(1, weight - (self.attempted - before))
            self.attempted += missed
            self.failures.extend([f"{name}: {type(exc).__name__}: {exc}"] * missed)


# -- count formulas of the paper, stated independently of the package --------


def _first_order(n, m, phi):
    if abs(phi - TWO_PI) < 1e-9:
        if m == 0:
            return (n - 1) // 2 if n % 2 else (n - 2) // 2
        return n**m * (n - 1) // 2
    return n ** (m + 1)


def _second_order(n, m, phi):
    if abs(phi - math.pi) < 1e-9:
        return (2 * n - 1) ** (m + 1) if n % 2 else (2 * n - 2) * (2 * n - 1) ** m
    if abs(phi - TWO_PI) < 1e-9:
        return n if n % 2 == 0 else n - 1
    return 2 * n * (2 * n - 1) ** m


def _matrix(max_n, m_values):
    """(generator, n, m) -> expected count, for `reproduce --suite all`."""
    rows = {}
    for n in range(1, max_n + 1):
        for m in m_values:
            rows["gen_prop10", n, m] = _first_order(n, m, PHI)
            rows["gen_prop12", n, m] = _second_order(n, m, PHI)
            rows["gen_prop16", n, m] = _first_order(n, m, math.pi)
            rows["gen_prop18", n, m] = _second_order(n, m, math.pi)
            rows["gen_prop20", n, m] = _first_order(n, m, TWO_PI)
            if m == 1:
                rows["gen_cor13", n, m] = (2 * n) ** 2
            if m == 0:
                rows["gen_prop21", n, m] = _second_order(n, 0, TWO_PI)
    return rows


# -- workloads ------------------------------------------------------------------


# (max_n, m values) of each CLI call.  The matrix's n = 2, m = 1 rows are
# left out: gen_cor13(2) alone tunes for about 41 s, too long to repeat
# three times in a run.
REPRODUCE_CALLS = {"full": ((2, (0,)), (1, (1,))),
                   "smoke": ((1, (0,)), (1, (1,)))}


def reproduce_desk(size, seed, out_dir, checks):
    """The CLI reproduction matrix, as two calls, checked row by row.

    n <= 2 at m = 0 (with the full-turn even-degree parity diagnostic) and
    n = 1 at m = 1 (with gen_cor13).  The seed changes nothing here: see
    TUNING_SEED.
    """
    for k, (max_n, m_values) in enumerate(REPRODUCE_CALLS[size]):
        call_dir = os.path.join(out_dir, f"call{k}")
        argv = ["reproduce", "--suite", "all", "--max-n", str(max_n),
                "--m", ",".join(map(str, m_values)), "--phi", "pi/3",
                "--seed", str(TUNING_SEED), "--out-dir", call_dir]
        with checks.guard(f"reproduce {k}"):
            rc = cli.main(argv)
            checks.expect(f"exit status {k}", rc == 0, f"reproduce exited {rc}")
        with checks.guard(f"report.csv {k}"):
            check_report(os.path.join(call_dir, "report.csv"), max_n, m_values, checks)


def check_report(path, max_n, m_values, checks):
    """Every row ok, formula count met, at most the degree cap; one matrix check."""
    want = _matrix(max_n, m_values)
    rows = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("# ")))
    got = {(r["generator"], int(r["n"]), int(r["m"])) for r in rows}
    checks.expect("matrix", got == set(want) and len(rows) == len(want),
                  f"rows {sorted(got)} != {sorted(want)}")
    for r in rows:
        key = (r["generator"], int(r["n"]), int(r["m"]))
        if key not in want:
            continue
        n, m = key[1], key[2]
        expected, found = want[key], int(r["found"])
        name = "{}(n={}, m={})".format(*key)
        if key[0] == "gen_prop21" and n % 2 == 0:
            checks.expect(name, r["status"] == "infeasible" and "even powers" in r["detail"],
                          f"expected the parity diagnostic, got {r['status']}: {r['detail']}")
            continue
        cap = (2 * n) ** (m + 1)
        checks.expect(name, r["status"] == "ok" and int(r["expected"]) == expected
                      and expected <= found <= cap,
                      f"status {r['status']}, expected {r['expected']} (formula {expected}), "
                      f"found {found}, cap {cap}")


def _same_points(found, planted, tol=ZERO_TOL):
    if len(found) != len(planted):
        return False
    return all(any(np.max(np.abs(np.asarray(f) - np.asarray(p))) <= tol for f in found)
               for p in planted)


def certify_m2(size, seed, out_dir, checks):
    """Certify first-order m = 2 constructions on their default boxes.

    n = 1, 2 for each generator, less gen_prop20(1, 2): that system has no
    zeros, and its 11 s of failing Newton work on its own would make an
    iteration too long to repeat in a run.  The constructions are
    deterministic: the seed changes nothing here.
    """
    ns = (1, 2) if size == "full" else (1,)
    makers = (("gen_prop10", lambda n: generators.gen_prop10(n, 2, PHI)),
              ("gen_prop16", lambda n: generators.gen_prop16(n, 2)),
              ("gen_prop20", lambda n: generators.gen_prop20(n, 2)))
    for n in ns:
        for gen, make in makers:
            if (gen, n) == ("gen_prop20", 1):
                continue
            name = f"{gen}(n={n}, m=2)"
            with checks.guard(name, weight=2):
                res = make(n)
                out = rootfind.certify_count(res.system, res.box, res.expected_count)
                checks.expect(name + " certify", bool(out["pass"]),
                              f"found {out['found']} of {out['expected']}, Bezout {out['bezout']}")
                simple = [r.nu for r in out.get("records", []) if r.simple]
                checks.expect(name + " zeros", _same_points(simple, res.zeros),
                              f"{len(simple)} certified vs {len(res.zeros)} planted zeros")


def verify_cycles(size, seed, out_dir, checks):
    """Integrate the flow at every predicted cycle; cross-check the oracle.

    The seed draws the oracle's specs and sample points.
    """
    if size == "full":
        systems = (("gen_prop10", lambda: generators.gen_prop10(2, 1, PHI)),
                   ("gen_prop16", lambda: generators.gen_prop16(2, 1)),
                   ("gen_prop12", lambda: generators.gen_prop12(1, 1, PHI, seed=TUNING_SEED)))
        dims, npoints = [(2, 1, 2), (3, 2, 3)], 3
    else:
        systems = (("gen_prop10", lambda: generators.gen_prop10(1, 1, PHI)),
                   ("gen_prop16", lambda: generators.gen_prop16(1, 1)),
                   ("gen_prop12", lambda: generators.gen_prop12(1, 1, PHI, seed=TUNING_SEED)))
        dims, npoints = [(1, 1, 2)], 1
    for gen, make in systems:
        res = None
        with checks.guard(gen):
            res = make()
            checks.expect(f"{gen} zeros", len(res.zeros) == res.expected_count,
                          f"{len(res.zeros)} zeros, expected {res.expected_count}")
        if res is None:
            continue
        for k, nu in enumerate(res.zeros):
            eps_values = flowsim.DEFAULT_EPS_SWEEP
            with checks.guard(f"{gen} zero {k}", weight=len(eps_values)):
                for rec in flowsim.eps_sweep(res.spec, nu, eps_values):
                    checks.expect(f"{gen} zero {k} eps={rec.epsilon:g}", rec.accepted,
                                  f"period residual {rec.period_residual:.3e}")

    # one random spec per sample point: averaging over specs keeps the
    # adaptive quadrature's cost steadier across seeds than one spec would
    rng = np.random.default_rng(seed)
    for dim in dims:
        for _ in range(npoints):
            spec = sysspec.random_spec(*dim, PHI, rng, scale=0.4)
            nu = np.concatenate([[rng.uniform(0.4, 1.6)], rng.uniform(-0.8, 0.8, dim[1])])
            with checks.guard(f"oracle {dim}", weight=2):
                closed = np.array([p(nu) for p in avgcore.build_f1(spec)])
                err1 = np.max(np.abs(closed - avgcore.oracle_f1(spec, nu)))
                checks.expect(f"oracle f1 {dim}", err1 <= ORACLE_F1_ATOL, f"|diff| {err1:.3e}")
                ps = avgcore.project_to_kernel(spec)
                closed = np.array([p(nu) for p in avgcore.build_f2(ps, check_f1=False)]) / nu[0]
                err2 = np.max(np.abs(closed - avgcore.oracle_f2(ps, nu)))
                checks.expect(f"oracle f2 {dim}", err2 <= ORACLE_F2_ATOL, f"|diff| {err2:.3e}")


WORKLOADS = {
    "reproduce_desk": reproduce_desk,
    "certify_m2": certify_m2,
    "verify_cycles": verify_cycles,
}

"""Tests of the benchmark itself, on the smoke size of each workload.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

About two minutes on two cores: every workload runs three times in fresh
processes (untraced, traced, traced again for the repeat check).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])["env"]
    return env, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(run_bench(w, 1))[1] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    env, res = result_of(run_bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert {"nproc", "python", "numpy", "scipy", "git_sha", "blas_threads", "seed"} <= set(env)
    assert env["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, traced):
    res = traced[workload]
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_exactly_for_one_seed(workload, traced):
    again = result_of(run_bench(workload, 1))[1]
    counts = {k for k, v in traced[workload]["metrics"].items() if v["unit"] == "count"}
    assert counts
    first = {k: traced[workload]["metrics"][k]["value"] for k in counts}
    assert first == {k: again["metrics"][k]["value"] for k in counts}


def test_traced_layers_see_the_work(traced):
    m = {w: {k: v["value"] for k, v in traced[w]["metrics"].items()} for w in WORKLOADS}
    assert m["reproduce_desk"]["generators.least_squares.calls"] > 0
    assert m["reproduce_desk"]["avgcore.build_f2.calls"] > 0
    assert m["reproduce_desk"]["cli.main.s"] > 0
    assert m["certify_m2"]["rootfind.seeds"] > 0
    assert m["certify_m2"]["rootfind.newton_steps"] > 0
    assert m["certify_m2"]["polyalg.poly_eval.calls"] > 0
    assert m["verify_cycles"]["flowsim.solve_ivp.nfev"] > 0
    assert m["verify_cycles"]["avgcore.oracle.calls"] > 0
    assert m["verify_cycles"]["sysspec.table_eval.calls"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("verify_cycles", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_report_check_flags_an_undercount(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    rows = [["generator", "n", "m", "phi", "expected", "found", "bezout", "verified_cycles",
             "status", "detail"]]
    for (gen, n, m), expected in workloads._matrix(1, (0, 1)).items():
        rows.append([gen, n, m, 0, expected, expected, 0, 0, "ok", ""])
    undercount = next(r for r in rows[1:] if r[0] == "gen_prop10")
    undercount[5] = undercount[4] - 1
    (tmp_path / "report.csv").write_text("# seed,0\n" + "\n".join(",".join(map(str, r)) for r in rows))
    checks = workloads.Checks()
    workloads.check_report(str(tmp_path / "report.csv"), 1, (0, 1), checks)
    assert checks.attempted == 1 + (len(rows) - 1)   # the matrix, then one per row
    assert len(checks.failures) == 1

"""avgcycles benchmark: one workload, cold processes, one JSON result line.

    python3 bench/run.py --workload reproduce_desk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from src/).
Each iteration is a fresh single-threaded Python process with BLAS pinned to
one thread, so every iteration pays scipy's import and cold memos, as a CLI
call does.  Iterations repeat while the next one should end within
--seconds, and at least three times at full size, so that the median drops
one iteration slowed by a burst of load on the host.  --trace 0 reports the
end-to-end metrics, --trace 1 runs the same workload under the per-layer
tracer and reports the per-layer metrics instead.  The last line of
standard output is the result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("reproduce_desk", "certify_m2", "verify_cycles")
SIZES = ("full", "smoke")
SETUP_PROBES = 2        # import-only processes per run, besides the workload's own
MIN_ITERATIONS = {"full": 3, "smoke": 1}
RUN_LIMIT_S = 170.0     # a run never starts an iteration it cannot finish by then
THREAD_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The workload could not be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_PIN:
        env[var] = "1"
    # the persisted trig memo would make a run warm and read outside the checkout
    env.pop("AVGCYCLES_CACHE_DIR", None)
    return env


def spawn(args, deadline: float):
    """Run one worker process; returns (spawn time, parsed result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--scratch", str(SCRATCH), *args]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run's time limit: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return start, json.loads(lines[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, versions: dict, iterations: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_sha": git_sha(),
        "blas_threads": {var: "1" for var in THREAD_PIN},
        "seed": seed,
        "iterations": iterations,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str):
    """Run the workload; returns (result, environment record)."""
    if not (SRC / "avgcycles" / "__init__.py").is_file():
        raise BenchError(f"no avgcycles package under {SRC}: run from a source checkout")
    SCRATCH.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []
    for _ in range(SETUP_PROBES):
        start, res = spawn(["--setup-only"], deadline)
        setup.append(res["ready"] - start)
    versions = {"numpy": res["numpy"], "scipy": res["scipy"]}
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
            "--size", size]
    runs = []
    t_measure = time.monotonic()
    while True:
        start, res = spawn(args, deadline)
        setup.append(res["ready"] - start)
        runs.append(res)
        now = time.monotonic()
        # stop before an iteration that would end past the run's length,
        # once the median has enough iterations to drop an outlier
        step = now - start
        if now + step > deadline:
            break
        if now + step - t_measure > seconds and len(runs) >= MIN_ITERATIONS[size]:
            break
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for failure in failures:
        print("check failed:", failure, file=sys.stderr)
    if trace:
        metrics = {name: {"value": statistics.median(r["layers"][name][0] for r in runs),
                          "unit": unit}
                   for name, (_, unit) in runs[0]["layers"].items()}
        metrics["fail_ratio"] = {"value": len(failures) / max(attempted, 1), "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in runs), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in runs), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
        }
    result = {"correct": not failures and attempted > 0, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, environment(seed, versions, len(runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: n = 1 only, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result, env = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": env, "workload": args.workload, "size": args.size,
                      "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One cold run of one workload in a fresh process; prints one JSON line.

Started by run.py, which puts src/ on PYTHONPATH and pins BLAS to one
thread.  The worker reports the monotonic clock at the moment the package
is imported; run.py subtracts its own reading from just before the spawn to
get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import avgcycles  # noqa: F401  (the package and scipy, as a CLI call pays them)
    import avgcycles.cli  # noqa: F401
    ready = time.monotonic()
    if args.setup_only:
        import numpy
        import scipy
        print(json.dumps({"ready": ready, "numpy": numpy.__version__, "scipy": scipy.__version__}))
        return 0

    import tracer
    import workloads

    tr = None
    if args.trace:
        tr = tracer.Tracer("avgcycles")
        tr.install()
    checks = workloads.Checks()
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        t0 = time.perf_counter()
        workloads.WORKLOADS[args.workload](args.size, args.seed, out_dir, checks)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }
    if tr is not None:
        layers = tracer.layer_metrics(tr)
        layers["trace.wall_s"] = (wall, "s")
        result["layers"] = layers
        tr.dump_spans(os.path.join(args.scratch, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

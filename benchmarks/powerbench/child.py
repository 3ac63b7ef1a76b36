"""One cold powerbench measurement in a fresh interpreter.

``run.py`` starts this script once per measurement, so every cache the
program keeps starts cold, as it does for a command-line user.  The
script sets up one workload from its input seed, times the workload's
timed phase, checks the outcome and prints one JSON record on its last
line of standard output.  With ``--trace PATH`` the timed phase runs
under the per-layer probe and its spans are written to PATH as JSON
Lines (``powerlens trace PATH`` renders them).

Usage: child.py WORKLOAD SEED [--trace PATH]
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread, set before numpy is imported.  The benchmark measures
# one single-threaded process; unpinned, prototype fit timings on a
# 2-core host spread from 8.3 to 12.1 s, pinned they held at 7.6-8.5 s.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource

import numpy

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", metavar="PATH", default=None)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - T_START
    probe = None
    t0 = time.perf_counter()
    if args.trace:
        from layers import Probe

        with Probe() as probe:
            result = workload.run(inputs)
    else:
        result = workload.run(inputs)
    timed_s = time.perf_counter() - t0
    outcome = workload.check(inputs, result)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "timed_s": timed_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "gates": outcome.gates,
        "sim": outcome.sim,
        "digest": outcome.digest,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "blas_threads": {v: os.environ[v]
                                  for v in BLAS_THREAD_VARS}},
    }
    if probe is not None:
        record["layers"] = probe.raw()
        probe.tracer.export_jsonl(args.trace)
    print(json.dumps(record))


if __name__ == "__main__":
    main()

"""powerbench: the repository benchmark.

Run from the repository root::

    python3 benchmarks/powerbench/run.py --workload fit.tx2 --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``fit.tx2``, ``flow.tx2``, ``serve.steady``, ``serve.faulty``
(see README.md).  Every measurement runs in a fresh interpreter
(``child.py``), one at a time, with one BLAS thread.  A run with seed S
measures the inputs of seeds ``S*K .. S*K+K-1`` (K per workload, below)
as one round, and repeats whole rounds while another one fits in
``--seconds``.

``--trace 0`` prints the end-to-end metrics: the median set-up time and
peak RSS over all measurements, and the median over rounds of the
round's work items per host second.  ``--trace 1`` measures the round's
first input twice, untraced and traced, and prints the per-layer metrics
of the traced run, whose spans are written to ``traces/`` beside this
script as JSON Lines.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones ``BENCHMARK.json`` declares.  The exit code is 0
only when every correctness gate of every measurement held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TRACE_DIR = HERE / "traces"
CHILD_TIMEOUT_S = 150

#: Input seeds per round.  Fit time swings with the corpus (training
#: stops early after a seed-dependent number of epochs) and bursty
#: serving with the burst pattern, so their rounds pool several inputs.
INPUTS_PER_ROUND = {"fit.tx2": 12, "flow.tx2": 1, "serve.steady": 1,
                    "serve.faulty": 2}


class MeasurementFailed(RuntimeError):
    pass


def measure(workload: str, seed: int,
            trace_path: Optional[Path] = None) -> Dict:
    """Run one cold measurement and return its JSON record."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise MeasurementFailed(
            f"{workload} seed {seed}: measurement exited with code "
            f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload: str, seeds: List[int],
               seconds: float) -> tuple:
    rounds: List[List[Dict]] = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rounds.append([measure(workload, seed) for seed in seeds])
        now = time.perf_counter()
        if (now - start) + (now - t_round) > seconds:
            break
    records = [r for rnd in rounds for r in rnd]
    for first in rounds[0]:
        digests = {r["digest"] for r in records if r["seed"] == first["seed"]}
        print(f"seed {first['seed']}: {json.dumps(first['sim'])}; output "
              f"{'repeats' if len(digests) == 1 else 'DIFFERS'} over "
              f"{len(rounds)} round(s) ({first['digest'][:16]})")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "items_per_s": statistics.median(
            sum(r["items"] for r in rnd) / sum(r["timed_s"] for r in rnd)
            for rnd in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                         for r in records),
    }
    return records, values


def per_layer(workload: str, seed: int) -> tuple:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import layer_metrics

    TRACE_DIR.mkdir(exist_ok=True)
    plain = measure(workload, seed)
    path = TRACE_DIR / f"{workload}.seed{seed}.jsonl"
    traced = measure(workload, seed, path)
    print(f"seed {seed}: trace written to {path.relative_to(ROOT)}")
    same = "identical" if plain["digest"] == traced["digest"] \
        else "DIFFERENT"
    print(f"seed {seed}: traced output {same} to untraced")
    for key, value in plain["sim"].items():
        print(f"  {key}: untraced {value!r}  traced {traced['sim'][key]!r}")
    raw = traced["layers"]
    values = layer_metrics(raw, traced["timed_s"] / plain["timed_s"])
    own = sum(raw["self_s"].values()) + raw["unattributed_s"]
    print(f"self times + unattributed = {own:.6f} s of "
          f"{raw['root_s']:.6f} s traced wall time")
    return [plain, traced], values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="powerbench: the repository benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(INPUTS_PER_ROUND))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; holdout 2)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("powerbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    k = INPUTS_PER_ROUND[args.workload]
    seeds = [args.seed * k + i for i in range(k)]
    try:
        if args.trace:
            records, values = per_layer(args.workload, seeds[0])
        else:
            records, values = end_to_end(args.workload, seeds, seconds)
    except (MeasurementFailed, subprocess.TimeoutExpired) as exc:
        print(f"powerbench: {exc}", file=sys.stderr)
        return 1

    print(f"host: {json.dumps(records[0]['host'], sort_keys=True)}")
    failed_gates = sorted({f"seed {r['seed']}: {name}" for r in records
                           for name, ok in r["gates"].items() if not ok})
    for gate in failed_gates:
        print(f"GATE FAILED {gate}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not failed_gates,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0 if not failed_gates else 1


if __name__ == "__main__":
    sys.exit(main())

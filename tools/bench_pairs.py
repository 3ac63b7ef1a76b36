"""Compare the working tree against a parent revision on one powerbench
workload, in alternating pairs.

Usage, from anywhere inside the repository::

    python3 tools/bench_pairs.py --workload flow.tx2 [--parent HEAD]
        [--pairs 10] [--seed 2] [--seconds 25]

The parent revision is checked out into a temporary ``git worktree``
(removed afterwards); the change side is the working tree as it stands,
uncommitted edits included.  Each pair runs the benchmark command that
``BENCHMARK.json`` declares once on each side, alternating which side
runs first.  For every end-to-end metric the report gives each side's
median and quartiles, how many pairs the change won, and the verdict
against the metric's ``BENCHMARK.json`` bound:

* ``worse``      the change's median is worse than the parent's by more
                 than the bound (a relative fraction);
* ``unresolved`` either side's quartile spread is wider than the bound;
* ``ok``         otherwise.

It then says whether both sides printed the same output digests, and
how contended the host was: each side's min and median share of a run's
wall seconds that its processes spent on a CPU (a share well below 1
means other load took the CPU), and the 1-minute load average at the
start of each pair.  The contention lines are a report only; they
change no verdict.  The exit code is 0 when no metric is ``worse``,
every run passed its correctness gates and the digests match.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The per-seed line ``run.py`` prints, ending in the digest prefix.
DIGEST_LINE = re.compile(r"^seed (\d+): .*\(([0-9a-f]+)\)$")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(metric: Dict, parent: Sequence[float],
              change: Sequence[float]) -> Dict:
    """Medians, quartiles, pair wins and verdict of one metric over
    pairs ``zip(parent, change)``."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_q = quartiles(parent)
    c_q = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    delta = (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else 0.0
    worse_by = delta if lower else -delta
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                 for q in (p_q, c_q))
    if worse_by > bound:
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"name": metric["name"], "unit": metric["unit"],
            "parent": p_q, "change": c_q, "wins": wins,
            "pairs": len(parent), "delta": delta, "verdict": verdict}


def cpu_shares(runs: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """(min, median) of ``cpu_s / wall_s`` over ``runs`` of
    ``(cpu_s, wall_s)``."""
    shares = [cpu / wall for cpu, wall in runs]
    return min(shares), statistics.median(shares)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: Path, command: List[str], workload: str, seed: int,
             seconds: float
             ) -> Tuple[Dict, Dict[str, str], Tuple[float, float]]:
    """One benchmark run in ``checkout``: (its JSON record, seed ->
    digest prefix, (CPU seconds of its processes, wall seconds))."""
    cpu_before = _children_cpu_s()
    start = time.perf_counter()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    cpu = _children_cpu_s() - cpu_before
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"benchmark in {checkout} printed nothing "
                           f"(exit {proc.returncode})")
    digests = {m.group(1): m.group(2)
               for m in map(DIGEST_LINE.match, lines) if m}
    return json.loads(lines[-1]), digests, (cpu, wall)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2,
                        help="workload seed (default 2, the holdout)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="budget per run (default: BENCHMARK.json "
                             "run_seconds)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], stdout=subprocess.PIPE,
        text=True, check=True).stdout.strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    command = [sys.executable, *spec["command"][1:]]

    records: Dict[str, List[Dict]] = {"parent": [], "change": []}
    digests: Dict[str, Dict[str, set]] = {"parent": {}, "change": {}}
    times: Dict[str, List[Tuple[float, float]]] = {"parent": [],
                                                   "change": []}
    loads: List[float] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(root), "worktree", "add",
                        "--detach", "--quiet", str(parent_dir),
                        args.parent], check=True)
        try:
            sides = {"parent": parent_dir, "change": root}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                loads.append(os.getloadavg()[0])
                for side in order:
                    record, seen, cpu_wall = run_once(
                        sides[side], command, args.workload, args.seed,
                        seconds)
                    records[side].append(record)
                    times[side].append(cpu_wall)
                    for seed, digest in seen.items():
                        digests[side].setdefault(seed, set()).add(digest)
                print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)",
                      file=sys.stderr)
        finally:
            subprocess.run(["git", "-C", str(root), "worktree", "remove",
                            "--force", str(parent_dir)], check=False)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{seconds:g} s per run, parent {args.parent}")
    print(f"{'metric':<14}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'delta':>9}{'wins':>7}  verdict")
    worse = False
    for metric in spec["end_to_end"]:
        values = {side: [r["metrics"][metric["name"]]["value"]
                         for r in records[side]] for side in records}
        row = summarize(metric, values["parent"], values["change"])
        worse |= row["verdict"] == "worse"
        cells = ["/".join(f"{v:.4g}" for v in row[side])
                 for side in ("parent", "change")]
        print(f"{row['name']:<14}{cells[0]:>30}{cells[1]:>30}"
              f"{row['delta']:>+9.1%}{row['wins']:>4}/{row['pairs']:<2}  "
              f"{row['verdict']} (bound {metric['bound']:.0%}, "
              f"{metric['better']} is better)")
    correct = all(r["correct"] for side in records for r in records[side])
    same = digests["parent"] == digests["change"] and all(
        len(d) == 1 for side in digests for d in digests[side].values())
    print(f"correctness gates: {'all held' if correct else 'FAILED'}")
    print(f"output digests: {'identical' if same else 'DIFFER'}")
    if not same:
        for side in ("parent", "change"):
            print(f"  {side}: {sorted(digests[side].items())}")
    for side in ("parent", "change"):
        low, mid = cpu_shares(times[side])
        print(f"{side} cpu/wall share: min {low:.2f}, median {mid:.2f}")
    print("1-min load average at each pair start: "
          + " ".join(f"{load:.2f}" for load in loads))
    return 0 if correct and same and not worse else 1


if __name__ == "__main__":
    sys.exit(main())

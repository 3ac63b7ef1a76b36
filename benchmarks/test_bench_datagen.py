"""Benchmark: dataset-generation scaling and the labeling fast path.

The offline scheme-sweep labeling is the cost the paper's "automated
generation of datasets" pays per platform (8 000 networks / 31 242
blocks).  Two levers attack it:

* ``DatasetGenerator.generate(n_jobs=N)`` fans networks out over N
  worker processes with byte-identical output (PR 1);
* the vectorized labeling fast path (ProfileTable + memoized scheme
  sweep) shrinks the per-network unit of work itself, measured here
  against the ``label_network_reference`` loop oracle
  (``tests/oracles.py``).

The simulated output of the scaling corpus (its block count) is a
golden, ``tests/goldens/datagen_scaling.json`` (``--update-goldens``
rewrites it); the benches keep their wall-clock floors.  Powerbench's
``fit.tx2`` workload measures the whole offline pipeline with its
per-stage split (``benchmarks/powerbench``).

Scale knobs:

* ``POWERLENS_BENCH_DATAGEN_JOBS``     — pool width (default 4).
* ``POWERLENS_BENCH_LABEL_NETWORKS``   — fast-path comparison corpus
  (default 24; the reference path re-walks every op per scheme, so keep
  it modest).
* ``POWERLENS_BENCH_DISTANCE_NETWORKS`` — distance-stage comparison
  corpus (default 16).
"""

import os
import time

import numpy as np
import pytest

from repro.core.clustering import (
    FactoredDistance,
    blocks_from_distance,
    smoothed_power_distance,
)
from repro.core.datasets import DatasetGenerator
from repro.core.features import DepthwiseFeatureExtractor
from repro.core.labeling import label_network
from repro.core.schemes import default_scheme_grid
from repro.hw import jetson_tx2
from repro.hw.analytic import AnalyticEvaluator
from repro.models.random_gen import RandomDNNConfig, RandomDNNGenerator

from tests.conftest import check_golden
from tests.oracles import label_network_reference

pytestmark = pytest.mark.perf

#: Corpus size of the scaling bench (its golden is defined at it).
DATAGEN_NETWORKS = 100
DATAGEN_JOBS = int(os.environ.get("POWERLENS_BENCH_DATAGEN_JOBS", "4"))
LABEL_NETWORKS = int(
    os.environ.get("POWERLENS_BENCH_LABEL_NETWORKS", "24"))
DISTANCE_NETWORKS = int(
    os.environ.get("POWERLENS_BENCH_DISTANCE_NETWORKS", "16"))


@pytest.mark.benchmark(group="datagen")
def test_datagen_scaling(benchmark, update_goldens):
    """1 vs N workers on one corpus: identical datasets, recorded
    throughput, and >= 1.5x speedup at 4 workers where the CPUs exist."""
    serial = DatasetGenerator(jetson_tx2())
    pooled = DatasetGenerator(jetson_tx2())

    a1, b1, s1 = serial.generate(DATAGEN_NETWORKS, seed=0, n_jobs=1)
    a2, b2, s2 = benchmark.pedantic(
        lambda: pooled.generate(DATAGEN_NETWORKS, seed=0,
                                n_jobs=DATAGEN_JOBS),
        rounds=1, iterations=1)

    speedup = s1.wall_time_s / s2.wall_time_s
    print()
    print(f"dataset generation, {DATAGEN_NETWORKS} networks "
          f"({s1.n_blocks} blocks):")
    print(f"  n_jobs=1:  {s1.wall_time_s:6.1f}s  "
          f"{s1.networks_per_s:6.2f} networks/s  "
          f"{s1.blocks_per_s:7.2f} blocks/s")
    print(f"  n_jobs={s2.n_jobs}:  {s2.wall_time_s:6.1f}s  "
          f"{s2.networks_per_s:6.2f} networks/s  "
          f"{s2.blocks_per_s:7.2f} blocks/s")
    print(f"  speedup: {speedup:.2f}x  "
          f"(host CPUs: {os.cpu_count()})")

    check_golden("datagen_scaling", {"n_blocks": s1.n_blocks},
                 update_goldens)

    # The parallel path must be provably equivalent at benchmark scale.
    assert a1.x_struct.tobytes() == a2.x_struct.tobytes()
    assert a1.x_stats.tobytes() == a2.x_stats.tobytes()
    assert np.array_equal(a1.y, a2.y)
    assert a1.qualities.tobytes() == a2.qualities.tobytes()
    assert b1.x.tobytes() == b2.x.tobytes()
    assert np.array_equal(b1.y, b2.y)
    assert s1.blocks_per_network == s2.blocks_per_network

    # Scaling only materializes with real cores under the pool.
    if (os.cpu_count() or 1) >= DATAGEN_JOBS:
        assert speedup >= 1.5, (
            f"expected >= 1.5x at {DATAGEN_JOBS} workers, "
            f"got {speedup:.2f}x")
    else:
        print(f"  (speedup assertion skipped: "
              f"{os.cpu_count()} CPU(s) < {DATAGEN_JOBS} workers)")


@pytest.mark.benchmark(group="datagen")
def test_labeling_fastpath_speedup(benchmark):
    """Vectorized per-network labeling vs the retained pre-optimization
    loops: byte-identical NetworkLabels and >= 5x at n_jobs=1."""
    platform = jetson_tx2()
    grid = default_scheme_grid()
    extractor = DepthwiseFeatureExtractor()
    networks = []
    for seed in range(LABEL_NETWORKS):
        graph = RandomDNNGenerator(seed=seed).generate()
        networks.append((graph, extractor.extract_scaled(graph)))

    ref_evaluator = AnalyticEvaluator(platform)
    t0 = time.perf_counter()
    reference = [label_network_reference(ref_evaluator, g, x, grid)
                 for g, x in networks]
    ref_s = time.perf_counter() - t0

    fast_evaluator = AnalyticEvaluator(platform)

    def run_fast():
        return [label_network(fast_evaluator, g, x, grid)
                for g, x in networks]

    fast = benchmark.pedantic(run_fast, rounds=1, iterations=1)
    fast_s = benchmark.stats.stats.mean

    # Byte-identity at benchmark scale (NetworkLabels compares by
    # content; stage telemetry is excluded from equality).
    assert fast == reference
    for lab, ref in zip(fast, reference):
        assert np.asarray(lab.qualities).tobytes() == \
            np.asarray(ref.qualities).tobytes()

    speedup = ref_s / fast_s
    stage_totals: dict = {}
    for lab in fast:
        for name, seconds in (lab.stage_seconds or {}).items():
            stage_totals[name] = stage_totals.get(name, 0.0) + seconds
    print()
    print(f"labeling fast path, {LABEL_NETWORKS} networks, "
          f"{len(grid)} schemes:")
    print(f"  reference: {ref_s:6.2f}s  "
          f"{LABEL_NETWORKS / ref_s:6.2f} networks/s")
    print(f"  fast:      {fast_s:6.2f}s  "
          f"{LABEL_NETWORKS / fast_s:6.2f} networks/s")
    print(f"  stages: " + ", ".join(
        f"{k} {v:.2f}s" for k, v in sorted(stage_totals.items())))
    print(f"  speedup: {speedup:.1f}x")

    assert speedup >= 5.0, (
        f"labeling fast path regressed: {speedup:.1f}x < 5x")

@pytest.mark.benchmark(group="datagen")
def test_distance_fastpath_speedup(benchmark):
    """Factorized blended-distance stage vs the dense reference
    (``smoothed_power_distance`` + ``blocks_from_distance``): identical
    power blocks and >= 3x over the scheme grid's windows."""
    grid = default_scheme_grid()
    windows = sorted({max(2, s.min_pts) for s in grid})
    extractor = DepthwiseFeatureExtractor()
    # The stage's cost is quadratic in network depth, so the deep end of
    # the corpus dominates its wall time — benchmark there (RegNet-scale
    # residual towers, ~120-400 ops) rather than on the mean-size net.
    config = RandomDNNConfig(min_stages=3, max_stages=6,
                             min_blocks_per_stage=4,
                             max_blocks_per_stage=10)
    corpus = []
    for seed in range(DISTANCE_NETWORKS):
        graph = RandomDNNGenerator(config, seed=seed).generate()
        corpus.append(extractor.extract_scaled(graph))

    alpha, lam = 0.6, 0.05

    def run_reference():
        out = []
        for x in corpus:
            for window in windows:
                d = smoothed_power_distance(x, window, alpha=alpha,
                                            lam=lam)
                for scheme in grid:
                    if max(2, scheme.min_pts) != window:
                        continue
                    out.append(blocks_from_distance(d, scheme.eps,
                                                    scheme.min_pts))
        return out

    t0 = time.perf_counter()
    reference = run_reference()
    ref_s = time.perf_counter() - t0

    def run_fast():
        out = []
        for x in corpus:
            for window in windows:
                oracle = FactoredDistance(x, window, alpha=alpha,
                                          lam=lam)
                for scheme in grid:
                    if max(2, scheme.min_pts) != window:
                        continue
                    out.append(oracle.blocks(scheme.eps,
                                             scheme.min_pts))
        return out

    fast = benchmark.pedantic(run_fast, rounds=1, iterations=1)
    fast_s = benchmark.stats.stats.mean

    # The factorized oracle must reproduce the reference blocks exactly.
    assert fast == reference

    speedup = ref_s / fast_s
    print()
    print(f"distance stage, {DISTANCE_NETWORKS} networks, "
          f"{len(grid)} schemes over windows {windows}:")
    print(f"  reference: {ref_s:6.2f}s")
    print(f"  fast:      {fast_s:6.2f}s")
    print(f"  speedup: {speedup:.2f}x")

    assert speedup >= 3.0, (
        f"distance fast path regressed: {speedup:.2f}x < 3x")

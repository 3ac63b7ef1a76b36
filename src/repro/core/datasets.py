"""The dataset generator (section 2.2, Figure 2 right half).

A :class:`DatasetGenerator` drives the random DNN generator, clusters
every network under the whole scheme grid, sweeps every block of the
winning view over all frequency levels, and emits:

* **Dataset A** — (structural features, statistics features) of each
  network -> index of its best clustering scheme;
* **Dataset B** — global features of each block of the winning view ->
  its optimal frequency level.

The paper generates 8 000 networks / 31 242 blocks.  Reaching that
scale is a matter of throwing cores at it: ``generate(..., n_jobs=N)``
fans the per-network work (scheme-grid clustering sweep + per-block
frequency labeling — each network is independent of every other) out
over a process pool.  Per-network seeds come from a spawned
:class:`numpy.random.SeedSequence` stream and results are reassembled
in submission order, so the output is **byte-identical for any
``n_jobs``** — the serial path is literally the same per-network
function executed in-process.  Both datasets serialize to ``.npz``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.features import (
    DepthwiseFeatureExtractor,
    GlobalFeatureExtractor,
)
from repro.core.labeling import label_network
from repro.core.schemes import ClusteringScheme, default_scheme_grid
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.faults import (
    FaultProfile,
    TransientWorkerError,
    worker_fault,
)
from repro.hw.platform import PlatformSpec
from repro.models.random_gen import (
    RandomDNNConfig,
    RandomDNNGenerator,
    spawn_seeds,
)
from repro.obs import NULL_OBS, Observability


@dataclass
class DatasetA:
    """Network global features -> best clustering scheme index.

    ``qualities`` keeps every scheme's measured quality per network so
    evaluation can count *scheme-equivalent* predictions (a predicted
    scheme whose view is within noise of the labeled one) — the fair
    accuracy measure when several schemes tie on a network.
    """

    x_struct: np.ndarray
    x_stats: np.ndarray
    y: np.ndarray
    n_schemes: int
    qualities: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.y)

    def save(self, path: Union[str, Path]) -> None:
        payload = dict(x_struct=self.x_struct, x_stats=self.x_stats,
                       y=self.y, n_schemes=self.n_schemes)
        if self.qualities is not None:
            payload["qualities"] = self.qualities
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DatasetA":
        with np.load(path) as data:
            qualities = data["qualities"] if "qualities" in data else None
            return cls(x_struct=data["x_struct"], x_stats=data["x_stats"],
                       y=data["y"], n_schemes=int(data["n_schemes"]),
                       qualities=qualities)


@dataclass
class DatasetB:
    """Block global features -> optimal frequency level."""

    x: np.ndarray
    y: np.ndarray
    n_levels: int

    def __len__(self) -> int:
        return len(self.y)

    def save(self, path: Union[str, Path]) -> None:
        np.savez_compressed(path, x=self.x, y=self.y,
                            n_levels=self.n_levels)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DatasetB":
        with np.load(path) as data:
            return cls(x=data["x"], y=data["y"],
                       n_levels=int(data["n_levels"]))


@dataclass
class GenerationStats:
    """Bookkeeping from one generation run.

    ``n_networks`` counts networks that made it into the datasets;
    ``quarantined`` lists submission indices whose labeling kept failing
    after ``n_retries``-counted bounded retries and were dropped rather
    than aborting the run.

    ``stage_seconds`` is the summed per-network labeling breakdown
    (``distance`` / ``cluster`` / ``evaluate`` wall time across all
    surviving networks and workers) — CPU time, so it can exceed
    ``wall_time_s`` under a process pool.  A pooled run sums ``n_jobs``
    workers' clocks, so comparing the raw sum against a serial run reads
    as a regression when nothing slowed down;
    :attr:`stage_seconds_per_worker` divides by ``n_jobs`` to give the
    wall-clock-comparable view.  Reports should label which of the two
    they print.
    """

    n_networks: int = 0
    n_blocks: int = 0
    wall_time_s: float = 0.0
    blocks_per_network: List[int] = field(default_factory=list)
    n_jobs: int = 1
    cache_hit: bool = False
    n_retries: int = 0
    quarantined: List[int] = field(default_factory=list)
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    @property
    def networks_per_s(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_networks / self.wall_time_s

    @property
    def blocks_per_s(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_blocks / self.wall_time_s

    @property
    def stage_seconds_per_worker(self) -> Dict[str, float]:
        """Per-worker-normalized stage breakdown (CPU-s / ``n_jobs``).

        With ``n_jobs=1`` this equals :attr:`stage_seconds`; under a
        pool it is the average per-worker clock — the number to compare
        across runs with different worker counts.
        """
        workers = max(1, self.n_jobs)
        return {name: seconds / workers
                for name, seconds in self.stage_seconds.items()}

    def stage_lines(self) -> List[str]:
        """The labeling-stage report: the summed breakdown, plus the
        per-worker average under a pool.  Stages print in pipeline order
        (distance, cluster, evaluate), any others sorted after them."""
        order = ("distance", "cluster", "evaluate")
        named = [n for n in order if n in self.stage_seconds]
        named += sorted(set(self.stage_seconds) - set(order))
        parts = ", ".join(f"{n} {self.stage_seconds[n]:.1f}s"
                          for n in named)
        lines = [f"labeling stages (CPU-s summed over {self.n_jobs} "
                 f"worker(s)): {parts}"]
        if self.n_jobs > 1:
            norm = self.stage_seconds_per_worker
            parts = ", ".join(f"{n} {norm[n]:.1f}s" for n in named)
            lines.append(f"labeling stages (per-worker average): {parts}")
        return lines


#: Bounded retries per network before quarantine (initial try + 2).
MAX_TASK_RETRIES = 2


@dataclass(frozen=True)
class _NetworkTask:
    """Self-contained description of one unit of generation work."""

    index: int
    seed: int
    attempt: int = 0

    def retry(self) -> "_NetworkTask":
        """Next attempt of this task with a fresh spawned seed, so a
        seed-correlated failure is not simply replayed."""
        seq = np.random.SeedSequence((self.seed, self.attempt + 1))
        fresh = int(seq.generate_state(1, dtype=np.uint64)[0])
        return _NetworkTask(index=self.index, seed=fresh,
                            attempt=self.attempt + 1)


@dataclass(frozen=True)
class _NetworkResult:
    """Per-network rows for both datasets, tagged with the submission
    index so reassembly order never depends on worker scheduling."""

    index: int
    x_struct: np.ndarray
    x_stats: np.ndarray
    best_scheme: int
    qualities: np.ndarray
    block_x: np.ndarray
    levels: np.ndarray
    stage_seconds: Dict[str, float] = field(default_factory=dict)


def _generate_one(gen: "DatasetGenerator", task: _NetworkTask
                  ) -> _NetworkResult:
    """Generate and label one network.  Pure function of ``(gen
    configuration, task)`` — shared by the serial and pool paths."""
    if worker_fault(gen.faults, task.index, task.attempt):
        raise TransientWorkerError(
            f"injected labeling failure: network {task.index} "
            f"attempt {task.attempt}")
    dnn = RandomDNNGenerator(gen.dnn_config, seed=task.seed,
                             start_index=task.index)
    graph = dnn.generate()
    feats = gen.depthwise.extract_scaled(graph)
    global_feats = gen.global_.extract(graph)
    labels = label_network(
        gen.evaluator, graph, feats, gen.schemes,
        batch_size=gen.batch_size, latency_slack=gen.latency_slack,
        alpha=gen.alpha, lam=gen.lam, tracer=gen.obs.tracer)
    if labels.blocks:
        block_x = np.vstack([gen.global_.extract(graph, block).vector
                             for block in labels.blocks])
    else:  # degenerate view: no rows for Dataset B
        block_x = np.empty((0, global_feats.vector.shape[0]))
    return _NetworkResult(
        index=task.index,
        x_struct=global_feats.structural,
        x_stats=global_feats.statistics,
        best_scheme=labels.best_scheme,
        qualities=np.asarray(labels.qualities, dtype=float),
        block_x=block_x,
        levels=np.asarray(labels.levels, dtype=int),
        stage_seconds=dict(labels.stage_seconds or {}),
    )


# Per-process generator, built once by the pool initializer so each task
# submission only ships a (index, seed) pair, not the whole platform.
_WORKER_GENERATOR: Optional["DatasetGenerator"] = None


def _init_worker(platform: PlatformSpec,
                 schemes: Sequence[ClusteringScheme], batch_size: int,
                 latency_slack: float, alpha: float, lam: float,
                 dnn_config: RandomDNNConfig,
                 faults: Optional[FaultProfile]) -> None:
    global _WORKER_GENERATOR
    _WORKER_GENERATOR = DatasetGenerator(
        platform, schemes=schemes, batch_size=batch_size,
        latency_slack=latency_slack, alpha=alpha, lam=lam,
        dnn_config=dnn_config, faults=faults)


def _pool_worker(task: _NetworkTask) -> _NetworkResult:
    assert _WORKER_GENERATOR is not None, "pool initializer did not run"
    return _generate_one(_WORKER_GENERATOR, task)


class DatasetGenerator:
    """Produces Datasets A and B for one platform."""

    def __init__(self, platform: PlatformSpec,
                 schemes: Optional[Sequence[ClusteringScheme]] = None,
                 batch_size: int = 16, latency_slack: float = 0.25,
                 alpha: float = 0.6, lam: float = 0.05,
                 dnn_config: Optional[RandomDNNConfig] = None,
                 faults: Optional[FaultProfile] = None,
                 obs: Optional[Observability] = None) -> None:
        self.platform = platform
        self.schemes = list(schemes) if schemes else default_scheme_grid()
        self.batch_size = batch_size
        self.latency_slack = latency_slack
        self.alpha = alpha
        self.lam = lam
        self.dnn_config = dnn_config or RandomDNNConfig()
        self.faults = faults
        # Observe-only: spans/counters never influence the datasets.
        # Worker processes get a fresh generator without obs (the pool
        # initializer does not forward it), so traces cover the serial
        # path and counters are accumulated coordinator-side.
        self.obs = obs if obs is not None else NULL_OBS
        self.evaluator = AnalyticEvaluator(platform)
        self.depthwise = DepthwiseFeatureExtractor()
        self.global_ = GlobalFeatureExtractor()

    # ------------------------------------------------------------------
    def generate(self, n_networks: int, seed: int = 0,
                 n_jobs: Optional[int] = 1
                 ) -> Tuple[DatasetA, DatasetB, GenerationStats]:
        """Generate both datasets from ``n_networks`` random networks.

        ``n_jobs`` is the worker-process count: ``1`` runs in-process,
        ``None`` (or any value < 1) means one worker per CPU.  Every
        network draws its seed from the same spawned
        :class:`~numpy.random.SeedSequence` stream and results are
        reassembled in submission order, so the datasets are identical
        regardless of ``n_jobs``.

        A network whose labeling raises is retried up to
        :data:`MAX_TASK_RETRIES` times with a fresh spawned seed; one
        that keeps failing is *quarantined* — dropped from the datasets
        and reported in :class:`GenerationStats` — instead of aborting
        the whole run.  Retry decisions are deterministic per task, so
        faults change neither the reassembly order nor the datasets'
        independence from ``n_jobs``.
        """
        if n_networks < 1:
            raise ValueError("need at least one network")
        if n_jobs is None or n_jobs < 1:
            n_jobs = os.cpu_count() or 1
        n_jobs = min(int(n_jobs), n_networks)
        with self.obs.tracer.span("generate", n_networks=n_networks,
                                  n_jobs=n_jobs) as span:
            dataset_a, dataset_b, stats = self._generate(
                n_networks, seed, n_jobs)
            span.set(n_blocks=stats.n_blocks,
                     n_quarantined=stats.n_quarantined)
        metrics = self.obs.metrics
        metrics.counter("powerlens_networks_labeled_total").inc(
            stats.n_networks)
        metrics.counter("powerlens_blocks_labeled_total").inc(
            stats.n_blocks)
        metrics.counter("powerlens_labeling_retries_total").inc(
            stats.n_retries)
        metrics.counter("powerlens_networks_quarantined_total").inc(
            stats.n_quarantined)
        return dataset_a, dataset_b, stats

    def _generate(self, n_networks: int, seed: int, n_jobs: int
                  ) -> Tuple[DatasetA, DatasetB, GenerationStats]:
        t0 = time.perf_counter()
        tasks = [_NetworkTask(index=i, seed=s)
                 for i, s in enumerate(spawn_seeds(seed, n_networks))]

        stats = GenerationStats(n_jobs=n_jobs)
        if n_jobs == 1:
            results: List[Optional[_NetworkResult]] = [
                self._run_with_retries(task, stats) for task in tasks]
        else:
            results = self._generate_pooled(tasks, n_jobs, stats)

        stats.quarantined.sort()
        survivors = [r for r in results if r is not None]
        if not survivors:
            raise RuntimeError(
                f"all {n_networks} networks were quarantined "
                f"({stats.n_retries} retries) — nothing to train on")
        xs_struct: List[np.ndarray] = []
        xs_stats: List[np.ndarray] = []
        ya: List[int] = []
        qual_rows: List[np.ndarray] = []
        xb: List[np.ndarray] = []
        yb: List[np.ndarray] = []
        for result in survivors:
            xs_struct.append(result.x_struct)
            xs_stats.append(result.x_stats)
            ya.append(result.best_scheme)
            qual_rows.append(result.qualities)
            xb.append(result.block_x)
            yb.append(result.levels)
            stats.blocks_per_network.append(len(result.levels))
            for name, seconds in result.stage_seconds.items():
                stats.stage_seconds[name] = (
                    stats.stage_seconds.get(name, 0.0) + seconds)

        stats.n_networks = len(survivors)
        stats.n_blocks = int(sum(len(y) for y in yb))
        stats.wall_time_s = time.perf_counter() - t0
        dataset_a = DatasetA(
            x_struct=np.vstack(xs_struct),
            x_stats=np.vstack(xs_stats),
            y=np.asarray(ya, dtype=int),
            n_schemes=len(self.schemes),
            qualities=np.vstack(qual_rows),
        )
        dataset_b = DatasetB(
            x=np.vstack(xb),
            y=np.concatenate(yb).astype(int),
            n_levels=self.platform.n_levels,
        )
        return dataset_a, dataset_b, stats

    # ------------------------------------------------------------------
    def _run_with_retries(self, task: _NetworkTask,
                          stats: GenerationStats
                          ) -> Optional[_NetworkResult]:
        """Serial path: execute one task through the retry ladder;
        ``None`` means the network was quarantined."""
        while True:
            try:
                return _generate_one(self, task)
            except Exception:
                if task.attempt >= MAX_TASK_RETRIES:
                    stats.quarantined.append(task.index)
                    return None
                stats.n_retries += 1
                task = task.retry()

    def _generate_pooled(self, tasks: Sequence[_NetworkTask], n_jobs: int,
                         stats: GenerationStats
                         ) -> List[Optional[_NetworkResult]]:
        """Fan the per-network work out over a process pool.

        Workers are primed once with the generator configuration (pool
        initializer), each submission ships only an ``(index, seed,
        attempt)`` triple, and the result slot is chosen by the task's
        submission index — worker scheduling cannot reorder the
        datasets.  A task whose worker raises is resubmitted (fresh
        seed, bounded attempts) rather than poisoning the pool; tasks
        that exhaust their retries are quarantined.
        """
        results: List[Optional[_NetworkResult]] = [None] * len(tasks)
        initargs = (self.platform, list(self.schemes), self.batch_size,
                    self.latency_slack, self.alpha, self.lam,
                    self.dnn_config, self.faults)
        with ProcessPoolExecutor(max_workers=n_jobs,
                                 initializer=_init_worker,
                                 initargs=initargs) as pool:
            pending = {pool.submit(_pool_worker, task): task
                       for task in tasks}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    task = pending.pop(future)
                    if future.exception() is not None:
                        if task.attempt >= MAX_TASK_RETRIES:
                            stats.quarantined.append(task.index)
                            continue
                        stats.n_retries += 1
                        retry = task.retry()
                        pending[pool.submit(_pool_worker, retry)] = retry
                        continue
                    result = future.result()
                    results[result.index] = result
        return results

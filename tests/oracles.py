"""Reference oracles for the byte-identity suites.

Each function is the original loop implementation of a vectorized or
memoized production path, kept verbatim as the baseline the hypothesis
suites (``tests/test_labeling_fastpath.py``,
``tests/test_distance_fastpath.py``) and the labeling benchmark compare
against byte for byte.  No production code path calls them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import (
    NOISE,
    _UNVISITED,
    _blend_distances,
    _check_dbscan_args,
    _merge_runs,
    _normalize_by_median,
    smooth_features,
)
from repro.core import labeling
from repro.core.labeling import NetworkLabels
from repro.core.schemes import ClusteringScheme
from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator, LevelProfile


# ----------------------------------------------------------------------
# analytic cost model (hw/analytic.py)
# ----------------------------------------------------------------------

def block_profile_reference(evaluator: AnalyticEvaluator, graph: Graph,
                            op_indices: Sequence[int],
                            batch_size: int = 1,
                            sparsity: float = 0.0) -> LevelProfile:
    """Per-op-loop :meth:`AnalyticEvaluator.block_profile`.

    Sparsity is applied per op, so subsetting before or after the
    rescale is the same arithmetic — the table path rescales the whole
    graph first, this path rescales the subset."""
    works = evaluator.latency.graph_work(graph)
    return evaluator.profile([works[i] for i in op_indices], batch_size,
                             sparsity)


def plan_energy_time_reference(
        evaluator: AnalyticEvaluator, graph: Graph,
        blocks: Sequence[Sequence[int]], levels: Sequence[int],
        batch_size: int = 1,
        sparsity: float = 0.0) -> Tuple[float, float]:
    """Loop :meth:`AnalyticEvaluator.plan_energy_time`."""
    if len(blocks) != len(levels):
        raise ValueError("one level per block required")
    platform = evaluator.platform
    total_e = 0.0
    total_t = 0.0
    prev_level: Optional[int] = None
    for block, level in zip(blocks, levels):
        profile = block_profile_reference(evaluator, graph, block,
                                          batch_size, sparsity)
        total_e += float(profile.energies[level])
        total_t += float(profile.times[level])
        if prev_level is not None and level != prev_level:
            stall = platform.dvfs_stall_s
            total_t += stall
            idle_p = evaluator.power.gpu_idle(
                platform.freq_of_level(level))
            total_e += (idle_p + evaluator.overhead_power) * stall
        prev_level = level
    return total_e, total_t


# ----------------------------------------------------------------------
# Algorithm 1 (core/clustering.py)
# ----------------------------------------------------------------------

def smooth_features_reference(x: np.ndarray, window: int) -> np.ndarray:
    """Per-row loop of :func:`~repro.core.clustering.smooth_features`."""
    if window <= 0:
        return x
    n = x.shape[0]
    out = np.empty_like(x)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        out[i] = x[lo:hi].mean(axis=0)
    return out


def mahalanobis_matrix_reference(x: np.ndarray) -> np.ndarray:
    """Full-einsum :func:`~repro.core.clustering.mahalanobis_matrix`."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if n == 1:
        return np.zeros((1, 1))
    cov = np.cov(x, rowvar=False)
    p = np.linalg.pinv(np.atleast_2d(cov))
    diff = x[:, None, :] - x[None, :, :]
    # d^2[i,j] = diff . P . diff
    d2 = np.einsum("ijk,kl,ijl->ij", diff, p, diff)
    d2 = np.maximum(d2, 0.0)
    d = np.sqrt(d2)
    return _normalize_by_median(d, n)


def dbscan_precomputed_reference(distance: np.ndarray, eps: float,
                                 min_pts: int) -> np.ndarray:
    """Queue-based :func:`~repro.core.clustering.dbscan_precomputed`."""
    distance = np.asarray(distance)
    _check_dbscan_args(distance, eps, min_pts)
    n = distance.shape[0]
    labels = np.full(n, _UNVISITED, dtype=int)
    neighbors = [np.flatnonzero(distance[i] <= eps) for i in range(n)]
    cluster = 0
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        if len(neighbors[i]) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = list(neighbors[i])
        while queue:
            j = queue.pop()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster
            if len(neighbors[j]) >= min_pts:
                queue.extend(neighbors[j])
        cluster += 1
    return labels


def mode_filter_reference(labels: np.ndarray, window: int) -> np.ndarray:
    """Per-point vote-dictionary ``_mode_filter``."""
    if window <= 0:
        return labels
    n = len(labels)
    current = labels
    for _pass in range(3):  # iterate to (near) fixpoint
        out = current.copy()
        for i in range(n):
            lo = max(0, i - window)
            hi = min(n, i + window + 1)
            votes: dict = {}
            for lab in current[lo:hi]:
                votes[lab] = votes.get(lab, 0) + 1
            best_lab, best_count = NOISE, 0
            for lab in sorted(votes):  # min-label tie-break, stable
                if lab == NOISE:
                    continue
                if votes[lab] > best_count:
                    best_lab, best_count = lab, votes[lab]
            out[i] = best_lab if best_count > 0 else NOISE
        if np.array_equal(out, current):
            break
        current = out
    return current


def cluster_power_blocks_reference(
        x: np.ndarray, eps: float, min_pts: int, alpha: float = 0.6,
        lam: float = 0.05, spacing_mode: str = "penalty",
        smooth_window: int = -1) -> List[List[int]]:
    """Pre-vectorization Algorithm 1 (full-einsum distance, queue
    DBSCAN, loop majority filter)."""
    if x.shape[0] == 0:
        return []
    if x.shape[0] == 1:
        return [[0]]
    if smooth_window < 0:
        smooth_window = max(2, min_pts)
    xs = smooth_features(x, smooth_window)
    distance = _blend_distances(mahalanobis_matrix_reference(xs),
                                xs.shape[0], alpha, lam, spacing_mode)
    labels = dbscan_precomputed_reference(distance, eps, min_pts)
    # process_clusters with the loop majority filter.
    min_block_size = max(1, min_pts)
    return _merge_runs(
        mode_filter_reference(labels, max(2, min_block_size)),
        min_block_size)


# ----------------------------------------------------------------------
# labeling (core/labeling.py)
# ----------------------------------------------------------------------

def plan_levels_for_blocks_reference(
        evaluator: AnalyticEvaluator, graph: Graph,
        blocks: Sequence[Sequence[int]], batch_size: int = 16,
        latency_slack: float = 0.25) -> List[int]:
    """Per-block per-op profile loops, no table."""
    return [
        evaluator.best_level(
            block_profile_reference(evaluator, graph, block, batch_size),
            latency_slack)
        for block in blocks
    ]


def scheme_quality_reference(evaluator: AnalyticEvaluator, graph: Graph,
                             blocks: Sequence[Sequence[int]],
                             batch_size: int = 16,
                             latency_slack: float = 0.25) -> float:
    """:func:`~repro.core.labeling.scheme_quality` with per-op loops
    throughout."""
    if not blocks:
        return 0.0
    levels = plan_levels_for_blocks_reference(evaluator, graph, blocks,
                                              batch_size, latency_slack)
    energy, _time = plan_energy_time_reference(
        evaluator, graph, blocks, levels, batch_size)
    if energy <= 0:
        raise ValueError(f"graph {graph.name!r}: non-positive energy")
    return 1.0 / energy


def best_scheme_for_graph_reference(
        evaluator: AnalyticEvaluator, graph: Graph, features: np.ndarray,
        schemes: Sequence[ClusteringScheme], batch_size: int = 16,
        latency_slack: float = 0.25, alpha: float = 0.6,
        lam: float = 0.05) -> Tuple[int, List[List[int]], List[float]]:
    """Every scheme runs the full pipeline from scratch, no
    memoization."""
    qualities: List[float] = []
    views: List[List[List[int]]] = []
    for scheme in schemes:
        blocks = cluster_power_blocks_reference(
            features, scheme.eps, scheme.min_pts, alpha=alpha, lam=lam)
        views.append(blocks)
        qualities.append(scheme_quality_reference(
            evaluator, graph, blocks, batch_size, latency_slack))
    top = max(qualities)
    if top <= 0:
        return 0, views[0], qualities
    candidates = [i for i, q in enumerate(qualities)
                  if q >= top * (1.0 - labeling.QUALITY_TOLERANCE)]
    best = min(candidates, key=lambda i: (-len(views[i]), i))
    return best, views[best], qualities


def label_network_reference(
        evaluator: AnalyticEvaluator, graph: Graph, features: np.ndarray,
        schemes: Sequence[ClusteringScheme], *, batch_size: int = 16,
        latency_slack: float = 0.25, alpha: float = 0.6,
        lam: float = 0.05) -> NetworkLabels:
    """Pre-optimization :func:`~repro.core.labeling.label_network`,
    including its duplicate level sweep of the winning view."""
    best_idx, blocks, qualities = best_scheme_for_graph_reference(
        evaluator, graph, features, schemes, batch_size=batch_size,
        latency_slack=latency_slack, alpha=alpha, lam=lam)
    levels = plan_levels_for_blocks_reference(
        evaluator, graph, blocks, batch_size=batch_size,
        latency_slack=latency_slack)
    return NetworkLabels(best_scheme=best_idx, blocks=blocks,
                         qualities=qualities, levels=levels)

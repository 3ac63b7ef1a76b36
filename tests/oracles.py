"""Reference oracles for the byte-identity suites.

Everything here is a reference implementation of (or the inverse of)
a production path in ``src/repro``, kept outside the shipped package as the baseline the
hypothesis suites (``tests/test_labeling_fastpath.py``,
``tests/test_distance_fastpath.py``, ``tests/test_node_table.py``) and
the labeling and distance benchmarks compare against byte for byte.
There are three kinds:

* the original loop implementations of vectorized or memoized paths
  (``*_reference``), kept verbatim;
* the dense Algorithm-1 distance chain (``mahalanobis_matrix`` through
  ``blocks_from_distance``) that ``FactoredDistance`` replaced, and the
  per-op cost loops (:func:`profile_reference`, :func:`graph_time`)
  that ``ProfileTable`` replaced and the CPU-ladder level loop
  (:func:`optimal_cpu_level_reference`) that ``LevelProfile.best_level``
  replaced, moved here with their arithmetic unchanged;
* :func:`parse_prometheus_text`, the reader that checks the
  Prometheus text exposition round-trips.

No production code path calls them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import (
    NOISE,
    _UNVISITED,
    _merge_runs,
    _spacing_of,
    dbscan,
    process_clusters,
    smooth_features,
)
from repro.core import labeling
from repro.core.features import GlobalFeatures, _log1p
from repro.core.labeling import NetworkLabels
from repro.core.schemes import ClusteringScheme
from repro.graph import Graph, node_metrics
from repro.graph.graph import Node
from repro.graph.ops import (
    CATEGORY_ORDER,
    AttentionAttrs,
    ConvAttrs,
    OpCategory,
    OpType,
)
from repro.extensions.cpu_dvfs import cpu_phase_energy
from repro.hw import analytic
from repro.hw.analytic import AnalyticEvaluator, LevelProfile
from repro.hw.perf import LatencyModel, OpWork, sparse_works
from repro.hw.platform import PlatformSpec
from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# feature extraction (core/features.py)
# ----------------------------------------------------------------------

_CAT_INDEX = {c: i for i, c in enumerate(CATEGORY_ORDER)}


def depthwise_row_reference(graph: Graph, node: Node) -> np.ndarray:
    """Per-node :meth:`DepthwiseFeatureExtractor.extract_node`, deriving
    the node's metrics and fan-out itself."""
    m = node_metrics(graph, node)
    cat_onehot = np.zeros(len(CATEGORY_ORDER))
    cat_onehot[_CAT_INDEX[node.category]] = 1.0

    in_shape = graph[node.inputs[0]].output_shape if node.inputs else ()
    out_shape = node.output_shape
    in_channels = float(in_shape[0]) if in_shape else 0.0
    out_channels = float(out_shape[0]) if out_shape else 0.0
    spatial = float(out_shape[1]) if len(out_shape) >= 2 else 0.0

    kernel_area = 0.0
    stride_product = 1.0
    groups = 1.0
    if isinstance(node.attrs, ConvAttrs):
        kernel_area = float(node.attrs.kernel[0] * node.attrs.kernel[1])
        stride_product = float(node.attrs.stride[0] * node.attrs.stride[1])
        groups = float(node.attrs.groups)
    heads = 0.0
    if isinstance(node.attrs, AttentionAttrs):
        heads = float(node.attrs.num_heads)
    is_merge = 1.0 if (node.op is OpType.ADD
                       and len(node.inputs) > 1) else 0.0
    fan_out = float(len(graph.consumers(node.name)))

    return np.array([
        _log1p(m.flops),
        _log1p(m.params),
        _log1p(m.mem_elements),
        _log1p(m.in_elements),
        _log1p(m.out_elements),
        _log1p(m.arithmetic_intensity),
        *cat_onehot,
        _log1p(in_channels),
        _log1p(out_channels),
        _log1p(spatial),
        kernel_area,
        stride_product,
        _log1p(groups),
        heads,
        is_merge,
        fan_out,
    ])


def global_features_reference(
        graph: Graph,
        op_indices: Optional[Sequence[int]] = None) -> GlobalFeatures:
    """Per-node-loop :meth:`GlobalFeatureExtractor.extract`."""
    n_categories = len(CATEGORY_ORDER)
    compute = graph.compute_nodes()
    n_total = len(compute)
    if n_total == 0:
        raise ValueError(f"graph {graph.name!r} has no compute nodes")
    if op_indices is None:
        nodes = compute
        position_frac, length_frac = 0.0, 1.0
    else:
        indices = sorted(op_indices)
        if not indices:
            raise ValueError("empty block")
        if indices[0] < 0 or indices[-1] >= n_total:
            raise IndexError("block indices out of range")
        nodes = [compute[i] for i in indices]
        position_frac = indices[0] / n_total
        length_frac = len(indices) / n_total

    n = len(nodes)
    cat_counts = np.zeros(n_categories)
    cat_flops = np.zeros(n_categories)
    flops = np.zeros(n)
    params = np.zeros(n)
    mem = np.zeros(n)
    intensity = np.zeros(n)
    n_residual = 0
    n_branch = 0
    n_merge = 0
    has_attention = 0.0
    has_dwconv = 0.0
    has_concat = 0.0
    for i, node in enumerate(nodes):
        m = node_metrics(graph, node)
        ci = _CAT_INDEX[node.category]
        cat_counts[ci] += 1
        cat_flops[ci] += m.flops
        flops[i] = m.flops
        params[i] = m.params
        mem[i] = m.mem_elements
        intensity[i] = m.arithmetic_intensity
        if node.op is OpType.ADD and len(node.inputs) > 1:
            n_residual += 1
        if len(node.inputs) > 1:
            n_merge += 1
        if len(graph.consumers(node.name)) > 1:
            n_branch += 1
        if node.category is OpCategory.ATTENTION:
            has_attention = 1.0
        if node.category is OpCategory.DWCONV:
            has_dwconv = 1.0
        if node.op is OpType.CONCAT:
            has_concat = 1.0

    total_flops = float(flops.sum())
    log_flops = np.log1p(flops)
    log_intensity = np.log1p(intensity)

    structural = np.array([
        _log1p(n),
        _log1p(graph.depth() if op_indices is None else n),
        n_branch / n,
        n_merge / n,
        n_residual / n,
        *(cat_counts / n),
        has_attention,
        has_dwconv,
        has_concat,
    ])
    flops_frac = cat_flops / total_flops if total_flops > 0 \
        else np.zeros(n_categories)
    statistics = np.array([
        _log1p(total_flops),
        _log1p(float(params.sum())),
        _log1p(float(mem.sum())),
        _log1p(total_flops / n),
        float(log_flops.std()),
        _log1p(float(flops.max())),
        float(log_intensity.mean()),
        float(log_intensity.std()),
        *flops_frac,
        position_frac,
        length_frac,
    ])
    return GlobalFeatures(structural=structural, statistics=statistics)


# ----------------------------------------------------------------------
# analytic cost model (hw/analytic.py)
# ----------------------------------------------------------------------

def profile_reference(evaluator: AnalyticEvaluator,
                      works: Sequence[OpWork],
                      batch_size: int = 1,
                      sparsity: float = 0.0) -> LevelProfile:
    """Time and platform energy of ``works`` at every level.

    This per-op loop is the reference semantics every
    :class:`~repro.hw.analytic.ProfileTable` query must reproduce bit
    for bit.  ``sparsity`` rescales sparsity-sensitive ops via
    :func:`repro.hw.perf.sparse_works` *before* the loop, so the
    loop/table bit-identity contract holds at every sparsity.
    """
    works = sparse_works(works, sparsity)
    p = evaluator.platform
    n_levels = p.n_levels
    times = np.zeros(n_levels)
    energies = np.zeros(n_levels)
    f = evaluator._freqs
    v2f = evaluator._volts ** 2 * f
    static = p.leak_w_per_v * evaluator._volts
    for work in works:
        eff = p.op_efficiency.get(work.category, 0.2)
        cap = p.intensity_caps.get(work.category, 1.0)
        amp = p.traffic_amplification.get(work.category, 1.0)
        t_c = (work.flops * batch_size) / (p.flops_per_cycle * f * eff)
        bytes_moved = amp * work.mem_bytes * batch_size + \
            ((work.flops * batch_size) / cap if cap > 0 else 0.0)
        t_m = bytes_moved / evaluator._bw
        dur = np.maximum(t_c, t_m) + p.kernel_launch_s
        u_c = np.minimum(1.0, t_c / dur)
        activity = u_c + p.stall_power_fraction * (1.0 - u_c)
        gpu_power = static + v2f * p.c_eff * activity
        times += dur
        energies += gpu_power * dur + p.dram_energy_per_byte * \
            bytes_moved
    energies += evaluator.overhead_power * times
    return LevelProfile(times=times, energies=energies)


def graph_time(latency: LatencyModel, graph: Graph, level: int,
               batch_size: int = 1) -> float:
    """Total sequential execution time of a graph at a fixed level,
    summed op by op through the scalar roofline model."""
    freq = latency.platform.freq_of_level(level)
    return sum(
        latency.time_of(w, freq, batch_size).duration
        for w in latency.graph_work(graph)
    )


def block_profile_reference(evaluator: AnalyticEvaluator, graph: Graph,
                            op_indices: Sequence[int],
                            batch_size: int = 1,
                            sparsity: float = 0.0) -> LevelProfile:
    """Per-op-loop profile of any set of ops; on a contiguous range it is
    :meth:`ProfileTable.span_profile
    <repro.hw.analytic.ProfileTable.span_profile>`.

    Sparsity is applied per op, so subsetting before or after the
    rescale is the same arithmetic — the table path rescales the whole
    graph first, this path rescales the subset."""
    works = evaluator.latency.graph_work(graph)
    return profile_reference(evaluator, [works[i] for i in op_indices],
                             batch_size, sparsity)


def plan_energy_time_reference(
        evaluator: AnalyticEvaluator, graph: Graph,
        blocks: Sequence[Sequence[int]], levels: Sequence[int],
        batch_size: int = 1,
        sparsity: float = 0.0) -> Tuple[float, float]:
    """Loop :meth:`ProfileTable.plan_energy_time
    <repro.hw.analytic.ProfileTable.plan_energy_time>`."""
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


def optimal_cpu_level_reference(platform: PlatformSpec, cpu_ops: float,
                                latency_slack: float = 0.25) -> int:
    """The CPU-ladder loop that
    :func:`~repro.extensions.cpu_dvfs.optimal_cpu_level` ran before it
    shared :meth:`LevelProfile.best_level
    <repro.hw.analytic.LevelProfile.best_level>`: minimize energy within
    the slack budget, the fastest of the near-ties."""
    ladder = platform.cpu.freq_levels
    energies = []
    times = []
    for level in range(len(ladder)):
        e, t = cpu_phase_energy(platform, cpu_ops, level)
        energies.append(e)
        times.append(t)
    budget = (1.0 + latency_slack) * times[-1]
    feasible = [i for i in range(len(ladder)) if times[i] <= budget + 1e-15]
    best_e = min(energies[i] for i in feasible)
    near = [i for i in feasible
            if energies[i] <= best_e * (1.0 + analytic.EE_TOLERANCE)]
    return max(near)


# ----------------------------------------------------------------------
# Algorithm 1 (core/clustering.py)
# ----------------------------------------------------------------------

# The dense distance chain, which FactoredDistance is pinned to.

def _normalize_by_median(d: np.ndarray, n: int) -> np.ndarray:
    """Shared tail of the Mahalanobis computation.

    Normalize by the median off-diagonal distance: in a whitened
    high-dimensional space pairwise distances concentrate, so a
    max-normalization squeezes all structure into a narrow band.
    Median scaling puts "typically similar" pairs well below 1 and
    dissimilar pairs above it, giving the epsilon grid real leverage.
    """
    if n > 1:
        off = d[~np.eye(n, dtype=bool)]
        scale = float(np.median(off))
        if scale > 0:
            d = d / scale
    return d


def mahalanobis_matrix(x: np.ndarray) -> np.ndarray:
    """Pairwise Mahalanobis distances between rows of ``x``.

    The covariance matrix is pseudo-inverted (features can be collinear:
    one-hot columns, constant columns), exactly as Algorithm 1 line 3
    prescribes.

    The quadratic form is evaluated over the upper-triangle pairs only
    and mirrored: ``c_einsum`` computes every output element
    independently with a fixed ``(k, l)`` summation order, and the IEEE
    sign-flip identities make ``diff . P . diff`` bit-equal for
    ``x_i - x_j`` and ``x_j - x_i``, so this halves the work of
    the full ``(n, n, d)`` einsum while staying byte-identical.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if n == 1:
        return np.zeros((1, 1))
    cov = np.cov(x, rowvar=False)
    p = np.linalg.pinv(np.atleast_2d(cov))
    iu, ju = np.triu_indices(n, k=1)
    pairs = x[iu] - x[ju]
    # d^2[i,j] = diff . P . diff
    d2_pairs = np.einsum("pk,kl,pl->p", pairs, p, pairs)
    d2 = np.zeros((n, n))
    d2[iu, ju] = d2_pairs
    d2 = d2 + d2.T
    # The reference evaluates i == j cells on an all-zero diff; its
    # result can carry a sign-of-zero from P's entries, so reproduce it
    # with the same quadratic form instead of assuming +0.0.
    zero_row = np.zeros((1, x.shape[1]))
    np.fill_diagonal(
        d2, np.einsum("pk,kl,pl->p", zero_row, p, zero_row)[0])
    d2 = np.maximum(d2, 0.0)
    d = np.sqrt(d2)
    return _normalize_by_median(d, n)


def spacing_matrix(n: int, lam: float,
                   mode: str = "penalty") -> np.ndarray:
    """Operator-spacing regularization matrix.

    ``mode='penalty'`` (default): ``R = 1 - exp(-lam * |i - j|)`` —
    grows with topological distance, penalizing non-adjacent pairs.
    ``mode='paper'``: the literal formula ``R = exp(-lam * |i - j|)``.
    """
    idx = np.arange(n)
    return _spacing_of(np.abs(idx[:, None] - idx[None, :]), lam, mode)


def _blend_distances(d: np.ndarray, n: int, alpha: float, lam: float,
                     spacing_mode: str) -> np.ndarray:
    """Blend a Mahalanobis matrix with the spacing regularizer
    (Algorithm 1 line 12)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    out = alpha * d + (1.0 - alpha) * spacing_matrix(n, lam, spacing_mode)
    np.fill_diagonal(out, 0.0)
    return out


def power_distance_matrix(x: np.ndarray, alpha: float = 0.6,
                          lam: float = 0.05,
                          spacing_mode: str = "penalty") -> np.ndarray:
    """Blended power distance: ``alpha * D_mahalanobis + (1 - alpha) * R``
    (Algorithm 1 line 12)."""
    return _blend_distances(mahalanobis_matrix(x), x.shape[0], alpha,
                            lam, spacing_mode)


def _check_dbscan_args(distance: np.ndarray, eps: float,
                       min_pts: int) -> None:
    if distance.ndim != 2 or distance.shape[0] != distance.shape[1]:
        raise ValueError("distance must be a square matrix")
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")


def dbscan_precomputed(distance: np.ndarray, eps: float,
                       min_pts: int) -> np.ndarray:
    """Classic DBSCAN on a precomputed distance matrix.

    Returns integer labels per point; ``-1`` marks noise.  Implemented
    from scratch since the environment carries no clustering library.

    Cluster expansion runs on boolean frontier vectors over a
    precomputed adjacency matrix rather than a per-point Python queue.
    The final labels are identical to a per-point queue expansion
    (the test oracle): a cluster's membership is the
    core-connected closure of its seed restricted to points unclaimed
    when the seed is visited, which is order-free — only the seed scan
    order (ascending ``i``, shared by both implementations) matters.
    """
    distance = np.asarray(distance)
    _check_dbscan_args(distance, eps, min_pts)
    return dbscan(distance <= eps, min_pts)


def smoothed_power_distance(x: np.ndarray, window: int,
                            alpha: float = 0.6, lam: float = 0.05,
                            spacing_mode: str = "penalty") -> np.ndarray:
    """Blended power distance of the ``window``-smoothed features.

    This is the scheme-*independent* half of Algorithm 1: the matrix
    depends on ``(features, window, alpha, lam)`` but not on
    ``(epsilon, minPts)``, so a scheme sweep only needs one matrix per
    distinct smoothing window (the labeling fast path memoizes exactly
    that).
    """
    xs = smooth_features(x, window)
    return power_distance_matrix(xs, alpha=alpha, lam=lam,
                                 spacing_mode=spacing_mode)


def blocks_from_distance(distance: np.ndarray, eps: float,
                         min_pts: int) -> List[List[int]]:
    """Scheme-*dependent* half of Algorithm 1: DBSCAN over a prepared
    blended matrix plus block post-processing."""
    labels = dbscan_precomputed(distance, eps, min_pts)
    return process_clusters(labels, min_block_size=max(1, min_pts))


# Loop references of the vectorized stages.


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
    """Full-einsum :func:`mahalanobis_matrix`."""
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
    """Queue-based :func:`dbscan_precomputed`."""
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
        block_profile_reference(evaluator, graph, block,
                                batch_size).best_level(latency_slack)
        for block in blocks
    ]


def scheme_quality_reference(evaluator: AnalyticEvaluator, graph: Graph,
                             blocks: Sequence[Sequence[int]],
                             batch_size: int = 16,
                             latency_slack: float = 0.25) -> float:
    """Energy efficiency (1/J) of running each block of the view at its
    swept-optimal level, switch costs included — the quality
    ``label_network`` rates a scheme by — with per-op loops
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


# ----------------------------------------------------------------------
# metrics exposition (obs/metrics.py)
# ----------------------------------------------------------------------
def parse_prometheus_text(text: str) -> MetricsRegistry:
    """Inverse of :meth:`MetricsRegistry.to_prometheus_text` for the
    subset it emits: the tests read ``--metrics`` files and registry
    expositions back with it."""
    registry = MetricsRegistry(enabled=True)
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    hist_rows: Dict[str, Dict[str, Any]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            kinds[name] = kind
            continue
        if line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if key.endswith('"}') and "_bucket{le=" in key:
            base = key[:key.index("_bucket{le=")]
            bound = key[key.index('le="') + 4:-2]
            row = hist_rows.setdefault(base, {"buckets": []})
            row["buckets"].append((bound, int(value)))
        elif key.endswith("_sum") and kinds.get(key[:-4]) == "histogram":
            hist_rows.setdefault(key[:-4], {"buckets": []})["sum"] = \
                float(value)
        elif key.endswith("_count") and \
                kinds.get(key[:-6]) == "histogram":
            hist_rows.setdefault(key[:-6], {"buckets": []})["count"] = \
                int(value)
        elif kinds.get(key) == "counter":
            counter = registry.counter(key, helps.get(key, ""))
            counter.value = int(value)
        elif kinds.get(key) == "gauge":
            gauge = registry.gauge(key, helps.get(key, ""))
            gauge.set(float(value))
        else:
            raise ValueError(f"unparseable exposition line: {raw!r}")
    for name, row in hist_rows.items():
        bounds = [float(b) for b, _ in row["buckets"] if b != "+Inf"]
        hist = registry.histogram(name, helps.get(name, ""),
                                  buckets=bounds)
        cumulative = [c for _, c in row["buckets"]]
        counts, previous = [], 0
        for cum in cumulative:
            counts.append(cum - previous)
            previous = cum
        hist.counts = counts
        hist.sum = row.get("sum", 0.0)
    return registry

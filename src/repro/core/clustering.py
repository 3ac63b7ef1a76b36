"""Power behavior similarity clustering — Algorithm 1 of the paper.

Steps, matching the algorithm line by line:

1. pairwise **Mahalanobis distance** over the scaled depthwise features,
   using the pseudo-inverse of the feature covariance (lines 2-7);
2. an **operator-spacing regularization** term (lines 8-11) so only
   physically adjacent operators cluster together;
3. the blended distance ``alpha * D + (1 - alpha) * R`` (line 12);
4. **DBSCAN** over the blended matrix with hyper-parameters
   ``(epsilon, minPts)`` (line 13);
5. **post-processing** into contiguous, non-overlapping power blocks
   (line 14 / section 2.1.3's post-processing paragraph).

A note on the regularizer: the paper writes ``R[i,j] = exp(-lambda *
|i-j|)``, which *decreases* with operator distance — added to the metric
as written, it would make far-apart operators look close, the opposite of
the stated intent ("ensure that only physically adjacent operators are
considered").  We implement the stated intent, ``R = 1 - exp(-lambda *
|i-j|)``, as the default and keep the literal formula available through
``spacing_mode='paper'`` for comparison.

Performance note: this module sits on the dataset-generation hot path
(every scheme of every random network runs through it), so DBSCAN and
the majority filter are vectorized and the distance stage is
factorized.  Each stage has exactly one implementation here.  Their
reference implementations — the dense einsum distance chain and the
original loops — live with the tests (``tests/oracles.py``), and the
hypothesis suites in ``tests/test_labeling_fastpath.py`` and
``tests/test_distance_fastpath.py`` pin every fast path to them byte
for byte.

A network's pairs ``i < j`` are indexed once (:func:`pair_index`), as
flat offsets into an n×n array, so every pair gather is a 1-D
``take``.  :meth:`FactoredDistance.blocks` never builds
an n×n matrix: it decides the adjacent pairs and hands them to
:func:`dbscan_pairs`, which labels connected components of the core
points instead of scanning points one by one.

:class:`FactoredDistance` is the distance stage (DESIGN.md §5i): the
quadratic form is expanded into Gram matrices of the smoothed features
once per smoothing window, so pairwise distances come from three BLAS
matmuls instead of the three-operand ``c_einsum``.  The factorized
values are not bit-equal to the einsum's (different summation
association), but every *decision* downstream of the distances — the
median normalization scale and each ``distance <= eps`` DBSCAN
adjacency — is resolved exactly: a rigorous per-pair error band marks
the decisions that could straddle a boundary, and the first one that
does makes the window evaluate the einsum for every pair
(:meth:`FactoredDistance._ensure_exact`).  The resulting labels, blocks
and datasets are therefore byte-identical to the dense reference chain
and the dataset-cache key is unchanged.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Unit roundoff of float64 — the per-operation bound the error bands of
#: :class:`FactoredDistance` are built from.
_EPS64 = float(np.finfo(np.float64).eps)


def _spacing_of(gaps: np.ndarray, lam: float, mode: str) -> np.ndarray:
    """The regularizer as an elementwise function of operator gaps.

    ``mode='penalty'`` (default): ``R = 1 - exp(-lam * |i - j|)`` —
    grows with topological distance, penalizing non-adjacent pairs.
    ``mode='paper'``: the literal formula ``R = exp(-lam * |i - j|)``.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(
            f"lambda must be finite and non-negative, got {lam!r}")
    decay = np.exp(-lam * gaps)
    if mode == "penalty":
        return 1.0 - decay
    if mode == "paper":
        return decay
    raise ValueError(f"unknown spacing mode {mode!r}")


def spacing_by_gap(n: int, lam: float,
                   mode: str = "penalty") -> np.ndarray:
    """The regularizer per gap ``g = |i - j|`` for ``g = 0..n-1``.

    ``spacing_by_gap(n, lam, mode)[j - i]`` is the regularizer of the
    pair ``(i, j)``: bit-equal to the dense n×n matrix of the reference
    chain (``tests/oracles.py::spacing_matrix``, the same elementwise
    ops on the same gap values) in O(n) memory instead of O(n²).
    """
    return _spacing_of(np.arange(n), lam, mode)


# ----------------------------------------------------------------------
# DBSCAN over a boolean adjacency matrix
# ----------------------------------------------------------------------

NOISE = -1
#: The queue oracle's mark for a point not yet scanned.
_UNVISITED = -2


def dbscan(adjacent: np.ndarray, min_pts: int) -> np.ndarray:
    """Classic DBSCAN given the symmetric ``distance <= eps`` adjacency
    matrix (see :func:`dbscan_pairs`).

    Returns integer labels per point; ``-1`` marks noise.  Implemented
    from scratch since the environment carries no clustering library.
    """
    if adjacent.ndim != 2 or adjacent.shape[0] != adjacent.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    i, j = np.nonzero(np.triu(adjacent, k=1))
    return dbscan_pairs(adjacent.sum(axis=1), i, j, min_pts)


def dbscan_pairs(degree: np.ndarray, i: np.ndarray, j: np.ndarray,
                 min_pts: int) -> np.ndarray:
    """DBSCAN labels of ``len(degree)`` points from their neighbourhood
    sizes (self included) and their adjacent pairs ``i < j``.

    :meth:`FactoredDistance.blocks` feeds it the exact-decision pairs,
    so neither a distance nor an adjacency matrix is materialized.

    The labels are the classic per-point scan's (the queue-expansion
    test oracle), computed without a scan: a point is *core* when its
    neighbourhood holds ``min_pts`` points; a cluster is a connected
    component of the core points, numbered in order of its least index
    (the scan's seed order); a non-core point joins the lowest-numbered
    cluster with a core point adjacent to it — the first cluster whose
    expansion reaches it — or stays noise.
    """
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = degree.shape[0]
    core = degree >= min_pts
    core_i = core[i]
    core_j = core[j]
    linked = core_i & core_j
    u, v = i[linked], j[linked]
    # Connected components by hooking and pointer jumping: each root
    # hooks under the least root it shares a core pair with, then every
    # point jumps to its root.  ``parent[x] <= x`` throughout, so each
    # component ends as a star on its least index.
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            break
        pu, pv = pu[split], pv[split]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    labels = np.full(n, NOISE, dtype=int)
    seeds = np.flatnonzero(core)
    labels[seeds] = np.unique(parent[seeds], return_inverse=True)[1]
    # Border points: the least cluster among their core neighbours.
    to_j = core_i & ~core_j
    to_i = core_j & ~core_i
    border = np.concatenate([j[to_j], i[to_i]])
    if border.size:
        via = np.concatenate([labels[i[to_j]], labels[j[to_i]]])
        claim = np.full(n, n)
        np.minimum.at(claim, border, via)
        claimed = claim < n
        labels[claimed] = claim[claimed]
    return labels


# ----------------------------------------------------------------------
# post-processing into contiguous power blocks
# ----------------------------------------------------------------------

def _runs_of(labels: np.ndarray) -> List[List[int]]:
    """Split the index sequence into maximal runs of equal label."""
    edges = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(),
             len(labels)]
    return [list(range(a, b)) for a, b in zip(edges, edges[1:])]


def _mode_filter(labels: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window majority vote over the label sequence.

    A stage of repeating units (conv/norm/act/...) comes out of DBSCAN
    as several interleaved per-kind clusters; its *region* identity is
    the locally dominant label.  Majority filtering recovers that
    region structure so the run extraction below sees stages, not the
    interleaving.  Noise labels never win the vote unless the window is
    all noise.

    Window counts are prefix-sum differences of a one-hot label matrix
    (exact integer arithmetic), and the min-label tie-break falls out of
    ``argmax`` over label-sorted columns — identical to per-point vote
    dictionaries (the test oracle).  The votes run on codes into the
    input's sorted label set: a pass only ever outputs labels it was
    given, and a label that has dropped out keeps an all-zero column,
    which wins no vote.
    """
    if window <= 0:
        return labels
    n = len(labels)
    if n == 0:
        return labels
    positions = np.arange(n)
    lo = np.maximum(0, positions - window)
    hi = np.minimum(n, positions + window + 1)
    uniq, codes = np.unique(labels, return_inverse=True)
    noise_cols = np.flatnonzero(uniq == NOISE)
    for _pass in range(3):  # iterate to (near) fixpoint
        one_hot = np.zeros((n + 1, len(uniq)), dtype=np.int64)
        one_hot[positions + 1, codes] = 1
        prefix = np.cumsum(one_hot, axis=0)
        votes = prefix[hi] - prefix[lo]          # (n, n_labels), exact
        if noise_cols.size:
            votes[:, noise_cols[0]] = 0
        best = np.argmax(votes, axis=1)          # min-label tie-break
        if noise_cols.size:
            # An all-noise window keeps noise.
            best[votes[positions, best] == 0] = noise_cols[0]
        if np.array_equal(best, codes):
            break
        codes = best
    return uniq[codes]


def _merge_runs(labels: np.ndarray,
                min_block_size: int) -> List[List[int]]:
    """Shared post-mode-filter block extraction (see
    :func:`process_clusters` for the rules)."""
    runs = _runs_of(labels)

    # Absorb noise runs into an adjacent run (prefer the shorter side so
    # small clusters don't swallow everything).
    cleaned: List[List[int]] = []
    for k, run in enumerate(runs):
        if labels[run[0]] == NOISE and (cleaned or k + 1 < len(runs)):
            if cleaned and k + 1 < len(runs):
                if len(cleaned[-1]) <= len(runs[k + 1]):
                    cleaned[-1].extend(run)
                else:
                    runs[k + 1][:0] = run
            elif cleaned:
                cleaned[-1].extend(run)
            else:
                runs[k + 1][:0] = run
        else:
            cleaned.append(list(run))

    # Merge undersized runs into their smaller neighbour.
    merged = True
    while merged and len(cleaned) > 1:
        merged = False
        for k, run in enumerate(cleaned):
            if len(run) >= min_block_size:
                continue
            if k == 0:
                cleaned[1][:0] = run
            elif k == len(cleaned) - 1:
                cleaned[k - 1].extend(run)
            else:
                if len(cleaned[k - 1]) <= len(cleaned[k + 1]):
                    cleaned[k - 1].extend(run)
                else:
                    cleaned[k + 1][:0] = run
            del cleaned[k]
            merged = True
            break

    # Adjacent runs of the same original cluster label re-merge.
    result: List[List[int]] = []
    for run in cleaned:
        if result and labels[result[-1][-1]] == labels[run[0]] and \
                labels[run[0]] != NOISE:
            result[-1].extend(run)
        else:
            result.append(run)
    return result


def process_clusters(labels: Sequence[int],
                     min_block_size: int = 1) -> List[List[int]]:
    """Post-process raw DBSCAN labels into power blocks.

    Guarantees (the paper's "continuous and practically feasible"
    requirement): the returned blocks are contiguous index ranges,
    non-overlapping, ordered, and together cover ``range(n)`` exactly.

    Rules: a majority filter of radius ``max(2, min_block_size)``
    recovers region identity from interleaved per-kind clusters;
    non-contiguous clusters are split into runs; isolated noise points
    join the shorter adjacent run; runs smaller than ``min_block_size``
    are merged into their smaller neighbour.
    """
    labels = np.asarray(labels, dtype=int)
    if len(labels) == 0:
        return []
    return _merge_runs(_mode_filter(labels, max(2, min_block_size)),
                       min_block_size)


def smooth_features(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average of the feature rows (+-``window`` ops).

    Power behaviour is a property of an operator *in context*: a
    convolution interleaved with batch-norms and activations draws power
    as part of that repeating pattern.  Averaging each operator's
    features over its topological neighbourhood makes the repeating
    units of a stage look alike (so DBSCAN chains through them) while
    stage transitions remain sharp — without it, density clustering
    fragments on the conv/norm/act interleaving and every network
    degenerates into a single block.
    """
    if window <= 0:
        return x
    n = x.shape[0]
    m = 2 * window + 1
    out = np.empty_like(x)
    if x.dtype != np.float64 or x.ndim != 2 or x.shape[1] <= 1 \
            or not x.flags.c_contiguous or n <= m:
        # The shifted-slice sum below relies on ``mean(axis=0)``
        # accumulating the strided outer axis strictly left to right;
        # with a single column (or non-contiguous rows) the reduction
        # axis becomes the contiguous one and NumPy switches to pairwise
        # blocking, so those shapes — plus odd dtypes and windows
        # spanning the whole sequence — take the per-row mean.
        for i in range(n):
            out[i] = x[max(0, i - window):i + window + 1].mean(axis=0)
        return out
    # Boundary rows (truncated windows) keep the per-row mean.
    for i in range(window):
        out[i] = x[:i + window + 1].mean(axis=0)
    for i in range(n - window, n):
        out[i] = x[i - window:].mean(axis=0)
    # Interior rows: ``x[lo:hi].mean(axis=0)`` reduces over the strided
    # outer axis, which NumPy accumulates strictly left to right (no
    # pairwise blocking off the contiguous axis), so the shifted-slice
    # running sum below performs the *same* addition sequence per row
    # and stays byte-identical.
    acc = x[:n - m + 1].copy()
    for j in range(1, m):
        acc += x[j:j + n - m + 1]
    out[window:n - window] = acc / m
    return out


class PairIndex(NamedTuple):
    """The pairs ``i < j`` of ``n`` points, in ``np.triu_indices(n, 1)``
    order, as flat offsets into a C-ordered n×n array: ``upper = i*n +
    j`` addresses ``[i, j]`` and ``lower = j*n + i`` addresses ``[j, i]``.
    Every pair gather is a 1-D ``take`` and every adjacency scatter a
    1-D assignment; ``(i, j)`` themselves are recovered only where they
    are needed, so the index holds two pair-length arrays."""

    n: int
    upper: np.ndarray
    lower: np.ndarray

    def rows_cols(self, positions: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """``(i, j)`` of every pair, or of the pairs at ``positions``."""
        flat = self.upper if positions is None else \
            self.upper.take(positions)
        rows = flat // self.n
        return rows, flat - rows * self.n

    def gaps(self) -> np.ndarray:
        """``j - i`` of every pair: ``lower - upper = (j - i)(n - 1)``."""
        gap = self.lower - self.upper
        gap //= self.n - 1
        return gap


def pair_index(n: int) -> PairIndex:
    """The :class:`PairIndex` of ``n`` points."""
    iu, ju = np.triu_indices(n, k=1)
    upper = iu * n
    upper += ju
    lower = ju * n
    lower += iu
    return PairIndex(n, upper, lower)


def _gram_pairs(b: np.ndarray, x: np.ndarray, pairs: PairIndex,
                op: np.ufunc) -> np.ndarray:
    """``op(op(q[i] + q[j], g[i, j]), g[j, i])`` over the pairs, for the
    Gram matrix ``g = b xᵀ`` and ``q = diag(g)``, accumulated in place so
    only one pair-length temporary is live once ``g`` is built."""
    q = np.einsum("nk,nk->n", b, x)
    i, j = pairs.rows_cols()
    out = q.take(i)
    out += q.take(j)
    del i, j  # freed before the n×n Gram matrix is built
    g = b @ x.T
    op(out, g.take(pairs.upper), out=out)
    op(out, g.take(pairs.lower), out=out)
    return out


def _middle_mean(values: np.ndarray, r1: int, r2: int) -> float:
    """Mean of order statistics ``r1`` and ``r2 ∈ {r1, r1 + 1}`` of
    ``values``, partitioned in place: one selection of ``r1`` (a
    two-``kth`` partition selects twice and runs several times slower),
    after which ``r2`` is the least value above it."""
    values.partition(r1)
    low = values[r1]
    high = low if r2 == r1 else values[r2:].min()
    return float(np.mean([low, high]))


class FactoredDistance:
    """The blended-distance stage of Algorithm 1 (lines 2-12) for one
    ``(features, window, alpha, lam, spacing_mode)`` key.

    The reference evaluation of the blended distance is the dense chain
    in ``tests/oracles.py`` (``smoothed_power_distance``: smoothing, the
    pair-einsum Mahalanobis matrix, median normalization and the spacing
    blend).  Its expensive part is the three-operand
    ``einsum("pk,kl,pl->p")`` quadratic form — ``c_einsum`` evaluates it
    one scalar multiply-add at a time.  Here the quadratic
    form is expanded once into Gram matrices of the smoothed features,
    ``d²_ij = q_i + q_j − G_ij − G_ji`` with ``G = (X P) Xᵀ`` and
    ``q = diag(G)``, so the whole pairwise stage collapses to three
    BLAS matmuls plus O(n²) gathers — the structure work is shared by
    every scheme in the grid that lands on the same smoothing window.

    Floating point makes the two evaluation orders differ in the last
    couple of ulps, and the repo's contract is *byte* identity.  The
    matrix itself is only observed through two kinds of decisions,
    though: the median off-diagonal value (the normalization scale) and
    the ``distance <= eps`` adjacency tests.  So alongside each fast
    value we carry a conservative, calibration-margin error band versus
    the exact einsum, and decisions are made interval-wise: the
    reference scale
    is the mean of two pair order statistics of the unnormalized
    distances (each provably within ``max(band)`` of its fast
    counterpart), so it is *bracketed* without ever evaluating the
    einsum, and every adjacency test whose whole interval sits on one
    side of ``eps`` is decided from the fast value alone.

    The fallback for the rest is deliberately all-or-nothing:
    ``c_einsum`` is *not* bit-stable under row subsetting (its
    iteration strategy changes with operand shape), so recomputing just
    the straddling pairs could disagree with the full reference call in
    the last ulp.  Instead, the first decision that genuinely lands
    inside an error band triggers one lazy evaluation of the complete
    reference chain for the window (:meth:`_ensure_exact`), which then
    settles every remaining boundary case.  On real corpora the
    fallback is rare but does fire: in the 60-network ``seed=1`` corpus
    it runs in 4 of 180 distance stages (``random_dnn_30`` at window 8,
    ``random_dnn_31`` at windows 2, 4 and 8).  Everything downstream —
    scale, adjacency, DBSCAN labels, blocks, datasets — is therefore
    provably byte-identical to the reference path, while the bulk of
    the arithmetic runs at matmul speed.  ``adjacency`` additionally
    radius-prunes: with the penalty regularizer, pairs whose spacing
    term ``(1-alpha)·r`` alone exceeds ``eps`` can never be adjacent,
    so they skip even the boundary test.

    ``exact_evaluations`` counts reference-evaluated pairs (0, or all
    pairs when the fallback fires; telemetry for the equivalence
    suite).

    ``pairs`` takes a precomputed :func:`pair_index` so the windows of
    one network can share it.  Nothing is cached across
    networks: every O(n²) array lives exactly as long as the instance
    (the spacing term comes from the O(n) :func:`spacing_by_gap`).
    """

    __slots__ = ("n", "alpha", "lam", "spacing_mode", "exact_evaluations",
                 "_pairs", "_xs", "_p", "_scale", "_scale_band",
                 "_blended", "_band", "_omr", "_exact", "_force_exact")

    def __init__(self, x: np.ndarray, window: int, alpha: float = 0.6,
                 lam: float = 0.05, spacing_mode: str = "penalty",
                 pairs: Optional[PairIndex] = None
                 ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        x = np.asarray(x, dtype=float)
        xs = smooth_features(x, window)
        n = xs.shape[0]
        self.n = n
        self.alpha = alpha
        self.lam = lam
        self.spacing_mode = spacing_mode
        self.exact_evaluations = 0
        self._exact = None
        self._force_exact = False
        # Validates lam and the mode eagerly, like the dense path.
        omr_by_gap = (1.0 - alpha) * spacing_by_gap(n, lam, spacing_mode)
        if n <= 1:
            self._pairs = pair_index(n)
            self._xs = xs
            self._p = np.zeros((1, 1))
            self._scale = 0.0
            self._scale_band = 0.0
            self._blended = np.zeros(0)
            self._band = np.zeros(0)
            self._omr = np.zeros(0)
            return
        if pairs is None:
            pairs = pair_index(n)
        self._pairs = pairs
        cov = np.cov(xs, rowvar=False)
        p = np.linalg.pinv(np.atleast_2d(cov))
        self._xs = xs
        self._p = p
        # Pair arrays are built in place and each n×n Gram matrix is
        # dropped once gathered; in-place ufuncs keep every operation's
        # operands and association, so values are bit-equal to the plain
        # expressions in the comments.
        #
        # Gram-form evaluation in the original basis:
        #   d²_ij = Δxᵀ P Δx = q_i + q_j − G_ij − G_ji
        # with B = X P, q = diag(B Xᵀ), G = B Xᵀ — three BLAS matmuls
        # and O(P) gathers instead of materializing the P×k pair
        # differences.  (A whitened eigen-factorization P = Lᵀ L looks
        # more natural but is *unbandable* here: for a near-singular
        # covariance, pinv's output is asymmetric by O(‖P‖) in its
        # null-space directions, and eigh only reads one triangle — the
        # symmetrization gap between the factored and einsum values
        # becomes a genuine, unbounded-relative error.  The Gram form
        # evaluates the same asymmetric P the einsum sees, so the gap
        # is pure summation rounding.)
        b = xs @ p
        d = _gram_pairs(b, xs, pairs, np.subtract)
        # Conservative per-pair bound on |d²_fast − d²_einsum|: both
        # sides are floating-point sums of the same k²+2k products (in
        # different association orders, plus the Gram expansion's
        # cancellation), so the gap is a rounding residue proportional
        # to u·Σ|terms|, and Σ|terms| is bounded by the identical Gram
        # form over |X|, |P| (no sign cancellation).  The worst-case
        # constant (~k²) is hopelessly pessimistic — in practice the
        # residue is dominated by the few largest cancelling terms and
        # the observed ratio err/(u·Σ|terms|) stays below 0.7 across
        # adversarial corpora — so the band uses a calibrated ×64
        # margin instead, and its coverage of the true error is
        # asserted directly by tests/test_distance_fastpath.py (any
        # decision inside the band is still settled by the reference
        # chain, so coverage only needs to hold *outside* it).
        habs = np.abs(xs)
        babs = habs @ np.abs(p)
        # b2 = 64·u·m̄ with m̄ = q̄_i + q̄_j + Ḡ_ij + Ḡ_ji; d = √max(d², 0)
        band = _gram_pairs(babs, habs, pairs, np.add)
        band *= 64.0 * _EPS64
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
        # In the d domain: |√a − √b| ≤ min(√|a−b|, |a−b| / √a), so
        # band = min(√b2, b2 / max(d, 1e-300)) · 1.01.
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore"):
            ratio = np.divide(band, np.maximum(d, 1e-300))
            np.minimum(np.sqrt(band, out=band), ratio, out=band)
            band *= 1.01
        del ratio
        # Gathered only now, so it is not alive under the Gram matrices.
        self._omr = omr_by_gap.take(pairs.gaps())
        n_pairs = d.shape[0]
        if not (np.isfinite(d).all() and np.isfinite(band).all()):
            # Pathological features (inf/NaN): no finite error bound, so
            # every decision runs on the lazily-evaluated reference
            # chain — trivially byte-identical.
            self._force_exact = True
            self._scale = 0.0
            self._scale_band = float("inf")
            self._blended = np.zeros(n_pairs)
            self._band = np.full(n_pairs, np.inf)
            return
        # ---- bracket the normalization scale -------------------------
        # The reference scale is np.median of the mirrored off-diagonal
        # multiset (each pair value twice, 2P elements — always even):
        # the mean of its two middle order statistics, which map to pair
        # order statistics (P-1)//2 and P//2.  Every exact value lives
        # in [d−band, d+band], so the exact order statistic r is
        # bracketed by the r-th order statistics of those two arrays —
        # a much tighter interval than ±max(band), because only the
        # bands *near the median* matter.
        r1, r2 = (n_pairs - 1) // 2, n_pairs // 2
        scale = _middle_mean(d.copy(), r1, r2)
        scale_lo = _middle_mean(d - band, r1, r2)
        scale_hi = _middle_mean(d + band, r1, r2)
        b_scale = (max(scale - scale_lo, scale_hi - scale) * 1.01
                   + 4.0 * _EPS64 * abs(scale))
        self._scale = scale
        self._scale_band = b_scale
        if scale - b_scale > 0.0:
            # The reference provably takes the `scale > 0` branch.
            # |d_e/s_e − d_f/s_f| ≤ band/s_lo + d_f·b_scale/(s_f·s_lo):
            #   bn = (band / s_lo + d · (b_scale / scale) / s_lo) · 1.01
            #   dn = d / scale
            s_lo = scale - b_scale
            band /= s_lo
            band += d * (b_scale / scale) / s_lo
            band *= 1.01
            d /= scale
        elif not (scale == 0.0 and b_scale == 0.0):
            # Cannot prove which side of the `scale > 0` branch the
            # reference takes: resolve everything exactly.  (When both
            # are exactly 0 the window is degenerate — every distance
            # is 0 — and neither path normalizes: dn = d, bn = band.)
            self._force_exact = True
            self._blended = np.zeros(n_pairs)
            self._band = np.full(n_pairs, np.inf)
            return
        # blended = alpha · dn + omr
        # band    = alpha · bn · 1.01 + 4u · |blended| + 1e-30
        d *= alpha
        d += self._omr
        band *= alpha
        band *= 1.01
        band += 4.0 * _EPS64 * np.abs(d)
        band += 1e-30
        self._blended = d
        self._band = band

    # ------------------------------------------------------------------
    def _ensure_exact(self) -> np.ndarray:
        """Reference blended values for *every* pair — the lazy,
        all-or-nothing fallback (see the class docstring for why partial
        recomputation is unsound), the same ops, element for element, as
        the dense reference chain's ``power_distance_matrix`` — the only
        copy of that einsum arithmetic in the package."""
        if self._exact is None:
            i, j = self._pairs.rows_cols()
            diffs = self._xs[i] - self._xs[j]
            e2 = np.einsum("pk,kl,pl->p", diffs, self._p, diffs)
            d = np.sqrt(np.maximum(e2, 0.0))
            n_pairs = d.shape[0]
            r1, r2 = (n_pairs - 1) // 2, n_pairs // 2
            if np.isnan(d).any():
                # np.median propagates NaN from *any* element.
                scale = float("nan")
            else:
                part = np.partition(d, [r1, r2])
                scale = float(np.mean(part[[r1, r2]]))
            if scale > 0:
                d = d / scale
            self._exact = self.alpha * d + self._omr
            self.exact_evaluations += n_pairs
        return self._exact

    # ------------------------------------------------------------------
    def _adjacent_pairs(self, eps: float) -> np.ndarray:
        """Positions in the pair arrays of the pairs with ``blended <=
        eps``, decided exactly as the dense reference chain's
        ``smoothed_power_distance(...) <= eps``: sure cases are decided
        from the banded fast values, the radius prune discards pairs
        whose spacing term alone exceeds ``eps``, and any
        boundary-straddling pair flips the window to the lazily
        evaluated reference chain."""
        if not eps >= 0:
            raise ValueError(f"eps must be non-negative, got {eps!r}")
        if self.n <= 1:
            return np.zeros(0, dtype=np.intp)
        if self._force_exact:
            adj = self._ensure_exact() <= eps
        else:
            blended, band = self._blended, self._band
            adj = blended + band <= eps
            # Radius prune: blended ≥ (1-alpha)·r·(1-u), so pairs with
            # (1-alpha)·r safely above eps can never be adjacent and
            # skip the boundary test entirely.
            uncertain = np.flatnonzero(
                ~adj & (blended - band <= eps)
                & (self._omr <= eps * (1.0 + 16.0 * _EPS64) + 1e-30))
            if uncertain.size:
                adj[uncertain] = self._ensure_exact()[uncertain] <= eps
        return np.flatnonzero(adj)

    def adjacency(self, eps: float) -> np.ndarray:
        """Exact DBSCAN adjacency ``blended <= eps`` (boolean, n×n),
        byte-identical to the dense reference chain's
        ``smoothed_power_distance(...) <= eps``."""
        hits = self._adjacent_pairs(eps)
        n = self.n
        out = np.zeros((n, n), dtype=bool)
        flat = out.reshape(-1)
        flat[::n + 1] = True  # the blended diagonal is exactly 0
        flat[self._pairs.upper.take(hits)] = True
        flat[self._pairs.lower.take(hits)] = True
        return out

    def blocks(self, eps: float, min_pts: int) -> List[List[int]]:
        """Power blocks for one ``(eps, min_pts)`` scheme — the
        scheme-dependent half of Algorithm 1 (lines 13-14),
        byte-identical to the dense reference chain's
        ``blocks_from_distance``.  DBSCAN runs on the adjacent pairs,
        which are sparse (the spacing term keeps far pairs apart)."""
        hits = self._adjacent_pairs(eps)
        i, j = self._pairs.rows_cols(hits)
        # Every point neighbours itself: the blended diagonal is 0.
        degree = (np.bincount(i, minlength=self.n)
                  + np.bincount(j, minlength=self.n) + 1)
        labels = dbscan_pairs(degree, i, j, min_pts)
        return process_clusters(labels, min_block_size=max(1, min_pts))


def cluster_power_blocks(x: np.ndarray, eps: float, min_pts: int,
                         alpha: float = 0.6, lam: float = 0.05,
                         spacing_mode: str = "penalty") -> List[List[int]]:
    """End-to-end Algorithm 1: features -> neighbourhood smoothing ->
    blended distance -> DBSCAN -> contiguous power blocks.

    The smoothing radius is ``max(2, min_pts)``: coarser granularity
    smooths wider.  Runs the :class:`FactoredDistance` fast path;
    byte-identical to the full-einsum, queue-DBSCAN loop chain (the test
    oracle).  Zero- and one-op inputs take the same path, so their
    hyper-parameters are validated too.
    """
    fd = FactoredDistance(x, max(2, min_pts), alpha=alpha, lam=lam,
                          spacing_mode=spacing_mode)
    return fd.blocks(eps, min_pts)

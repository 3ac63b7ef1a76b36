"""Equivalence suite for the factorized distance stage.

:class:`~repro.core.clustering.FactoredDistance` replaces the dense
``einsum`` blended-distance computation with a Gram-form factorization
plus conservative error bands; the repo's contract is that everything
observable downstream — adjacency, DBSCAN labels, power blocks — is
*byte*-identical to the dense reference chain in ``tests/oracles.py``
(``smoothed_power_distance`` + ``blocks_from_distance``).

This file is the property-based pin for that contract, including the
band-coverage assertion the class docstring points at: outside the
lazy reference fallback, the true factorization error must sit inside
the calibrated band, because that is the premise under which boundary
decisions are made from the fast values alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import (
    NOISE,
    FactoredDistance,
    cluster_power_blocks,
    dbscan,
    smooth_features,
)
from tests.oracles import (
    blocks_from_distance,
    cluster_power_blocks_reference,
    dbscan_precomputed,
    dbscan_precomputed_reference,
    smooth_features_reference,
    smoothed_power_distance,
)

_EPS_GRID = (0.0, 0.05, 0.3, 1.0)
_MIN_PTS_GRID = (1, 2, 4)


@st.composite
def feature_matrices(draw):
    """Feature matrices spanning the degenerate-covariance zoo: generic
    dense, rank-deficient (collinear columns), constant columns,
    duplicate rows, single feature, and extreme scales."""
    n = draw(st.integers(min_value=0, max_value=12))
    k = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    kind = draw(st.sampled_from(
        ["generic", "rank_deficient", "constant_col", "duplicate_rows",
         "tiny_scale", "huge_scale"]))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    if kind == "rank_deficient" and k >= 2:
        x[:, -1] = 2.0 * x[:, 0]
    elif kind == "constant_col":
        x[:, 0] = 3.7
    elif kind == "duplicate_rows" and n >= 2:
        x[1] = x[0]
    elif kind == "tiny_scale":
        x = x * 1e-8
    elif kind == "huge_scale":
        x = x * 1e8
    return x


windows = st.integers(min_value=0, max_value=8)


@settings(max_examples=120, deadline=None)
@given(x=feature_matrices(), window=windows)
def test_adjacency_byte_identical(x, window):
    """``adjacency(eps)`` must equal ``reference <= eps`` exactly, for
    every eps in the grid, including eps=0 (diagonal only unless rows
    coincide)."""
    fd = FactoredDistance(x, window)
    if x.shape[0] == 0:
        for eps in _EPS_GRID:
            assert fd.adjacency(eps).shape == (0, 0)
        return
    ref = smoothed_power_distance(x, window)
    for eps in _EPS_GRID:
        assert np.array_equal(fd.adjacency(eps), ref <= eps), \
            f"adjacency mismatch at eps={eps}"


@settings(max_examples=80, deadline=None)
@given(x=feature_matrices(), window=windows,
       order=st.permutations(_EPS_GRID), force=st.booleans())
def test_adjacency_any_eps_order(x, window, order, force):
    """One instance answers the ε grid in any order: the fallback may
    fire at any ε (or be forced from the start), and every answer
    before and after it still equals ``reference <= eps``."""
    fd = FactoredDistance(x, window)
    fd._force_exact = fd._force_exact or force
    ref = smoothed_power_distance(x, window) if x.shape[0] else None
    for eps in order:
        adj = fd.adjacency(eps)
        if ref is None:
            assert adj.shape == (0, 0)
        else:
            assert np.array_equal(adj, ref <= eps), f"eps={eps}"


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=60),
       eps=st.sampled_from((0.1, 0.3, 0.6, 1.2)),
       min_pts=st.integers(1, 6))
def test_dbscan_matches_queue_reference_on_chains(gaps, eps, min_pts):
    """Points on a line cluster into long chains — the deep case of the
    component search — and their labels equal the queue oracle's."""
    position = np.cumsum(gaps)
    d = np.abs(position[:, None] - position[None, :])
    labels = dbscan_precomputed(d, eps, min_pts)
    ref = dbscan_precomputed_reference(d, eps, min_pts)
    assert labels.dtype == ref.dtype
    assert labels.tobytes() == ref.tobytes()


@settings(max_examples=120, deadline=None)
@given(x=feature_matrices(), window=windows)
def test_blocks_byte_identical(x, window):
    """End-to-end blocks per scheme match ``blocks_from_distance`` on
    the reference matrix, list for list."""
    fd = FactoredDistance(x, window)
    if x.shape[0] == 0:
        for eps in _EPS_GRID:
            for min_pts in _MIN_PTS_GRID:
                assert fd.blocks(eps, min_pts) == []
        return
    ref = smoothed_power_distance(x, window)
    for eps in _EPS_GRID:
        for min_pts in _MIN_PTS_GRID:
            assert fd.blocks(eps, min_pts) == \
                blocks_from_distance(ref, eps, min_pts)


@settings(max_examples=120, deadline=None)
@given(x=feature_matrices(), window=windows)
def test_band_covers_true_error(x, window):
    """The calibrated band must contain the true fast-vs-reference gap
    for every pair whenever the oracle trusts its fast values (the
    non-``_force_exact`` regime) — boundary decisions rest on this."""
    fd = FactoredDistance(x, window)
    if fd.n <= 1 or fd._force_exact:
        return
    ref = smoothed_power_distance(x, window)
    exact = ref.take(fd._pairs.upper)
    gap = np.abs(fd._blended - exact)
    assert np.all(gap <= fd._band), (
        f"band violated: max gap {gap.max():.3e} vs band "
        f"{fd._band[np.argmax(gap - fd._band)]:.3e}")


@settings(max_examples=80, deadline=None)
@given(x=feature_matrices(), window=windows,
       eps=st.sampled_from(_EPS_GRID),
       min_pts=st.sampled_from(_MIN_PTS_GRID),
       alpha=st.sampled_from((0.0, 0.4, 0.6, 1.0)),
       lam=st.sampled_from((0.0, 0.05, 0.3)))
def test_cluster_power_blocks_matches_reference(x, window, eps, min_pts,
                                                alpha, lam):
    """The public fast entry point equals the retained reference across
    the blend/regularizer parameter grid."""
    fast = FactoredDistance(x, window, alpha=alpha, lam=lam).blocks(
        eps, min_pts)
    ref = cluster_power_blocks_reference(x, eps, min_pts, alpha=alpha,
                                         lam=lam, smooth_window=window)
    assert fast == ref
    if window == max(2, min_pts):
        assert cluster_power_blocks(x, eps, min_pts, alpha=alpha,
                                    lam=lam) == ref


@settings(max_examples=100, deadline=None)
@given(x=feature_matrices(), window=windows,
       order=st.sampled_from(("C", "F")))
def test_smooth_features_byte_identical(x, window, order):
    """Vectorized smoothing equals the per-row reference loop, bytes
    for bytes, regardless of memory order (including the k=1 column
    case, which squeezes through a different sliding-window shape)."""
    x = np.asarray(x, order=order)
    fast = smooth_features(x, window)
    ref = smooth_features_reference(x, window)
    assert fast.tobytes() == ref.tobytes()


class TestDegenerateShapes:
    """Pinned tiny-n and single-feature cases (the hypothesis suite
    covers them statistically; these never rotate out)."""

    def test_empty(self):
        fd = FactoredDistance(np.zeros((0, 3)), 2)
        assert fd.blocks(0.3, 2) == []
        assert fd.adjacency(0.3).shape == (0, 0)

    def test_single_row(self):
        fd = FactoredDistance(np.array([[1.0, 2.0]]), 2)
        assert fd.adjacency(0.0).tolist() == [[True]]
        ref = smoothed_power_distance(np.array([[1.0, 2.0]]), 2)
        assert fd.blocks(0.3, 1) == blocks_from_distance(ref, 0.3, 1)

    def test_two_rows(self):
        x = np.array([[1.0, 2.0], [1.5, 2.5]])
        fd = FactoredDistance(x, 2)
        ref = smoothed_power_distance(x, 2)
        for eps in _EPS_GRID:
            assert np.array_equal(fd.adjacency(eps), ref <= eps)
            for min_pts in _MIN_PTS_GRID:
                assert fd.blocks(eps, min_pts) == \
                    blocks_from_distance(ref, eps, min_pts)

    def test_single_feature_column(self):
        x = np.linspace(0.0, 1.0, 7).reshape(-1, 1)
        fd = FactoredDistance(x, 3)
        ref = smoothed_power_distance(x, 3)
        for eps in _EPS_GRID:
            assert np.array_equal(fd.adjacency(eps), ref <= eps)

    def test_identical_rows(self):
        # Zero covariance, zero distances: only the spacing penalty
        # separates pairs, on both paths identically.
        x = np.ones((5, 4))
        fd = FactoredDistance(x, 2)
        ref = smoothed_power_distance(x, 2)
        for eps in _EPS_GRID:
            assert np.array_equal(fd.adjacency(eps), ref <= eps)

    def test_forced_reference_chain_matches(self):
        # The all-or-nothing fallback must route every decision through
        # the lazily evaluated reference chain and still agree with the
        # dense path bit for bit.
        x = np.random.default_rng(7).standard_normal((9, 4))
        fd = FactoredDistance(x, 2)
        fd._force_exact = True
        ref = smoothed_power_distance(x, 2)
        for eps in _EPS_GRID:
            assert np.array_equal(fd.adjacency(eps), ref <= eps)
        assert fd.exact_evaluations > 0

    def test_fallback_fires_on_a_real_corpus_network(self):
        # random_dnn_31 of the 60-network seed=1 corpus (the fit.tx2
        # shape) has a decision inside the error band at window 2: the
        # fallback runs without being forced, and the blocks still equal
        # the reference chain's.
        from repro.core.features import DepthwiseFeatureExtractor
        from repro.models.random_gen import RandomDNNGenerator, spawn_seeds

        graph = RandomDNNGenerator(seed=spawn_seeds(1, 60)[30],
                                   start_index=30).generate()
        assert graph.name == "random_dnn_31"
        x = DepthwiseFeatureExtractor().extract_scaled(graph)
        fd = FactoredDistance(x, 2)
        blocks = fd.blocks(0.3, 2)
        assert fd.exact_evaluations > 0
        assert blocks == cluster_power_blocks_reference(x, 0.3, 2)

    def test_fallback_fires_between_two_eps(self):
        # The same network at window 2: eps=0.6 decides every pair from
        # the fast values, eps=0.3 straddles a band and runs the
        # fallback, and the answers on either side of it all equal the
        # reference chain's.
        from repro.core.features import DepthwiseFeatureExtractor
        from repro.models.random_gen import RandomDNNGenerator, spawn_seeds

        graph = RandomDNNGenerator(seed=spawn_seeds(1, 60)[30],
                                   start_index=30).generate()
        x = DepthwiseFeatureExtractor().extract_scaled(graph)
        ref = smoothed_power_distance(x, 2)
        fd = FactoredDistance(x, 2)
        assert np.array_equal(fd.adjacency(0.6), ref <= 0.6)
        assert fd.exact_evaluations == 0
        assert np.array_equal(fd.adjacency(0.3), ref <= 0.3)
        assert fd.exact_evaluations > 0
        for eps in (0.75, 0.6, 0.45):
            assert np.array_equal(fd.adjacency(eps), ref <= eps)

    def test_validation_matches_reference(self):
        with pytest.raises(ValueError):
            FactoredDistance(np.ones((3, 2)), 2, alpha=1.5)
        fd = FactoredDistance(np.ones((3, 2)), 2)
        with pytest.raises(ValueError):
            fd.adjacency(-0.1)
        with pytest.raises(ValueError):
            fd.blocks(0.3, 0)


class TestDbscanBorderClaims:
    """Pinned border cases of the DBSCAN labeling rule."""

    def test_noise_scanned_first_is_claimed_as_border(self):
        # Point 0 neighbours only point 1, so it is not core and the
        # classic scan marks it noise before any cluster exists; the
        # cluster seeded at core point 1 then claims it as a border.
        adjacent = np.array([[1, 1, 0, 0],
                             [1, 1, 1, 1],
                             [0, 1, 1, 1],
                             [0, 1, 1, 1]], dtype=bool)
        labels = dbscan(adjacent, 3)
        assert labels.tolist() == [0, 0, 0, 0]
        d = np.where(adjacent, 0.0, 1.0)
        assert labels.tolist() == \
            dbscan_precomputed_reference(d, 0.5, 3).tolist()

    def test_border_joins_lowest_numbered_cluster(self):
        # Point 3 is a non-core bridge between core point 2 (cluster 0,
        # with its borders 0 and 1) and core point 4 (cluster 1, with
        # 5 and 6): cluster 0 claims it, and no cluster chains through.
        adjacent = np.zeros((7, 7), dtype=bool)
        for group in ((0, 1, 2, 3), (3, 4, 5, 6)):
            for i in group:
                for j in group:
                    adjacent[i, j] = True
        adjacent[3, 0] = adjacent[0, 3] = False
        adjacent[3, 1] = adjacent[1, 3] = False
        adjacent[3, 5] = adjacent[5, 3] = False
        adjacent[3, 6] = adjacent[6, 3] = False
        # 3 neighbours only 2 and 4 (and itself): 3 points < min_pts=4.
        assert adjacent.sum(axis=1).tolist() == [3, 3, 4, 3, 4, 3, 3]
        labels = dbscan(adjacent, 4)
        assert labels.tolist() == [0, 0, 0, 0, 1, 1, 1]
        d = np.where(adjacent, 0.0, 1.0)
        assert labels.tolist() == \
            dbscan_precomputed_reference(d, 0.5, 4).tolist()

    def test_isolated_non_core_stays_noise(self):
        adjacent = np.eye(3, dtype=bool)
        adjacent[0, 1] = adjacent[1, 0] = True
        assert dbscan(adjacent, 3).tolist() == [NOISE] * 3

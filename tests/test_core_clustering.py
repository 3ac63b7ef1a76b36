"""Algorithm 1 tests: distances, DBSCAN and post-processing, with
property-based invariants on the block partition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import (
    NOISE,
    FactoredDistance,
    cluster_power_blocks,
    dbscan,
    process_clusters,
    smooth_features,
    spacing_by_gap,
)
from repro.core.schemes import ClusteringScheme
from tests.oracles import (
    dbscan_precomputed,
    mahalanobis_matrix,
    power_distance_matrix,
    spacing_matrix,
)


class TestMahalanobis:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 5))
        d = mahalanobis_matrix(x)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.all(d >= 0)

    def test_median_normalization(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 4))
        d = mahalanobis_matrix(x)
        off = d[~np.eye(20, dtype=bool)]
        assert np.median(off) == pytest.approx(1.0)

    def test_identical_rows_distance_zero(self):
        x = np.vstack([np.ones(4), np.ones(4), np.zeros(4)])
        d = mahalanobis_matrix(x)
        assert d[0, 1] == pytest.approx(0.0)
        assert d[0, 2] > 0

    def test_handles_collinear_features(self):
        """Pseudo-inverse must cope with duplicate / constant columns."""
        rng = np.random.default_rng(2)
        base = rng.normal(size=(10, 2))
        x = np.hstack([base, base[:, :1], np.ones((10, 1))])
        d = mahalanobis_matrix(x)
        assert np.all(np.isfinite(d))

    def test_degenerate_sizes(self):
        assert mahalanobis_matrix(np.zeros((0, 3))).shape == (0, 0)
        assert mahalanobis_matrix(np.zeros((1, 3))).shape == (1, 1)

    def test_scale_invariance(self):
        """Mahalanobis whitening makes the distance insensitive to
        per-feature scaling — the reason the paper chose it."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(15, 4))
        scaled = x * np.array([1.0, 100.0, 0.01, 5.0])
        assert np.allclose(mahalanobis_matrix(x),
                           mahalanobis_matrix(scaled), atol=1e-6)


class TestSpacing:
    def test_penalty_grows_with_gap(self):
        r = spacing_matrix(10, lam=0.2, mode="penalty")
        assert r[0, 1] < r[0, 5] < r[0, 9]
        assert r[0, 0] == 0.0

    def test_paper_mode_decays(self):
        r = spacing_matrix(10, lam=0.2, mode="paper")
        assert r[0, 1] > r[0, 5] > r[0, 9]
        assert r[0, 0] == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            spacing_matrix(5, lam=-1)
        with pytest.raises(ValueError):
            spacing_matrix(5, lam=0.1, mode="bogus")

    def test_blend_bounds(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 4))
        with pytest.raises(ValueError):
            power_distance_matrix(x, alpha=1.5)
        d = power_distance_matrix(x, alpha=0.5, lam=0.1)
        assert np.allclose(np.diag(d), 0.0)
        assert np.all(d >= 0)


class TestDBSCAN:
    def test_two_well_separated_clusters(self):
        # points 0-4 mutually close, 5-9 mutually close, groups far apart
        d = np.full((10, 10), 10.0)
        np.fill_diagonal(d, 0.0)
        d[:5, :5] = 0.1
        d[5:, 5:] = 0.1
        np.fill_diagonal(d, 0.0)
        labels = dbscan_precomputed(d, eps=0.5, min_pts=3)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]
        assert NOISE not in labels

    def test_sparse_points_are_noise(self):
        d = np.full((5, 5), 10.0)
        np.fill_diagonal(d, 0.0)
        labels = dbscan_precomputed(d, eps=0.5, min_pts=2)
        assert all(lab == NOISE for lab in labels)

    def test_border_points_adopt_cluster(self):
        # 0,1,2 dense core; 3 within eps of 2 only (border).
        d = np.array([
            [0.0, 0.1, 0.1, 9.0],
            [0.1, 0.0, 0.1, 9.0],
            [0.1, 0.1, 0.0, 0.4],
            [9.0, 9.0, 0.4, 0.0],
        ])
        labels = dbscan_precomputed(d, eps=0.5, min_pts=3)
        assert labels[3] == labels[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dbscan_precomputed(np.zeros((2, 3)), 0.1, 2)
        with pytest.raises(ValueError):
            dbscan_precomputed(np.zeros((3, 3)), -0.1, 2)
        with pytest.raises(ValueError):
            dbscan_precomputed(np.zeros((3, 3)), 0.1, 0)

    def test_adjacency_validation(self):
        with pytest.raises(ValueError, match="square"):
            dbscan(np.zeros((2, 3), dtype=bool), 2)
        with pytest.raises(ValueError, match="min_pts"):
            dbscan(np.eye(3, dtype=bool), 0)

    def test_min_pts_one_no_noise(self):
        d = np.full((4, 4), 10.0)
        np.fill_diagonal(d, 0.0)
        labels = dbscan_precomputed(d, eps=0.5, min_pts=1)
        assert NOISE not in labels
        assert len(set(labels)) == 4


def _assert_partition(blocks, n):
    covered = [i for b in blocks for i in b]
    assert covered == list(range(n))
    for b in blocks:
        assert list(b) == list(range(b[0], b[-1] + 1))


class TestPostProcess:
    def test_contiguous_labels_pass_through(self):
        blocks = process_clusters([0, 0, 0, 1, 1, 1], mode_window=0)
        _assert_partition(blocks, 6)
        assert len(blocks) == 2

    def test_interleaved_labels_recovered_by_mode_filter(self):
        # Two stages of interleaved kinds: region A = labels {0,1},
        # region B = labels {2,3}.
        labels = [0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3]
        blocks = process_clusters(labels, min_block_size=3)
        _assert_partition(blocks, 12)
        assert len(blocks) == 2
        assert blocks[0][-1] in (5, 6)

    def test_noise_absorbed(self):
        blocks = process_clusters([0, 0, -1, 1, 1], mode_window=0)
        _assert_partition(blocks, 5)

    def test_all_noise_single_block(self):
        blocks = process_clusters([-1, -1, -1, -1], mode_window=0)
        _assert_partition(blocks, 4)
        assert len(blocks) == 1

    def test_small_runs_merged(self):
        blocks = process_clusters([0, 0, 0, 1, 0, 0, 0],
                                  min_block_size=2, mode_window=0)
        _assert_partition(blocks, 7)
        for b in blocks[:-1]:
            assert len(b) >= 2

    def test_empty(self):
        assert process_clusters([]) == []

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(-1, 4), min_size=1, max_size=60),
           min_size=st.integers(1, 5),
           window=st.integers(0, 4))
    def test_partition_invariants(self, labels, min_size, window):
        """Property: output is always an ordered, contiguous, complete,
        non-overlapping partition, whatever the input labels."""
        blocks = process_clusters(labels, min_block_size=min_size,
                                  mode_window=window)
        _assert_partition(blocks, len(labels))


class TestEndToEnd:
    def test_smooth_features_window_zero_identity(self):
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(smooth_features(x, 0), x)

    def test_smooth_features_averages(self):
        x = np.array([[0.0], [3.0], [6.0]])
        s = smooth_features(x, 1)
        assert s[1, 0] == pytest.approx(3.0)
        assert s[0, 0] == pytest.approx(1.5)

    def test_cluster_power_blocks_partition(self, small_cnn):
        from repro.core.features import DepthwiseFeatureExtractor
        x = DepthwiseFeatureExtractor().extract_scaled(small_cnn)
        for eps in (0.3, 0.6):
            for mp in (2, 4):
                blocks = cluster_power_blocks(x, eps, mp)
                _assert_partition(blocks, x.shape[0])

    def test_single_op(self):
        assert cluster_power_blocks(np.ones((1, 4)), 0.5, 2) == [[0]]

    def test_empty(self):
        assert cluster_power_blocks(np.zeros((0, 4)), 0.5, 2) == []

    def test_heterogeneous_stages_split(self):
        """A network whose depthwise features change sharply mid-sequence
        should split into (at least) two blocks at a suitable scheme."""
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.05, size=(20, 6))
        b = rng.normal(4.0, 0.05, size=(20, 6))
        x = np.vstack([a, b])
        blocks = cluster_power_blocks(x, eps=0.5, min_pts=3,
                                      smooth_window=0)
        assert len(blocks) == 2
        assert blocks[0][-1] == 19


def _features(n=46, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 6))


class TestHyperparameterValidation:
    """NaN compares False against every bound, so ``eps < 0`` alone
    would let a NaN epsilon through and silently yield one block."""

    @pytest.mark.parametrize("eps", [float("nan"), -0.1])
    @pytest.mark.parametrize("entry", [
        lambda eps: ClusteringScheme(eps=eps, min_pts=2),
        lambda eps: FactoredDistance(_features(), 2).adjacency(eps),
        lambda eps: FactoredDistance(_features(), 2).blocks(eps, 2),
        lambda eps: cluster_power_blocks(_features(), eps, 2),
    ], ids=["scheme", "adjacency", "blocks", "cluster_power_blocks"])
    def test_bad_eps_rejected(self, entry, eps):
        with pytest.raises(ValueError, match="eps"):
            entry(eps)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                     float("-inf"), -0.1])
    @pytest.mark.parametrize("entry", [
        lambda lam: spacing_by_gap(8, lam),
        lambda lam: FactoredDistance(_features(), 2, lam=lam),
        lambda lam: cluster_power_blocks(_features(), 0.5, 2, lam=lam),
    ], ids=["spacing_by_gap", "factored", "cluster_power_blocks"])
    def test_bad_lambda_rejected(self, entry, lam):
        with pytest.raises(ValueError, match="lambda"):
            entry(lam)

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_sizes_validated(self, n):
        x = _features(n)
        with pytest.raises(ValueError, match="eps"):
            cluster_power_blocks(x, float("nan"), 2)
        with pytest.raises(ValueError, match="lambda"):
            cluster_power_blocks(x, 0.5, 2, lam=float("nan"))
        with pytest.raises(ValueError, match="min_pts"):
            cluster_power_blocks(x, 0.5, 0)

    def test_valid_bounds_accepted(self):
        assert ClusteringScheme(eps=0.0, min_pts=1).eps == 0.0
        assert spacing_by_gap(3, 0.0).tolist() == [0.0, 0.0, 0.0]
        _assert_partition(cluster_power_blocks(_features(), 0.0, 2), 46)

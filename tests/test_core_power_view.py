"""PowerView / PowerBlock IR tests."""

import numpy as np
import pytest

from repro.core import PowerView
from repro.core.features import GlobalFeatureExtractor


def _view(graph, splits):
    n = len(graph.compute_nodes())
    bounds = [0, *splits, n]
    blocks = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    return PowerView.from_blocks(graph, blocks, eps=0.5, min_pts=2)


class TestConstruction:
    def test_from_blocks(self, small_cnn):
        view = _view(small_cnn, [4])
        assert view.n_blocks == 2
        assert view.blocks[0].start == 0
        assert view.blocks[1].start == 4
        assert view.eps == 0.5

    def test_block_properties(self, small_cnn):
        view = _view(small_cnn, [4])
        b0 = view.blocks[0]
        assert len(b0) == 4
        assert b0.end == 4
        assert b0.features.vector.shape[0] > 0

    def test_non_contiguous_rejected(self, small_cnn):
        with pytest.raises(ValueError, match="not contiguous"):
            PowerView.from_blocks(small_cnn, [[0, 2], [1]])

    def test_gap_rejected(self, small_cnn):
        n = len(small_cnn.compute_nodes())
        with pytest.raises(ValueError, match="covers"):
            PowerView.from_blocks(small_cnn, [list(range(n - 1))])

    def test_overlap_rejected(self, small_cnn):
        n = len(small_cnn.compute_nodes())
        with pytest.raises(ValueError, match="covers"):
            PowerView.from_blocks(
                small_cnn, [list(range(0, 5)), list(range(4, n))])


class TestAccess:
    def test_boundaries_are_instrumentation_points(self, small_cnn):
        view = _view(small_cnn, [4, 8])
        assert [b.start for b in view.blocks] == [0, 4, 8]

    def test_feature_matrix_shape(self, small_cnn):
        view = _view(small_cnn, [4])
        ext = GlobalFeatureExtractor()
        m = view.feature_matrix()
        assert m.shape == (2, ext.structural_dim + ext.statistics_dim)
        assert np.all(np.isfinite(m))

    def test_summary_mentions_all_blocks(self, small_cnn):
        view = _view(small_cnn, [4])
        s = view.summary()
        assert "block 0" in s and "block 1" in s
        assert small_cnn.name in s

    def test_to_dot(self, small_cnn):
        dot = _view(small_cnn, [4]).to_dot()
        assert dot.startswith("digraph")

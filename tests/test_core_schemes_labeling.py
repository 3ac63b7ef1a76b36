"""Scheme grid and dataset-labeling tests."""

import numpy as np
import pytest

from repro.core.features import DepthwiseFeatureExtractor
from repro.core.labeling import (
    QUALITY_TOLERANCE,
    _evaluate_view,
    _span_of,
    best_scheme_for_graph,
)
from repro.core.schemes import ClusteringScheme, default_scheme_grid
from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator, ProfileTable


@pytest.fixture()
def evaluator(tx2):
    return AnalyticEvaluator(tx2)


def _quality(evaluator, graph, blocks, batch_size=16):
    """The scheme-sweep's rating of one view (default latency slack)."""
    table = evaluator.profile_table(graph, batch_size)
    quality, _levels = _evaluate_view(table, blocks, 0.25, graph.name)
    return quality


class TestSchemes:
    def test_grid_size_and_uniqueness(self):
        grid = default_scheme_grid()
        assert len(grid) == 12
        assert len(set(grid)) == 12

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            ClusteringScheme(eps=-0.1, min_pts=2)
        with pytest.raises(ValueError):
            ClusteringScheme(eps=0.1, min_pts=0)

    def test_label(self):
        s = ClusteringScheme(eps=0.45, min_pts=4)
        assert s.label() == "eps=0.45,minPts=4"


class TestBlockLabeling:
    def test_block_optimal_level_in_range(self, evaluator, small_cnn,
                                          tx2):
        n = len(small_cnn.compute_nodes())
        [lvl] = evaluator.profile_table(small_cnn, 8).levels([(0, n)], 0.25)
        assert 0 <= lvl <= tx2.max_level

    def test_optimal_below_max(self, evaluator, small_cnn):
        """The whole point of the paper: the EE-optimal level sits below
        the maximum frequency."""
        n = len(small_cnn.compute_nodes())
        [lvl] = evaluator.profile_table(small_cnn, 8).levels([(0, n)], 0.25)
        assert lvl < evaluator.platform.max_level

    def test_plan_levels_one_per_block(self, evaluator, small_cnn):
        n = len(small_cnn.compute_nodes())
        levels = evaluator.profile_table(small_cnn, 8).levels(
            [(0, n // 2), (n // 2, n)], 0.25)
        assert len(levels) == 2

    def test_view_blocks_become_spans(self):
        assert _span_of([3, 4, 5]) == (3, 6)
        assert _span_of(range(2, 4)) == (2, 4)
        assert _span_of([]) == (0, 0)

    @pytest.mark.parametrize("block", [[0, 2], [1, 0], [0, 2, 2]])
    def test_non_contiguous_block_rejected(self, evaluator, small_cnn,
                                           block):
        with pytest.raises(ValueError, match="contiguous"):
            _span_of(block)
        with pytest.raises(ValueError, match="contiguous"):
            _quality(evaluator, small_cnn, [block])


class TestSchemeQuality:
    def test_quality_positive(self, evaluator, small_cnn):
        n = len(small_cnn.compute_nodes())
        q = _quality(evaluator, small_cnn, [list(range(n))], batch_size=8)
        assert q > 0

    def test_empty_blocks_zero(self, evaluator, small_cnn):
        assert _quality(evaluator, small_cnn, []) == 0.0

    def test_zero_op_graph_rates_every_scheme_zero(self, evaluator):
        graph = Graph("empty")
        grid = default_scheme_grid()
        best, blocks, qualities = best_scheme_for_graph(
            evaluator, graph, np.zeros((0, 4)), grid, batch_size=8)
        assert (best, blocks) == (0, [])
        assert qualities == [0.0] * len(grid)

    def test_non_positive_energy_names_the_graph(self, evaluator,
                                                 small_cnn, monkeypatch):
        monkeypatch.setattr(ProfileTable, "plan_energy_time",
                            lambda self, spans, levels: (0.0, 1.0))
        n = len(small_cnn.compute_nodes())
        with pytest.raises(ValueError, match=repr(small_cnn.name)):
            _quality(evaluator, small_cnn, [list(range(n))])

    def test_quality_is_reciprocal_energy(self, evaluator, small_cnn):
        n = len(small_cnn.compute_nodes())
        blocks = [list(range(n))]
        q = _quality(evaluator, small_cnn, blocks, batch_size=8)
        table = evaluator.profile_table(small_cnn, 8)
        levels = table.levels([(0, n)], 0.25)
        e, _t = table.plan_energy_time([(0, n)], levels)
        assert q == pytest.approx(1.0 / e)


class TestBestScheme:
    def test_returns_valid_index_and_partition(self, evaluator,
                                               small_cnn):
        feats = DepthwiseFeatureExtractor().extract_scaled(small_cnn)
        grid = default_scheme_grid()
        best, blocks, qualities = best_scheme_for_graph(
            evaluator, small_cnn, feats, grid, batch_size=8)
        assert 0 <= best < len(grid)
        assert len(qualities) == len(grid)
        covered = sorted(i for b in blocks for i in b)
        assert covered == list(range(len(small_cnn.compute_nodes())))

    def test_winner_quality_within_tolerance_of_best(self, evaluator,
                                                     small_cnn):
        feats = DepthwiseFeatureExtractor().extract_scaled(small_cnn)
        grid = default_scheme_grid()
        best, _blocks, qualities = best_scheme_for_graph(
            evaluator, small_cnn, feats, grid, batch_size=8)
        assert qualities[best] >= \
            max(qualities) * (1 - QUALITY_TOLERANCE) - 1e-12

    def test_tie_break_prefers_finer_view(self, evaluator, small_cnn):
        """Among quality-equivalent schemes the finest view wins."""
        feats = DepthwiseFeatureExtractor().extract_scaled(small_cnn)
        grid = default_scheme_grid()
        best, blocks, qualities = best_scheme_for_graph(
            evaluator, small_cnn, feats, grid, batch_size=8)
        from repro.core.clustering import cluster_power_blocks
        top = max(qualities)
        for i, s in enumerate(grid):
            if qualities[i] >= top * (1 - QUALITY_TOLERANCE):
                other = cluster_power_blocks(feats, s.eps, s.min_pts)
                assert len(other) <= len(blocks)

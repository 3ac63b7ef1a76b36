"""Scheme grid and dataset-labeling tests."""

import numpy as np
import pytest

from repro.core.features import DepthwiseFeatureExtractor
from repro.core.labeling import (
    QUALITY_TOLERANCE,
    _evaluate_view,
    best_scheme_for_graph,
    plan_levels_for_blocks,
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
        [lvl] = plan_levels_for_blocks(evaluator, small_cnn, [range(n)],
                                       batch_size=8)
        assert 0 <= lvl <= tx2.max_level

    def test_optimal_below_max(self, evaluator, small_cnn):
        """The whole point of the paper: the EE-optimal level sits below
        the maximum frequency."""
        n = len(small_cnn.compute_nodes())
        [lvl] = plan_levels_for_blocks(evaluator, small_cnn, [range(n)],
                                       batch_size=8)
        assert lvl < evaluator.platform.max_level

    def test_plan_levels_one_per_block(self, evaluator, small_cnn):
        n = len(small_cnn.compute_nodes())
        blocks = [list(range(n // 2)), list(range(n // 2, n))]
        levels = plan_levels_for_blocks(evaluator, small_cnn, blocks,
                                        batch_size=8)
        assert len(levels) == 2


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
                            lambda self, blocks, levels: (0.0, 1.0))
        n = len(small_cnn.compute_nodes())
        with pytest.raises(ValueError, match=repr(small_cnn.name)):
            _quality(evaluator, small_cnn, [list(range(n))])

    def test_quality_is_reciprocal_energy(self, evaluator, small_cnn):
        n = len(small_cnn.compute_nodes())
        blocks = [list(range(n))]
        q = _quality(evaluator, small_cnn, blocks, batch_size=8)
        levels = plan_levels_for_blocks(evaluator, small_cnn, blocks,
                                        batch_size=8)
        e, _t = evaluator.profile_table(small_cnn, 8).plan_energy_time(
            blocks, levels)
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

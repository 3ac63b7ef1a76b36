"""Byte-identity suites for the vectorized labeling fast path.

Every optimization in the labeling hot path (pairs-einsum Mahalanobis,
pair-based DBSCAN, one-hot-cumsum majority filter, ProfileTable span
reductions, memoized scheme sweep) has its original loop
implementation kept as a ``*_reference`` oracle in ``tests/oracles.py``;
these property tests pin the fast paths to the oracles **byte for
byte** — ``tobytes()``, not
``allclose`` — so labeling output (and therefore every dataset cache
key's payload) is provably unchanged by the optimization work.
"""

import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    FactoredDistance,
    _mode_filter,
    cluster_power_blocks,
)
from repro.core import labeling
from repro.core.labeling import _sweep_schemes, label_network
from repro.core.schemes import ClusteringScheme, default_scheme_grid
from repro.core.features import DepthwiseFeatureExtractor
from repro.hw import analytic
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import jetson_tx2
from repro.models.random_gen import RandomDNNConfig, RandomDNNGenerator
from tests.oracles import (
    _blend_distances,
    block_profile_reference,
    cluster_power_blocks_reference,
    dbscan_precomputed,
    dbscan_precomputed_reference,
    label_network_reference,
    mahalanobis_matrix,
    mahalanobis_matrix_reference,
    mode_filter_reference,
    plan_energy_time_reference,
    profile_reference,
)

#: Small population + coarse grid keeps the exhaustive sweeps CI-fast.
_SMALL_DNNS = RandomDNNConfig(min_stages=2, max_stages=3,
                              max_blocks_per_stage=3)
_SMALL_GRID = [ClusteringScheme(eps=e, min_pts=m)
               for e in (0.45, 0.75) for m in (2, 4)]


def _assert_bytes_equal(fast: np.ndarray, ref: np.ndarray) -> None:
    assert fast.shape == ref.shape
    assert fast.dtype == ref.dtype
    assert fast.tobytes() == ref.tobytes()


def _random_graph(seed: int):
    return RandomDNNGenerator(_SMALL_DNNS, seed=seed).generate()


# ----------------------------------------------------------------------
# clustering primitives
# ----------------------------------------------------------------------

def _mahalanobis_input(seed: int, n: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    # Collinear / constant columns exercise the pseudo-inverse.
    if d > 1 and seed % 3 == 0:
        x[:, -1] = x[:, 0]
    if d > 2 and seed % 5 == 0:
        x[:, 1] = 7.0
    return x


class TestMahalanobisEquivalence:
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 24),
           d=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, seed, n, d):
        x = _mahalanobis_input(seed, n, d)
        _assert_bytes_equal(mahalanobis_matrix(x),
                            mahalanobis_matrix_reference(x))

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 24),
           d=st.integers(1, 6), alpha=st.floats(0.0, 1.0),
           lam=st.floats(0.0, 1.0),
           mode=st.sampled_from(["penalty", "paper"]))
    @settings(max_examples=80, deadline=None)
    def test_factored_exact_matches_full_einsum(self, seed, n, d, alpha,
                                                lam, mode):
        """The pair einsum inside ``FactoredDistance`` — the package's
        only copy of that arithmetic — reproduces the full-einsum
        blended matrix's upper triangle byte for byte."""
        x = _mahalanobis_input(seed, n, d)
        fd = FactoredDistance(x, 0, alpha=alpha, lam=lam,
                              spacing_mode=mode)
        fd._force_exact = True
        reference = _blend_distances(mahalanobis_matrix_reference(x), n,
                                     alpha, lam, mode)
        iu, ju = np.triu_indices(n, k=1)
        _assert_bytes_equal(fd._ensure_exact(), reference[iu, ju])
        for eps in (0.0, 0.3, 1.0):
            _assert_bytes_equal(fd.adjacency(eps), reference <= eps)


class TestDbscanEquivalence:
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 30),
           eps=st.floats(0.05, 1.5), min_pts=st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, seed, n, eps, min_pts):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 1.0, size=(n, n))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        _assert_bytes_equal(dbscan_precomputed(d, eps, min_pts),
                            dbscan_precomputed_reference(d, eps, min_pts))

    def test_empty_matrix(self):
        d = np.zeros((0, 0))
        _assert_bytes_equal(dbscan_precomputed(d, 0.5, 2),
                            dbscan_precomputed_reference(d, 0.5, 2))


class TestModeFilterEquivalence:
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 60),
           n_labels=st.integers(1, 5), window=st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, seed, n, n_labels, window):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, n_labels, size=n)  # -1 = noise
        _assert_bytes_equal(_mode_filter(labels.copy(), window),
                            mode_filter_reference(labels.copy(), window))


class TestClusterPowerBlocksEquivalence:
    @given(seed=st.integers(0, 10**6), n=st.integers(0, 24),
           eps=st.floats(0.2, 0.9), min_pts=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, n, eps, min_pts):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 4))
        assert cluster_power_blocks(x, eps, min_pts) == \
            cluster_power_blocks_reference(x, eps, min_pts)


# ----------------------------------------------------------------------
# ProfileTable vs the per-op loop
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tx2_evaluator():
    return AnalyticEvaluator(jetson_tx2())


class TestProfileTableEquivalence:
    @given(seed=st.integers(0, 10**4), batch=st.sampled_from([1, 4, 16]),
           pick=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_block_profile_bitwise(self, tx2_evaluator, seed, batch, pick):
        graph = _random_graph(seed)
        n_ops = len(graph.compute_nodes())
        rng = np.random.default_rng(pick)
        start = int(rng.integers(0, n_ops))
        stop = int(rng.integers(start + 1, n_ops + 1))
        table = tx2_evaluator.profile_table(graph, batch)
        for span in ((start, start), (start, stop), (0, stop),
                     (0, n_ops)):
            fast = table.span_profile(*span)
            ref = block_profile_reference(tx2_evaluator, graph,
                                          range(*span), batch)
            _assert_bytes_equal(fast.times, ref.times)
            _assert_bytes_equal(fast.energies, ref.energies)

    @given(seed=st.integers(0, 10**4), batch=st.sampled_from([1, 16]))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_graph_profile_bitwise(self, tx2_evaluator, seed, batch):
        graph = _random_graph(seed)
        works = tx2_evaluator.latency.graph_work(graph)
        table = tx2_evaluator.profile_table(graph, batch)
        fast = table.span_profile(0, table.n_ops)
        ref = profile_reference(tx2_evaluator, works, batch)
        _assert_bytes_equal(fast.times, ref.times)
        _assert_bytes_equal(fast.energies, ref.energies)

    @given(seed=st.integers(0, 10**4), split=st.integers(0, 10**6),
           batch=st.sampled_from([1, 16]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_plan_energy_time_bitwise(self, tx2_evaluator, seed, split,
                                      batch):
        graph = _random_graph(seed)
        n_ops = len(graph.compute_nodes())
        rng = np.random.default_rng(split)
        n_cuts = int(rng.integers(0, min(4, n_ops)))
        cuts = sorted(rng.choice(range(1, n_ops), size=n_cuts,
                                 replace=False).tolist()) if n_cuts else []
        bounds = [0] + cuts + [n_ops]
        spans = list(zip(bounds, bounds[1:]))
        levels = [int(rng.integers(0, tx2_evaluator.platform.n_levels))
                  for _ in spans]
        fast = tx2_evaluator.profile_table(graph, batch).plan_energy_time(
            spans, levels)
        ref = plan_energy_time_reference(
            tx2_evaluator, graph, [range(a, b) for a, b in spans], levels,
            batch)
        assert np.float64(fast[0]).tobytes() == np.float64(ref[0]).tobytes()
        assert np.float64(fast[1]).tobytes() == np.float64(ref[1]).tobytes()


# ----------------------------------------------------------------------
# end-to-end label_network
# ----------------------------------------------------------------------

class TestLabelNetworkEquivalence:
    @given(seed=st.integers(0, 10**4))
    @settings(max_examples=10, deadline=None)
    def test_end_to_end_bitwise(self, seed):
        platform = jetson_tx2()
        graph = _random_graph(seed)
        features = DepthwiseFeatureExtractor().extract_scaled(graph)
        fast = label_network(AnalyticEvaluator(platform), graph,
                             features, _SMALL_GRID)
        ref = label_network_reference(AnalyticEvaluator(platform), graph,
                                      features, _SMALL_GRID)
        assert fast.best_scheme == ref.best_scheme
        assert fast.blocks == ref.blocks
        assert fast.levels == ref.levels
        assert len(fast.qualities) == len(ref.qualities)
        for q_fast, q_ref in zip(fast.qualities, ref.qualities):
            assert np.float64(q_fast).tobytes() == \
                np.float64(q_ref).tobytes()
        # NetworkLabels compares by content; telemetry is excluded.
        assert fast == ref


class TestFastPathSmoke:
    def test_label_network_smoke(self, tiny_platform):
        """Tier-1 smoke: one tiny end-to-end labeling through the fast
        path produces a well-formed result with stage telemetry."""
        graph = _random_graph(3)
        features = DepthwiseFeatureExtractor().extract_scaled(graph)
        labels = label_network(AnalyticEvaluator(tiny_platform), graph,
                               features, _SMALL_GRID)
        n_ops = len(graph.compute_nodes())
        assert 0 <= labels.best_scheme < len(_SMALL_GRID)
        assert sorted(i for b in labels.blocks for i in b) == \
            list(range(n_ops))
        assert len(labels.levels) == len(labels.blocks)
        assert all(0 <= lv < tiny_platform.n_levels
                   for lv in labels.levels)
        assert labels.stage_seconds is not None
        assert set(labels.stage_seconds) == \
            {"distance", "cluster", "evaluate"}
        assert all(v >= 0.0 for v in labels.stage_seconds.values())

    def test_profile_table_cache_reused(self, tiny_platform):
        evaluator = AnalyticEvaluator(tiny_platform)
        graph = _random_graph(5)
        t1 = evaluator.profile_table(graph, 16)
        t2 = evaluator.profile_table(graph, 16)
        assert t1 is t2
        assert evaluator.profile_table(graph, 1) is not t1


class TestSweepStructure:
    """How the scheme sweep spends its memory and its pricing work."""

    @staticmethod
    def _network():
        graph = RandomDNNGenerator(seed=11).generate()
        return graph, DepthwiseFeatureExtractor().extract_scaled(graph)

    def test_one_distance_stage_alive_at_a_time(self, monkeypatch):
        alive = []

        class Tracked(labeling.FactoredDistance):
            def __init__(self, *args, **kwargs):
                assert all(ref() is None for ref in alive), \
                    "a previous window's FactoredDistance is still alive"
                super().__init__(*args, **kwargs)
                alive.append(weakref.ref(self))

        monkeypatch.setattr(labeling, "FactoredDistance", Tracked)
        graph, features = self._network()
        grid = default_scheme_grid()
        label_network(AnalyticEvaluator(jetson_tx2()), graph, features,
                      grid)
        assert len(alive) == len({max(2, s.min_pts) for s in grid})
        assert all(ref() is None for ref in alive)

    def test_each_distinct_block_priced_once(self, monkeypatch):
        priced = []
        level_profile = analytic.LevelProfile

        def counting(**kwargs):
            priced.append(1)
            return level_profile(**kwargs)

        monkeypatch.setattr(analytic, "LevelProfile", counting)
        graph, features = self._network()
        evaluator = AnalyticEvaluator(jetson_tx2())
        sweep = _sweep_schemes(evaluator, graph, features,
                               default_scheme_grid(), 16, 0.25, 0.6, 0.05)
        distinct = {(b[0], b[-1] + 1) for view in sweep.views
                    for b in view}
        assert sum(len(view) for view in sweep.views) > len(distinct)
        assert set(evaluator.profile_table(graph, 16)._spans) == distinct
        assert len(priced) == len(distinct)

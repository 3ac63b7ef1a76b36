"""Serial-equivalence and determinism harness for parallel dataset
generation.

The core guarantee of the process-pool fan-out: ``generate(n, seed,
n_jobs=k)`` is a pure function of ``(generator configuration, n,
seed)`` — worker count and scheduling must never leak into the
datasets.  Byte-level comparisons, not ``allclose``.
"""

import numpy as np
import pytest

from repro.core.datasets import (
    DatasetGenerator,
    GenerationStats,
)
from repro.core.schemes import ClusteringScheme
from repro.models.random_gen import RandomDNNConfig, spawn_seeds

#: Small population + coarse grid keeps the exhaustive sweeps CI-fast.
_SMALL_DNNS = RandomDNNConfig(min_stages=2, max_stages=3,
                              max_blocks_per_stage=3)
_SMALL_GRID = [ClusteringScheme(eps=e, min_pts=m)
               for e in (0.45, 0.75) for m in (2, 4)]


def _small_generator(platform) -> DatasetGenerator:
    return DatasetGenerator(platform, schemes=_SMALL_GRID,
                            dnn_config=_SMALL_DNNS)


def _assert_identical(run1, run2) -> None:
    """Byte-identical Dataset A/B plus identical per-network block
    counts."""
    a1, b1, s1 = run1
    a2, b2, s2 = run2
    for x, y in [(a1.x_struct, a2.x_struct), (a1.x_stats, a2.x_stats),
                 (a1.y, a2.y), (a1.qualities, a2.qualities),
                 (b1.x, b2.x), (b1.y, b2.y)]:
        assert x.shape == y.shape
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    assert a1.n_schemes == a2.n_schemes
    assert b1.n_levels == b2.n_levels
    assert s1.blocks_per_network == s2.blocks_per_network


class TestSerialEquivalence:
    def test_pool_matches_serial(self, tiny_platform):
        """The tentpole guarantee: n_jobs=1 and n_jobs=4 are
        byte-identical."""
        serial = _small_generator(tiny_platform).generate(
            8, seed=11, n_jobs=1)
        pooled = _small_generator(tiny_platform).generate(
            8, seed=11, n_jobs=4)
        _assert_identical(serial, pooled)
        assert serial[2].n_jobs == 1
        assert pooled[2].n_jobs == 4

    def test_pool_smoke_two_workers(self, tiny_platform):
        """CI smoke: the pool path runs and produces a well-formed
        corpus at n_jobs=2."""
        a, b, stats = _small_generator(tiny_platform).generate(
            8, seed=0, n_jobs=2)
        assert len(a) == 8
        assert stats.n_jobs == 2
        assert stats.n_networks == 8
        assert sum(stats.blocks_per_network) == len(b)
        assert np.all(b.y >= 0) and np.all(b.y < b.n_levels)

    def test_n_jobs_capped_at_corpus_size(self, tiny_platform):
        _a, _b, stats = _small_generator(tiny_platform).generate(
            2, seed=0, n_jobs=16)
        assert stats.n_jobs == 2

    def test_n_jobs_auto(self, tiny_platform, monkeypatch):
        import os
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        _a, _b, stats = _small_generator(tiny_platform).generate(
            3, seed=0, n_jobs=None)
        assert stats.n_jobs == 2


class TestDeterminism:
    def test_same_seed_fresh_instances_identical(self, tiny_platform):
        """Guards against global-RNG reuse: two fresh generators with
        one seed must agree bit for bit."""
        run1 = _small_generator(tiny_platform).generate(6, seed=5)
        run2 = _small_generator(tiny_platform).generate(6, seed=5)
        _assert_identical(run1, run2)

    def test_different_seeds_differ(self, tiny_platform):
        a1, b1, _ = _small_generator(tiny_platform).generate(6, seed=0)
        a2, b2, _ = _small_generator(tiny_platform).generate(6, seed=1)
        assert a1.x_struct.tobytes() != a2.x_struct.tobytes()
        # Label distributions must differ too, not just features.
        dist1 = np.bincount(b1.y, minlength=b1.n_levels)
        dist2 = np.bincount(b2.y, minlength=b2.n_levels)
        assert not np.array_equal(dist1, dist2)

    def test_seed_stream_is_deterministic(self):
        assert spawn_seeds(42, 10) == spawn_seeds(42, 10)
        assert spawn_seeds(42, 10) != spawn_seeds(43, 10)
        # Prefix-stable: growing the corpus never reshuffles earlier
        # networks' seeds.
        assert spawn_seeds(42, 10)[:4] == spawn_seeds(42, 4)

    def test_seed_stream_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestProgressAndStats:
    def test_throughput_properties(self):
        stats = GenerationStats(n_networks=10, n_blocks=40,
                                wall_time_s=2.0)
        assert stats.networks_per_s == pytest.approx(5.0)
        assert stats.blocks_per_s == pytest.approx(20.0)
        assert GenerationStats().networks_per_s == 0.0
        assert GenerationStats().blocks_per_s == 0.0

    def test_invalid_count_still_rejected(self, tiny_platform):
        with pytest.raises(ValueError):
            _small_generator(tiny_platform).generate(0)


class TestCacheKeyStability:
    def test_default_config_key_is_pinned(self):
        """The dataset cache key for the default TX2 configuration is
        pinned to a literal: the labeling fast path is byte-identical to
        the pre-optimization implementation, so previously cached
        corpora must remain valid (no key churn, no version bump).  If
        this test fails, either generation output genuinely changed
        (bump ``DATASET_CACHE_VERSION`` and re-pin) or the key function
        picked up an accidental input."""
        from repro.core.persistence import dataset_cache_key
        from repro.core.schemes import default_scheme_grid
        from repro.hw.platform import jetson_tx2

        key = dataset_cache_key(
            jetson_tx2(), default_scheme_grid(), RandomDNNConfig(),
            batch_size=16, latency_slack=0.25, alpha=0.6, lam=0.05,
            n_networks=300, seed=0)
        assert key == "6e32124be0667f530303dc9a7e4368df"


class TestStageTelemetry:
    def test_stage_seconds_aggregated(self, tiny_platform):
        """Per-network labeling stage timings roll up into
        GenerationStats across both generation paths."""
        _a, _b, stats = _small_generator(tiny_platform).generate(
            4, seed=3, n_jobs=1)
        assert set(stats.stage_seconds) == \
            {"distance", "cluster", "evaluate"}
        assert all(v >= 0.0 for v in stats.stage_seconds.values())
        _a, _b, pooled = _small_generator(tiny_platform).generate(
            4, seed=3, n_jobs=2)
        assert set(pooled.stage_seconds) == \
            {"distance", "cluster", "evaluate"}

"""Dataset persistence: property-based .npz round-trips, the
ResourceWarning-clean load fix, and the on-disk generation cache."""

import gc
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PowerLens, PowerLensConfig
from repro.core.datasets import DatasetA, DatasetB, GenerationStats
from repro.core.persistence import (
    DATASET_CACHE_ENV,
    DatasetCache,
    dataset_cache_key,
    default_cache_dir,
    resolve_cache_dir,
)
from repro.core.schemes import ClusteringScheme, default_scheme_grid
from repro.experiments import common
from repro.hw import jetson_tx2
from repro.models.random_gen import RandomDNNConfig

_FLOAT_DTYPES = st.sampled_from([np.float32, np.float64])
_INT_DTYPES = st.sampled_from([np.int32, np.int64])


def _array(rows, cols, dtype, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)).astype(dtype)


@st.composite
def dataset_a_strategy(draw):
    rows = draw(st.integers(0, 6))
    d_struct = draw(st.integers(1, 5))
    d_stats = draw(st.integers(1, 5))
    n_schemes = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    fdtype = draw(_FLOAT_DTYPES)
    idtype = draw(_INT_DTYPES)
    rng = np.random.default_rng(seed)
    qualities = None
    if draw(st.booleans()):
        qualities = _array(rows, n_schemes, fdtype, seed + 1)
    return DatasetA(
        x_struct=_array(rows, d_struct, fdtype, seed),
        x_stats=_array(rows, d_stats, fdtype, seed + 2),
        y=rng.integers(0, n_schemes, size=rows).astype(idtype),
        n_schemes=n_schemes,
        qualities=qualities,
    )


@st.composite
def dataset_b_strategy(draw):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(1, 6))
    n_levels = draw(st.integers(2, 14))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return DatasetB(
        x=_array(rows, cols, draw(_FLOAT_DTYPES), seed),
        y=rng.integers(0, n_levels, size=rows).astype(draw(_INT_DTYPES)),
        n_levels=n_levels,
    )


def _assert_array_identical(x, y):
    assert x.shape == y.shape
    assert x.dtype == y.dtype
    assert x.tobytes() == y.tobytes()


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dataset=dataset_a_strategy())
    def test_dataset_a_roundtrip(self, dataset, tmp_path):
        """Property: save/load preserves shapes, dtypes, bytes and the
        optional qualities field — including zero-row datasets."""
        path = tmp_path / "a.npz"
        dataset.save(path)
        loaded = DatasetA.load(path)
        _assert_array_identical(dataset.x_struct, loaded.x_struct)
        _assert_array_identical(dataset.x_stats, loaded.x_stats)
        _assert_array_identical(dataset.y, loaded.y)
        assert loaded.n_schemes == dataset.n_schemes
        if dataset.qualities is None:
            assert loaded.qualities is None
        else:
            _assert_array_identical(dataset.qualities, loaded.qualities)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dataset=dataset_b_strategy())
    def test_dataset_b_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "b.npz"
        dataset.save(path)
        loaded = DatasetB.load(path)
        _assert_array_identical(dataset.x, loaded.x)
        _assert_array_identical(dataset.y, loaded.y)
        assert loaded.n_levels == dataset.n_levels

    def test_load_is_resourcewarning_clean(self, tmp_path):
        """Regression: DatasetA/B.load used to leak the open NpzFile
        handle (np.load without a context manager)."""
        a = DatasetA(x_struct=np.ones((2, 3)), x_stats=np.ones((2, 2)),
                     y=np.array([0, 1]), n_schemes=2,
                     qualities=np.ones((2, 2)))
        b = DatasetB(x=np.ones((2, 3)), y=np.array([0, 1]), n_levels=4)
        a.save(tmp_path / "a.npz")
        b.save(tmp_path / "b.npz")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            DatasetA.load(tmp_path / "a.npz")
            DatasetB.load(tmp_path / "b.npz")
            gc.collect()


def _key(n_networks=5, seed=0, **overrides):
    params = dict(batch_size=16, latency_slack=0.25, alpha=0.6,
                  lam=0.05, n_networks=n_networks, seed=seed)
    params.update(overrides)
    return dataset_cache_key(jetson_tx2(), default_scheme_grid(),
                             RandomDNNConfig(), **params)


def _sample_entry():
    a = DatasetA(x_struct=np.ones((3, 4)), x_stats=np.zeros((3, 2)),
                 y=np.array([0, 1, 2]), n_schemes=3,
                 qualities=np.ones((3, 3)))
    b = DatasetB(x=np.ones((5, 6)), y=np.array([0, 1, 2, 3, 0]),
                 n_levels=5)
    stats = GenerationStats(n_networks=3, n_blocks=5, wall_time_s=1.5,
                            blocks_per_network=[2, 2, 1], n_jobs=4)
    return a, b, stats


class TestCacheKey:
    def test_key_is_stable(self):
        assert _key() == _key()

    def test_key_tracks_every_input(self):
        base = _key()
        assert _key(seed=1) != base
        assert _key(n_networks=6) != base
        assert _key(batch_size=8) != base
        assert _key(latency_slack=0.3) != base
        assert _key(alpha=0.5) != base
        assert _key(lam=0.1) != base

    def test_key_tracks_platform_scheme_and_dnn_config(self):
        base = _key()
        agx_key = dataset_cache_key(
            jetson_tx2().with_overrides(c_eff=9.9e-9),
            default_scheme_grid(), RandomDNNConfig(), batch_size=16,
            latency_slack=0.25, alpha=0.6, lam=0.05, n_networks=5,
            seed=0)
        small_grid = dataset_cache_key(
            jetson_tx2(), [ClusteringScheme(0.3, 2)], RandomDNNConfig(),
            batch_size=16, latency_slack=0.25, alpha=0.6, lam=0.05,
            n_networks=5, seed=0)
        small_dnns = dataset_cache_key(
            jetson_tx2(), default_scheme_grid(),
            RandomDNNConfig(max_stages=3), batch_size=16,
            latency_slack=0.25, alpha=0.6, lam=0.05, n_networks=5,
            seed=0)
        assert len({base, agx_key, small_grid, small_dnns}) == 4


class TestDatasetCache:
    def test_miss_then_hit(self, tmp_path):
        cache = DatasetCache(tmp_path)
        key = _key()
        assert not cache.has(key)
        assert cache.load(key) is None

        a, b, stats = _sample_entry()
        cache.store(key, a, b, stats)
        assert cache.has(key)
        got = cache.load(key)
        assert got is not None
        a2, b2, stats2 = got
        _assert_array_identical(a.x_struct, a2.x_struct)
        _assert_array_identical(a.qualities, a2.qualities)
        _assert_array_identical(b.x, b2.x)
        _assert_array_identical(b.y, b2.y)
        assert stats2.cache_hit is True
        assert stats2.n_networks == 3
        assert stats2.n_blocks == 5
        assert stats2.wall_time_s == pytest.approx(1.5)
        assert stats2.blocks_per_network == [2, 2, 1]

    def test_key_collision_detected(self, tmp_path):
        """An entry whose manifest records a different full key (hash
        collision on the filename, or tampering) is a miss."""
        cache = DatasetCache(tmp_path)
        key = _key()
        a, b, stats = _sample_entry()
        manifest = cache.store(key, a, b, stats)
        meta = json.loads(manifest.read_text())
        meta["key"] = "somebody-elses-key"
        manifest.write_text(json.dumps(meta))
        assert not cache.has(key)
        assert cache.load(key) is None

    def test_pre_stage_seconds_manifest_loads(self, tmp_path):
        """Regression: manifests written before stage timings were
        recorded lack ``stats.stage_seconds`` (or the whole ``stats``
        block); loading such an entry must succeed, not KeyError."""
        cache = DatasetCache(tmp_path)
        key = _key()
        a, b, stats = _sample_entry()
        manifest = cache.store(key, a, b, stats)
        meta = json.loads(manifest.read_text())
        del meta["stats"]["stage_seconds"]
        manifest.write_text(json.dumps(meta))
        got = cache.load(key)
        assert got is not None
        assert got[2].cache_hit is True
        assert got[2].stage_seconds == {}

        meta["stats"] = None
        manifest.write_text(json.dumps(meta))
        got = cache.load(key)
        assert got is not None
        # Counts fall back to what the arrays themselves say.
        assert got[2].n_networks == len(a)
        assert got[2].n_blocks == len(b)
        assert got[2].stage_seconds == {}

    def test_corrupt_manifest_is_a_miss(self, tmp_path):
        cache = DatasetCache(tmp_path)
        key = _key()
        a, b, stats = _sample_entry()
        manifest = cache.store(key, a, b, stats)
        manifest.write_text("{not json")
        assert cache.load(key) is None

    def test_clear(self, tmp_path):
        cache = DatasetCache(tmp_path)
        key = _key()
        cache.store(key, *_sample_entry())
        assert cache.clear() == 3
        assert not cache.has(key)
        assert DatasetCache(tmp_path / "never-created").clear() == 0

    def test_resolve_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(DATASET_CACHE_ENV, raising=False)
        assert resolve_cache_dir(None) is None
        assert resolve_cache_dir(tmp_path) == tmp_path
        monkeypatch.setenv(DATASET_CACHE_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"
        # Explicit argument beats the environment.
        assert resolve_cache_dir(tmp_path) == tmp_path
        assert default_cache_dir().name == "datasets"


class TestFitLevelCache:
    def test_second_fit_hits_cache_and_skips_generation(self, tx2,
                                                        tmp_path):
        """Acceptance: a repeated fit() with an identical configuration
        loads the corpus from disk instead of regenerating."""
        config = PowerLensConfig(
            n_networks=5, seed=13, cache_dir=str(tmp_path),
            dnn_config=RandomDNNConfig(min_stages=2, max_stages=3,
                                       max_blocks_per_stage=3))
        first = PowerLens(tx2, config)
        summary1 = first.fit()
        assert summary1.generation.cache_hit is False

        second = PowerLens(tx2, config)
        summary2 = second.fit()
        assert summary2.generation.cache_hit is True
        # The cached stats carry the original generation cost, and the
        # corpus is the same one the first fit trained on.
        assert summary2.generation.n_networks == \
            summary1.generation.n_networks
        assert summary2.generation.n_blocks == summary1.generation.n_blocks
        assert summary2.generation.blocks_per_network == \
            summary1.generation.blocks_per_network
        # The stage timer still records the (now tiny) load-from-disk
        # pass...
        assert second.overhead.total("dataset generation") > 0
        # ...which is far below the miss cost whenever generation is
        # non-trivial; at this corpus size just require it not to exceed
        # the first run.
        assert second.overhead.total("dataset generation") <= \
            first.overhead.total("dataset generation")

    def test_use_cache_false_regenerates(self, tx2, tmp_path):
        config = PowerLensConfig(
            n_networks=4, seed=13, cache_dir=str(tmp_path),
            dnn_config=RandomDNNConfig(min_stages=2, max_stages=3,
                                       max_blocks_per_stage=3))
        PowerLens(tx2, config).fit()
        lens = PowerLens(tx2, replace(config, use_cache=False))
        summary = lens.fit()
        assert summary.generation.cache_hit is False


class TestContextCache:
    """The cache behind every fitted CLI command: ``get_context`` with a
    ``cache_dir``, each call fitting afresh (the in-process context memo
    is cleared), so only the on-disk entry carries over."""

    @pytest.fixture()
    def generation(self, monkeypatch):
        """``generation(cache_dir, use_cache=True)`` fits a fresh
        2-network TX2 context and returns its generation stats."""
        def fit(cache_dir, use_cache=True):
            monkeypatch.setattr(common, "_CONTEXT_CACHE", {})
            ctx = common.get_context("tx2", n_networks=2,
                                     use_cache=use_cache,
                                     cache_dir=str(cache_dir))
            return ctx.lens.training_summary.generation
        return fit

    @staticmethod
    def _entry_files(cache_dir):
        return sorted(p.name for p in cache_dir.iterdir()
                      if p.suffix in (".json", ".npz"))

    def test_miss_then_hit(self, generation, tmp_path):
        cache = tmp_path / "cache"
        cold = generation(cache)
        assert cold.cache_hit is False
        entries = self._entry_files(cache)
        # One entry: manifest + two npz payloads.
        assert len(entries) == 3
        warm = generation(cache)
        assert warm.cache_hit is True
        # The warm read must not rewrite or grow the entry set, and it
        # carries the stored stage telemetry.
        assert self._entry_files(cache) == entries
        assert warm.stage_seconds == cold.stage_seconds
        assert warm.stage_lines() == cold.stage_lines()

    def test_missing_cache_dir_is_created(self, generation, tmp_path):
        cache = tmp_path / "does" / "not" / "exist" / "yet"
        assert generation(cache).cache_hit is False
        assert cache.is_dir()
        assert len(self._entry_files(cache)) == 3

    def test_corrupt_payload_recovers(self, generation, tmp_path):
        cache = tmp_path / "cache"
        generation(cache)
        payload = next(p for p in cache.iterdir()
                       if p.name.endswith(".a.npz"))
        payload.write_bytes(b"not an npz payload")
        # Checksum mismatch => miss; the damaged entry is evicted and
        # the fit regenerates without raising, then hits again.
        assert generation(cache).cache_hit is False
        assert len(self._entry_files(cache)) == 3
        assert generation(cache).cache_hit is True

    def test_truncated_manifest_recovers(self, generation, tmp_path):
        cache = tmp_path / "cache"
        generation(cache)
        manifest = next(p for p in cache.iterdir() if p.suffix == ".json")
        manifest.write_text(manifest.read_text()[:10])
        assert generation(cache).cache_hit is False
        assert generation(cache).cache_hit is True

    def test_use_cache_false_never_writes(self, generation, tmp_path):
        cache = tmp_path / "untouched"
        assert generation(cache, use_cache=False).cache_hit is False
        assert not cache.exists()

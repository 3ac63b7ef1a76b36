"""Dataset generator and predictor tests (section 2.2)."""

import numpy as np
import pytest

from repro.core.datasets import (
    DatasetA,
    DatasetB,
    DatasetGenerator,
    GenerationStats,
)
from repro.core.predictors import DecisionModel, HyperparamPredictor
from repro.core.schemes import default_scheme_grid
from repro.models.random_gen import RandomDNNConfig


@pytest.fixture(scope="module")
def generated(tx2_module):
    gen = DatasetGenerator(
        tx2_module,
        dnn_config=RandomDNNConfig(min_stages=2, max_stages=3,
                                   max_blocks_per_stage=4))
    return gen.generate(12, seed=0)


@pytest.fixture(scope="module")
def tx2_module():
    from repro.hw import jetson_tx2
    return jetson_tx2()


class TestGenerator:
    def test_dataset_shapes(self, generated, tx2_module):
        a, b, stats = generated
        assert len(a) == 12
        assert a.x_struct.shape[0] == 12
        assert a.qualities.shape == (12, len(default_scheme_grid()))
        assert len(b) == stats.n_blocks
        assert b.n_levels == tx2_module.n_levels
        assert np.all(b.y >= 0) and np.all(b.y < b.n_levels)
        assert np.all(a.y >= 0) and np.all(a.y < a.n_schemes)

    def test_blocks_per_network_bookkeeping(self, generated):
        _a, b, stats = generated
        assert sum(stats.blocks_per_network) == len(b)
        assert stats.wall_time_s > 0

    def test_features_finite(self, generated):
        a, b, _ = generated
        assert np.all(np.isfinite(a.x_struct))
        assert np.all(np.isfinite(a.x_stats))
        assert np.all(np.isfinite(b.x))

    def test_invalid_count(self, tx2_module):
        with pytest.raises(ValueError):
            DatasetGenerator(tx2_module).generate(0)

    def test_save_load_roundtrip(self, generated, tmp_path):
        a, b, _ = generated
        a.save(tmp_path / "a.npz")
        b.save(tmp_path / "b.npz")
        a2 = DatasetA.load(tmp_path / "a.npz")
        b2 = DatasetB.load(tmp_path / "b.npz")
        assert np.array_equal(a.y, a2.y)
        assert np.array_equal(a.qualities, a2.qualities)
        assert np.array_equal(b.x, b2.x)
        assert b2.n_levels == b.n_levels


class TestStageLines:
    """The one labeling-stage formatter (``TrainingSummary.format`` and
    the CLI's stderr line both print it)."""

    def test_pipeline_order_then_sorted_rest(self):
        stats = GenerationStats(n_jobs=1, stage_seconds={
            "zeta": 0.8, "evaluate": 1.0, "alpha": 0.6, "cluster": 3.0,
            "distance": 2.0})
        assert stats.stage_lines() == [
            "labeling stages (CPU-s summed over 1 worker(s)): "
            "distance 2.0s, cluster 3.0s, evaluate 1.0s, alpha 0.6s, "
            "zeta 0.8s"]

    def test_pool_adds_the_per_worker_line(self):
        stats = GenerationStats(n_jobs=2, stage_seconds={
            "cluster": 3.0, "distance": 2.0, "alpha": 0.6})
        assert stats.stage_lines() == [
            "labeling stages (CPU-s summed over 2 worker(s)): "
            "distance 2.0s, cluster 3.0s, alpha 0.6s",
            "labeling stages (per-worker average): "
            "distance 1.0s, cluster 1.5s, alpha 0.3s"]


class TestPredictors:
    def test_decision_model_unfitted_raises(self):
        m = DecisionModel(input_dim=4, n_levels=5)
        with pytest.raises(RuntimeError):
            m.predict_levels(np.zeros((1, 4)))

    def test_hyperparam_unfitted_raises(self):
        from repro.core.features import GlobalFeatures
        m = HyperparamPredictor(default_scheme_grid(), 4, 3)
        gf = GlobalFeatures(structural=np.zeros(4),
                            statistics=np.zeros(3))
        with pytest.raises(RuntimeError):
            m.predict(gf)

    def test_decision_model_learns_synthetic(self):
        """A decision model must learn a feature->level mapping where
        the level is a simple function of one feature."""
        rng = np.random.default_rng(0)
        n, d, levels = 1200, 6, 5
        x = rng.normal(size=(n, d))
        y = np.clip(((x[:, 0] + 2) / 4 * levels).astype(int), 0,
                    levels - 1)
        ds = DatasetB(x=x, y=y, n_levels=levels)
        m = DecisionModel(input_dim=d, n_levels=levels, seed=0)
        report = m.fit(ds, max_epochs=80)
        assert report.test_accuracy > 0.75
        assert report.within_1_accuracy > 0.95
        assert report.n_train == int(0.8 * n)

    def test_decision_predict_levels_range(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 4))
        y = (x[:, 0] > 0).astype(int) * 3
        m = DecisionModel(input_dim=4, n_levels=5, seed=1)
        m.fit(DatasetB(x=x, y=y, n_levels=5), max_epochs=30)
        preds = m.predict_levels(rng.normal(size=(10, 4)))
        assert all(0 <= p < 5 for p in preds)
        single = m.predict_levels(np.zeros(4))
        assert len(single) == 1

    def test_hyperparam_model_fit_and_predict(self, generated):
        a, _b, _ = generated
        m = HyperparamPredictor(default_scheme_grid(),
                                structural_dim=a.x_struct.shape[1],
                                statistics_dim=a.x_stats.shape[1])
        report = m.fit(a, max_epochs=20)
        assert 0.0 <= report.test_accuracy <= 1.0
        assert 0.0 <= report.equivalent_accuracy <= 1.0
        from repro.core.features import GlobalFeatures
        gf = GlobalFeatures(structural=a.x_struct[0],
                            statistics=a.x_stats[0])
        scheme = m.predict(gf)
        assert scheme in default_scheme_grid()

"""Trainer / data utility / metric tests."""

import numpy as np
import pytest

from repro.nn import (
    Sequential,
    StandardScaler,
    Trainer,
    TwoBranchMLP,
    accuracy,
    confusion_matrix,
    iterate_minibatches,
    split_indices,
    within_k_accuracy,
)
from repro.nn.metrics import mean_level_error


class TestScaler:
    def test_transform_standardizes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 5.0, size=(200, 4))
        s = StandardScaler()
        z = s.fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        x = np.hstack([np.ones((10, 1)),
                       np.arange(10.0).reshape(-1, 1)])
        z = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0.0)

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        s = StandardScaler().fit(x)
        assert np.allclose(s.inverse_transform(s.transform(x)), x)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros(3))


class TestSplits:
    def test_fractions_validated(self):
        with pytest.raises(ValueError):
            split_indices(10, fractions=(0.5, 0.2))

    def test_split_partitions(self):
        tr, va, te = split_indices(100, seed=0)
        all_idx = np.concatenate([tr, va, te])
        assert sorted(all_idx) == list(range(100))
        assert len(tr) == 80 and len(va) == 10 and len(te) == 10

    def test_deterministic(self):
        a = split_indices(50, seed=3)
        b = split_indices(50, seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_minibatches_cover_everything(self):
        seen = np.concatenate(list(iterate_minibatches(23, 5, seed=1)))
        assert sorted(seen) == list(range(23))

    def test_minibatch_validation(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(10, 0))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == \
            pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_within_k(self):
        pred = np.array([3, 5, 9])
        target = np.array([4, 5, 2])
        assert within_k_accuracy(pred, target, 1) == pytest.approx(2 / 3)
        assert within_k_accuracy(pred, target, 7) == 1.0

    def test_confusion_matrix(self):
        cm = confusion_matrix(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1

    def test_mean_level_error(self):
        assert mean_level_error(np.array([1, 5]),
                                np.array([2, 3])) == pytest.approx(1.5)

    def test_empty_inputs(self):
        empty = np.array([], dtype=int)
        assert accuracy(empty, empty) == 0.0
        assert within_k_accuracy(empty, empty) == 0.0
        assert mean_level_error(empty, empty) == 0.0


class TestTrainer:
    def _separable(self, n=600, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 4))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
        return x, y

    def test_learns_separable_problem(self):
        x, y = self._separable()
        model = Sequential.mlp([4, 16, 2], seed=0)
        tr, va, te = split_indices(len(y), seed=0)
        trainer = Trainer(model, lr=5e-3, max_epochs=60, patience=10)
        trainer.fit((x[tr],), y[tr], (x[va],), y[va])
        _, acc = trainer.evaluate((x[te],), y[te])
        assert acc > 0.9

    def test_early_stopping_restores_best(self):
        x, y = self._separable(300)
        model = Sequential.mlp([4, 8, 2], seed=1)
        trainer = Trainer(model, lr=5e-3, max_epochs=100, patience=5)
        hist = trainer.fit((x[:200],), y[:200], (x[200:],), y[200:])
        assert hist.best_epoch >= 0
        assert hist.epochs <= 100
        assert hist.wall_time_s > 0

    def test_history_recorded(self):
        x, y = self._separable(200)
        model = Sequential.mlp([4, 8, 2], seed=2)
        trainer = Trainer(model, lr=1e-3, max_epochs=5, patience=50)
        hist = trainer.fit((x[:150],), y[:150], (x[150:],), y[150:])
        assert len(hist.train_loss) == len(hist.val_loss)
        assert len(hist.val_accuracy) == len(hist.val_loss)

    def test_empty_validation_split_means_no_validation(self):
        # Regression: an empty split used to average an empty slice into
        # a NaN loss that never beat best_val, so training silently
        # stopped after ``patience`` epochs.
        x, y = self._separable(40)
        model = Sequential.mlp([4, 8, 2], seed=4)
        trainer = Trainer(model, lr=1e-3, max_epochs=12, patience=3)
        hist = trainer.fit((x,), y, (x[:0],), y[:0])
        assert hist.epochs == 12
        assert hist.val_loss == [] and hist.best_epoch == -1
        assert all(np.isfinite(hist.train_loss))

    def test_loss_decreases(self):
        x, y = self._separable(400)
        model = Sequential.mlp([4, 16, 2], seed=3)
        trainer = Trainer(model, lr=5e-3, max_epochs=30, patience=30)
        hist = trainer.fit((x,), y)
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_two_branch_training(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=(500, 3))
        xt = rng.normal(size=(500, 2))
        y = ((xs[:, 0] > 0) ^ (xt[:, 0] > 0)).astype(int)
        model = TwoBranchMLP(3, 2, 2, seed=5)
        tr, va, te = split_indices(500, seed=1)
        trainer = Trainer(model, lr=5e-3, max_epochs=80, patience=15)
        trainer.fit((xs[tr], xt[tr]), y[tr], (xs[va], xt[va]), y[va])
        _, acc = trainer.evaluate((xs[te], xt[te]), y[te])
        assert acc > 0.8

    def test_predict_returns_classes(self):
        x, y = self._separable(100)
        model = Sequential.mlp([4, 8, 3], seed=6)
        trainer = Trainer(model, max_epochs=2)
        trainer.fit((x,), y)
        pred = trainer.predict((x,))
        assert pred.shape == y.shape
        assert set(pred) <= {0, 1, 2}

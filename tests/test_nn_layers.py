"""Numeric gradient checks and layer behaviour tests for the numpy NN
framework."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dense,
    Dropout,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
    TwoBranchMLP,
    softmax,
)


def _numeric_grad(f, param, i, eps=1e-6):
    orig = param.flat[i]
    param.flat[i] = orig + eps
    l1 = f()
    param.flat[i] = orig - eps
    l2 = f()
    param.flat[i] = orig
    return (l1 - l2) / (2 * eps)


class TestDense:
    def test_forward_shape(self):
        d = Dense(4, 3)
        assert d.forward(np.zeros((7, 4))).shape == (7, 3)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        d = Dense(5, 3, rng=rng)
        x = rng.normal(size=(6, 5))
        y = np.array([0, 1, 2, 0, 1, 2])
        loss_fn = SoftmaxCrossEntropy()

        def f():
            return loss_fn.forward(d.forward(x), y)[0]

        loss, dlogits = loss_fn.forward(d.forward(x), y)
        d.backward(dlogits)
        for param, grad in ((d.W, d.dW), (d.b, d.db)):
            for i in (0, param.size - 1, param.size // 2):
                num = _numeric_grad(f, param, i)
                assert grad.flat[i] == pytest.approx(num, abs=1e-6)

    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        d = Dense(4, 2, rng=rng)
        x = rng.normal(size=(3, 4))
        y = np.array([0, 1, 0])
        loss_fn = SoftmaxCrossEntropy()
        _, dlogits = loss_fn.forward(d.forward(x), y)
        dx = d.backward(dlogits)
        eps = 1e-6
        i = 2
        x2 = x.copy()
        x2.flat[i] += eps
        l1 = loss_fn.forward(d.forward(x2), y)[0]
        x2.flat[i] -= 2 * eps
        l2 = loss_fn.forward(d.forward(x2), y)[0]
        assert dx.flat[i] == pytest.approx((l1 - l2) / (2 * eps), abs=1e-6)


class TestActivations:
    def test_relu_masks_negative(self):
        r = ReLU()
        out = r.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])
        grad = r.backward(np.array([[1.0, 1.0]]))
        assert np.array_equal(grad, [[0.0, 1.0]])


class TestDropout:
    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(p=1.0)

    def test_eval_mode_identity(self):
        d = Dropout(p=0.5)
        d.eval()
        x = np.ones((4, 4))
        assert np.array_equal(d.forward(x), x)

    def test_train_mode_scales(self):
        d = Dropout(p=0.5, seed=0)
        d.train()
        x = np.ones((200, 50))
        out = d.forward(x)
        # Inverted dropout: surviving activations scaled by 1/keep.
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_backward_uses_same_mask(self):
        d = Dropout(p=0.5, seed=0)
        d.train()
        x = np.ones((10, 10))
        out = d.forward(x)
        grad = d.backward(np.ones_like(x))
        assert np.array_equal(grad == 0, out == 0)


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        p = softmax(np.random.default_rng(0).normal(size=(5, 7)))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_softmax_numerically_stable(self):
        p = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(p, 0.5)

    def test_ce_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = SoftmaxCrossEntropy().forward(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_ce_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros(3), np.array([0]))

    def test_ce_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="empty batch"):
            SoftmaxCrossEntropy().forward(np.zeros((0, 3)),
                                          np.zeros(0, dtype=int))


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        p = np.array([5.0])
        g = np.zeros(1)
        opt = Adam([p], [g], lr=0.1)
        for _ in range(500):
            g[...] = 2 * p  # d/dp of p^2
            opt.step()
        assert abs(p[0]) < 1e-2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Adam([np.zeros(2)], [], lr=0.1)

    def test_zero_grad(self):
        g = np.ones(3)
        opt = Adam([np.zeros(3)], [g], lr=0.1)
        opt.zero_grad()
        assert np.array_equal(g, np.zeros(3))


class TestContainers:
    def test_mlp_builder_validates(self):
        with pytest.raises(ValueError):
            Sequential.mlp([4])

    def test_sequential_gradient_check(self):
        rng = np.random.default_rng(3)
        m = Sequential.mlp([4, 8, 3], seed=4)
        x = rng.normal(size=(5, 4))
        y = np.array([0, 1, 2, 0, 1])
        loss_fn = SoftmaxCrossEntropy()

        def f():
            return loss_fn.forward(m.forward(x), y)[0]

        _, dlog = loss_fn.forward(m.forward(x), y)
        m.backward(dlog)
        p = m.params()[0]
        g = m.grads()[0]
        num = _numeric_grad(f, p, 1)
        assert g.flat[1] == pytest.approx(num, abs=1e-6)

    def test_two_branch_input_validation(self):
        m = TwoBranchMLP(4, 3, 2)
        with pytest.raises(ValueError):
            m.forward(np.zeros((2, 5)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            m.forward(np.zeros((2, 4)), np.zeros((2, 9)))

    def test_two_branch_gradient_check(self):
        rng = np.random.default_rng(5)
        m = TwoBranchMLP(4, 3, 2, stage1_dims=(6,), stage2_dims=(5,),
                         dropout=0.0, seed=6)
        xs = rng.normal(size=(6, 4))
        xt = rng.normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        loss_fn = SoftmaxCrossEntropy()

        def f():
            return loss_fn.forward(m.forward(xs, xt), y)[0]

        _, dlog = loss_fn.forward(m.forward(xs, xt), y)
        m.backward(dlog)
        # Check a stage-1 parameter: gradient must flow through the
        # concat fusion point.
        p = m.stage1.params()[0]
        g = m.stage1.grads()[0]
        num = _numeric_grad(f, p, 2)
        assert g.flat[2] == pytest.approx(num, abs=1e-6)

    def test_train_eval_propagate(self):
        m = Sequential.mlp([4, 8, 2], dropout=0.5)
        m.eval()
        assert all(not layer.training for layer in m.layers)
        m.train()
        assert all(layer.training for layer in m.layers)

"""Losses: softmax cross-entropy (classification) and MSE."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class SoftmaxCrossEntropy:
    """Combined softmax + cross-entropy with integer class targets."""

    def forward(self, logits: np.ndarray,
                targets: np.ndarray) -> Tuple[float, np.ndarray]:
        """Return ``(mean loss, dloss/dlogits)``."""
        if logits.ndim != 2:
            raise ValueError("logits must be (batch, classes)")
        n = logits.shape[0]
        if n == 0:
            raise ValueError("cross-entropy of an empty batch is undefined")
        probs = softmax(logits)
        eps = 1e-12
        loss = -np.log(probs[np.arange(n), targets] + eps).mean()
        grad = probs.copy()
        grad[np.arange(n), targets] -= 1.0
        return float(loss), grad / n


class MSELoss:
    """Mean squared error for regression heads."""

    def forward(self, pred: np.ndarray,
                target: np.ndarray) -> Tuple[float, np.ndarray]:
        diff = pred - target
        loss = float(np.mean(diff ** 2))
        grad = 2.0 * diff / diff.size
        return loss, grad

"""Layers with explicit forward/backward passes.

Every layer caches what its backward pass needs during forward; call
``forward`` then ``backward`` in matching pairs.  Parameters and their
gradients are exposed as parallel lists for the optimizers.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class Layer:
    """Base layer: stateless identity."""

    training: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad

    def params(self) -> List[np.ndarray]:
        return []

    def grads(self) -> List[np.ndarray]:
        return []

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False


class Dense(Layer):
    """Affine layer ``y = x W + b`` with He-uniform initialization."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / in_features)
        self.W = rng.uniform(-bound, bound,
                             size=(in_features, out_features))
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: Optional[np.ndarray] = None

    @property
    def in_features(self) -> int:
        return self.W.shape[0]

    @property
    def out_features(self) -> int:
        return self.W.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.dW[...] = self._x.T @ grad
        self.db[...] = grad.sum(axis=0)
        return grad @ self.W.T

    def params(self) -> List[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> List[np.ndarray]:
        return [self.dW, self.db]


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad * self._mask


class Dropout(Layer):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

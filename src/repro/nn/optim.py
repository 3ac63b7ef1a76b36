"""Optimizers: Adam."""

from __future__ import annotations

from typing import List

import numpy as np


class Optimizer:
    """Base optimizer over parallel (param, grad) array lists."""

    def __init__(self, params: List[np.ndarray],
                 grads: List[np.ndarray], lr: float) -> None:
        if len(params) != len(grads):
            raise ValueError("params/grads length mismatch")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.grads = grads
        self.lr = lr

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0


#: Adam's first- and second-moment decay rates.
BETA1 = 0.9
BETA2 = 0.999

#: Adam's denominator guard.
EPS = 1e-8


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, params: List[np.ndarray], grads: List[np.ndarray],
                 lr: float = 1e-3, weight_decay: float = 0.0) -> None:
        super().__init__(params, grads, lr)
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for p, g, m, v in zip(self.params, self.grads, self._m, self._v):
            if self.weight_decay > 0:
                g = g + self.weight_decay * p
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * (g * g)
            m_hat = m / (1 - BETA1 ** self._t)
            v_hat = v / (1 - BETA2 ** self._t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

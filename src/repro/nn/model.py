"""Model containers: plain sequential stacks and the two-branch topology
of the clustering hyper-parameter prediction model (Figure 3)."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.layers import Dense, Dropout, Layer, ReLU


class Sequential:
    """A stack of layers applied in order."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers: List[Layer] = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> List[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> List[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def train(self) -> None:
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        for layer in self.layers:
            layer.eval()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass in eval mode (restores previous mode after)."""
        self.eval()
        out = self.forward(x)
        return out

    @staticmethod
    def mlp(dims: Sequence[int], dropout: float = 0.0,
            seed: int = 0) -> "Sequential":
        """Build a ReLU MLP: dims = [in, h1, ..., out]."""
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        rng = np.random.default_rng(seed)
        layers: List[Layer] = []
        for i in range(len(dims) - 1):
            layers.append(Dense(dims[i], dims[i + 1], rng=rng))
            if i < len(dims) - 2:
                layers.append(ReLU())
                if dropout > 0:
                    layers.append(Dropout(dropout, seed=seed + i))
        return Sequential(layers)


class TwoBranchMLP:
    """The Figure-3 topology: structural features feed the early stage;
    statistics features are concatenated mid-network.

    ``stage1`` consumes the structural vector and produces a hidden
    representation; the statistics vector is concatenated onto it and
    ``stage2`` maps the fusion to class logits.
    """

    def __init__(self, structural_dim: int, statistics_dim: int,
                 n_classes: int, stage1_dims: Sequence[int] = (64, 64),
                 stage2_dims: Sequence[int] = (128, 64),
                 dropout: float = 0.1, seed: int = 0) -> None:
        self.structural_dim = structural_dim
        self.statistics_dim = statistics_dim
        self.stage1 = Sequential.mlp(
            [structural_dim, *stage1_dims], dropout=dropout, seed=seed)
        # stage1 output keeps its last hidden activation (no head), so we
        # append a trailing ReLU for the fusion point.
        self.stage1.layers.append(ReLU())
        fusion_dim = stage1_dims[-1] + statistics_dim
        self.stage2 = Sequential.mlp(
            [fusion_dim, *stage2_dims, n_classes], dropout=dropout,
            seed=seed + 100)
        self._h_dim = stage1_dims[-1]

    # ------------------------------------------------------------------
    def forward(self, x_struct: np.ndarray,
                x_stats: np.ndarray) -> np.ndarray:
        if x_struct.shape[1] != self.structural_dim:
            raise ValueError(
                f"structural input dim {x_struct.shape[1]} != "
                f"{self.structural_dim}")
        if x_stats.shape[1] != self.statistics_dim:
            raise ValueError(
                f"statistics input dim {x_stats.shape[1]} != "
                f"{self.statistics_dim}")
        h = self.stage1.forward(x_struct)
        z = np.concatenate([h, x_stats], axis=1)
        return self.stage2.forward(z)

    def backward(self, grad: np.ndarray) -> None:
        dz = self.stage2.backward(grad)
        dh = dz[:, : self._h_dim]
        self.stage1.backward(dh)

    def params(self) -> List[np.ndarray]:
        return self.stage1.params() + self.stage2.params()

    def grads(self) -> List[np.ndarray]:
        return self.stage1.grads() + self.stage2.grads()

    def train(self) -> None:
        self.stage1.train()
        self.stage2.train()

    def eval(self) -> None:
        self.stage1.eval()
        self.stage2.eval()

    def predict(self, x_struct: np.ndarray,
                x_stats: np.ndarray) -> np.ndarray:
        self.eval()
        return self.forward(x_struct, x_stats)

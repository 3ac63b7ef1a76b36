"""Feature scaling, dataset splitting and minibatching."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np


class StandardScaler:
    """Column-wise standardization; constant columns map to zero."""

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-12] = 1.0
        self.scale_ = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler not fitted")
        return (x - self.mean_) / self.scale_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)


def split_indices(n: int, fractions: Sequence[float] = (0.8, 0.1, 0.1),
                  seed: int = 0) -> Tuple[np.ndarray, ...]:
    """Shuffle ``range(n)`` and split by ``fractions`` (the paper's
    80/10/10 train/val/test protocol)."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    out = []
    start = 0
    for i, frac in enumerate(fractions):
        if i == len(fractions) - 1:
            stop = n
        else:
            stop = start + int(round(frac * n))
        out.append(perm[start:stop])
        start = stop
    return tuple(out)


def iterate_minibatches(n: int, batch_size: int, shuffle: bool = True,
                        seed: int = 0) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(n)`` in batches."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]

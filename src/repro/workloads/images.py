"""Synthetic image-batch descriptors.

The paper's inference inputs are ImageNet images; since tensor *values*
never influence the power model (only shapes do), inputs are represented
by shape descriptors plus an optional synthetic pixel generator for
examples that want to show an actual array flowing through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class ImageBatchSpec:
    """Shape descriptor of one preprocessed input batch."""

    batch_size: int = 16
    channels: int = 3
    height: int = 224
    width: int = 224

    def __post_init__(self) -> None:
        if min(self.batch_size, self.channels, self.height, self.width) < 1:
            raise ValueError("all batch dimensions must be positive")

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        return (self.batch_size, self.channels, self.height, self.width)


def synthetic_batch(spec: ImageBatchSpec, seed: int = 0) -> np.ndarray:
    """Generate ImageNet-normalized-looking random pixels for the spec."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=spec.shape).astype(np.float32)

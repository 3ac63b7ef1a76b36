"""Classification metrics.

``within_k_accuracy`` exists because the paper notes that even when the
decision model mispredicts, "the predicted target frequency is only one
or two levels away from the actual optimal frequency" — frequency levels
are ordinal, so off-by-k is the natural error measure.
"""

from __future__ import annotations

import numpy as np


def accuracy(pred: np.ndarray, target: np.ndarray) -> float:
    """Top-1 accuracy of integer predictions."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError("shape mismatch")
    if pred.size == 0:
        return 0.0
    return float((pred == target).mean())


def within_k_accuracy(pred: np.ndarray, target: np.ndarray,
                      k: int = 1) -> float:
    """Fraction of predictions within ``k`` ordinal levels of the target."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.size == 0:
        return 0.0
    return float((np.abs(pred - target) <= k).mean())

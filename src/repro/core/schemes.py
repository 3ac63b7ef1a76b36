"""Clustering hyper-parameter schemes.

The clustering hyper-parameter prediction model is a classifier over a
discrete grid of ``(epsilon, minPts)`` schemes: each DNN gets the scheme
that yields the best energy efficiency when every resulting block runs
at its swept-optimal frequency (section 2.2's Dataset A labeling rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ClusteringScheme:
    """One (epsilon, minPts) DBSCAN configuration."""

    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        if not self.eps >= 0:
            raise ValueError(f"eps must be non-negative, got {self.eps!r}")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")

    def label(self) -> str:
        return f"eps={self.eps:.2f},minPts={self.min_pts}"


def default_scheme_grid() -> List[ClusteringScheme]:
    """The default scheme grid the prediction model classifies over.

    Epsilon spans loose to tight neighbourhoods of the blended distance
    (which is normalized to [0, 1]); minPts spans fine to coarse
    granularity.  12 schemes — a classification problem comparable in
    size to the paper's.
    """
    grid: List[ClusteringScheme] = []
    for eps in (0.30, 0.45, 0.60, 0.75):
        for min_pts in (2, 4, 8):
            grid.append(ClusteringScheme(eps=eps, min_pts=min_pts))
    return grid


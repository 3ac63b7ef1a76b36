"""The power view / power block intermediate representation.

A :class:`PowerView` is the logical IR the paper builds between
clustering and decision-making (section 2.1.3): an ordered partition of
a network's operators into contiguous power blocks, each carrying the
global features the decision model consumes and bookkeeping for the
DVFS instrumentation points placed before every block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import GlobalFeatureExtractor, GlobalFeatures
from repro.graph import Graph
from repro.graph.dot import power_view_to_dot


@dataclass(frozen=True)
class PowerBlock:
    """One contiguous group of operators with similar power behaviour."""

    index: int
    op_indices: tuple
    features: GlobalFeatures

    @property
    def start(self) -> int:
        return self.op_indices[0]

    @property
    def end(self) -> int:
        """Exclusive end index."""
        return self.op_indices[-1] + 1

    def __len__(self) -> int:
        return len(self.op_indices)


@dataclass
class PowerView:
    """Partition of a graph's compute operators into power blocks."""

    graph: Graph
    blocks: List[PowerBlock]
    eps: float = 0.0
    min_pts: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    @classmethod
    def from_blocks(cls, graph: Graph,
                    block_indices: Sequence[Sequence[int]],
                    eps: float = 0.0, min_pts: int = 0,
                    extractor: Optional[GlobalFeatureExtractor] = None
                    ) -> "PowerView":
        """Build a view (with block features) from raw index groups."""
        extractor = extractor or GlobalFeatureExtractor()
        blocks = [
            PowerBlock(
                index=i,
                op_indices=tuple(sorted(group)),
                features=extractor.extract(graph, group),
            )
            for i, group in enumerate(block_indices)
        ]
        return cls(graph=graph, blocks=blocks, eps=eps, min_pts=min_pts)

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def spans(self) -> List[Tuple[int, int]]:
        """The ``(start, stop)`` op span of every block, in order."""
        return [(b.start, b.end) for b in self.blocks]

    def feature_matrix(self) -> np.ndarray:
        """Stacked block feature vectors (decision-model input)."""
        return np.vstack([b.features.vector for b in self.blocks])

    def validate(self) -> None:
        """Blocks must be contiguous, ordered, non-overlapping and cover
        all compute operators exactly once."""
        n_ops = len(self.graph.compute_nodes())
        covered: List[int] = []
        for block in self.blocks:
            ops = list(block.op_indices)
            if ops != list(range(ops[0], ops[-1] + 1)):
                raise ValueError(
                    f"block {block.index} is not contiguous: {ops}")
            covered.extend(ops)
        if covered != list(range(n_ops)):
            raise ValueError(
                f"power view covers {len(covered)} ops, graph has {n_ops} "
                "(gaps, overlaps or misordering)")

    def to_dot(self) -> str:
        """Graphviz rendering with per-block colouring."""
        return power_view_to_dot(
            self.graph, [list(b.op_indices) for b in self.blocks])

    def summary(self) -> str:
        """Human-readable one-block-per-line description."""
        compute = self.graph.compute_nodes()
        lines = [f"PowerView({self.graph.name}, {self.n_blocks} blocks, "
                 f"eps={self.eps:.3g}, minPts={self.min_pts})"]
        for b in self.blocks:
            first = compute[b.start].name
            last = compute[b.end - 1].name
            lines.append(
                f"  block {b.index}: ops [{b.start}, {b.end}) "
                f"({len(b)} ops)  {first} .. {last}")
        return "\n".join(lines)

"""Power-sensitive feature extraction (section 2.1.2 of the paper).

Two complementary extractors:

* :class:`DepthwiseFeatureExtractor` — fine-grained per-layer features:
  computational load, parameter count, memory-access volume, operator
  category, channel counts, feature-map dimensions, plus the deeper
  attributes of power-dominant operators (convolution kernel/stride/
  filters, attention heads and matrix dimensions).
* :class:`GlobalFeatureExtractor` — coarse features of a whole network
  or of one power block, split into the two groups the Figure-3 model
  consumes at different stages: *macro structural* features (layer
  counts, depth, types, residual/branching structure) and *statistics*
  features (aggregate FLOPs/params/memory, per-category proportions,
  intensity statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.graph import Graph, node_table
from repro.graph.graph import Node
from repro.graph.ops import (
    CATEGORY_ORDER,
    AttentionAttrs,
    ConvAttrs,
    OpCategory,
)

_N_CATEGORIES = len(CATEGORY_ORDER)
_ATTENTION = CATEGORY_ORDER.index(OpCategory.ATTENTION)
_DWCONV = CATEGORY_ORDER.index(OpCategory.DWCONV)

#: Ordered names of the depthwise feature vector columns.
DEPTHWISE_FEATURE_NAMES: List[str] = [
    "log_flops",
    "log_params",
    "log_mem_elements",
    "log_in_elements",
    "log_out_elements",
    "log_intensity",
    *[f"cat_{c.value}" for c in CATEGORY_ORDER],
    "log_in_channels",
    "log_out_channels",
    "log_spatial",
    "kernel_area",
    "stride_product",
    "log_groups",
    "attention_heads",
    "is_residual_merge",
    "fan_out",
]


def _log1p(x: float) -> float:
    return math.log1p(max(x, 0.0))


class DepthwiseFeatureExtractor:
    """Per-operator feature vectors over the canonical compute order."""

    @property
    def n_features(self) -> int:
        return len(DEPTHWISE_FEATURE_NAMES)

    def extract_node(self, graph: Graph, node: Node) -> np.ndarray:
        """Feature vector of a single compute node (its row of
        :meth:`extract`)."""
        return self.extract(graph)[node_table(graph).position[node.name]]

    def extract(self, graph: Graph) -> np.ndarray:
        """(n_ops, n_features) matrix over compute nodes in canonical
        order — the ``X`` of Algorithm 1.

        Built column by column: the metric columns come from the graph's
        :class:`~repro.graph.NodeTable`, the shape and attribute columns
        from one pass over the nodes.  Every value is the same Python
        float expression a per-node row would compute."""
        table = node_table(graph)
        n = len(table)
        x = np.zeros((n, self.n_features))
        if n == 0:
            return x
        in_channels: List[float] = []
        out_channels: List[float] = []
        spatial: List[float] = []
        kernel_area: List[float] = []
        stride_product: List[float] = []
        groups: List[float] = []
        heads: List[float] = []
        for node in graph.compute_nodes():
            in_shape = (graph[node.inputs[0]].output_shape if node.inputs
                        else ())
            out_shape = node.output_shape
            in_channels.append(float(in_shape[0]) if in_shape else 0.0)
            out_channels.append(float(out_shape[0]) if out_shape else 0.0)
            spatial.append(float(out_shape[1]) if len(out_shape) >= 2
                           else 0.0)
            attrs = node.attrs
            if isinstance(attrs, ConvAttrs):
                kernel_area.append(float(attrs.kernel[0] * attrs.kernel[1]))
                stride_product.append(float(attrs.stride[0]
                                            * attrs.stride[1]))
                groups.append(float(attrs.groups))
            else:
                kernel_area.append(0.0)
                stride_product.append(1.0)
                groups.append(1.0)
            heads.append(float(attrs.num_heads)
                         if isinstance(attrs, AttentionAttrs) else 0.0)

        def logs(values) -> List[float]:
            return [_log1p(v) for v in values]

        c = 0
        for column in (table.flops, table.params, table.mem_elements,
                       table.in_elements, table.out_elements,
                       table.intensity):
            x[:, c] = logs(column.tolist())
            c += 1
        x[np.arange(n), c + table.category] = 1.0
        c += _N_CATEGORIES
        for column in (logs(in_channels), logs(out_channels),
                       logs(spatial), kernel_area, stride_product,
                       logs(groups), heads, table.residual, table.fan_out):
            x[:, c] = column
            c += 1
        return x

    def extract_scaled(self, graph: Graph) -> np.ndarray:
        """Column-standardized features (Algorithm 1 takes *scaled*
        deepwise features; constant columns become zero)."""
        x = self.extract(graph)
        if x.shape[0] == 0:
            return x
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-12] = 1.0
        return (x - mean) / std


@dataclass(frozen=True)
class GlobalFeatures:
    """Global feature record of a network or a block.

    ``structural`` and ``statistics`` are kept separate because the
    hyper-parameter prediction model injects them at different stages
    (Figure 3); ``vector`` is their concatenation for single-input
    consumers such as the decision model.
    """

    structural: np.ndarray
    statistics: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.structural, self.statistics])


#: Names of the structural feature slots.
STRUCTURAL_FEATURE_NAMES: List[str] = [
    "log_n_layers",
    "log_depth",
    "n_branch_points_frac",
    "n_merge_points_frac",
    "n_residual_frac",
    *[f"count_frac_{c.value}" for c in CATEGORY_ORDER],
    "has_attention",
    "has_dwconv",
    "has_concat_topology",
]

#: Names of the statistics feature slots.
STATISTICS_FEATURE_NAMES: List[str] = [
    "log_total_flops",
    "log_total_params",
    "log_total_mem",
    "log_mean_flops",
    "std_log_flops",
    "log_max_flops",
    "mean_log_intensity",
    "std_log_intensity",
    *[f"flops_frac_{c.value}" for c in CATEGORY_ORDER],
    "position_frac",
    "length_frac",
]


class GlobalFeatureExtractor:
    """Structural + statistics features for graphs and blocks."""

    @property
    def structural_dim(self) -> int:
        return len(STRUCTURAL_FEATURE_NAMES)

    @property
    def statistics_dim(self) -> int:
        return len(STATISTICS_FEATURE_NAMES)

    # ------------------------------------------------------------------
    def extract(self, graph: Graph,
                op_indices: Optional[Sequence[int]] = None) -> GlobalFeatures:
        """Global features of a whole graph, or of the block selected by
        ``op_indices`` (positions in the canonical compute order).

        Block extraction adds where-in-the-network context
        (``position_frac``, ``length_frac``) that whole-graph extraction
        sets to 0 and 1 respectively.
        """
        table = node_table(graph)
        n_total = len(table)
        if n_total == 0:
            raise ValueError(f"graph {graph.name!r} has no compute nodes")
        if op_indices is None:
            rows = slice(None)
            position_frac, length_frac = 0.0, 1.0
        else:
            rows = sorted(op_indices)
            if not rows:
                raise ValueError("empty block")
            if rows[0] < 0 or rows[-1] >= n_total:
                raise IndexError("block indices out of range")
            position_frac = rows[0] / n_total
            length_frac = len(rows) / n_total
        flops = table.flops[rows]
        params = table.params[rows]
        mem = table.mem_elements[rows]
        intensity = table.intensity[rows]
        cats = table.category[rows]
        n = len(flops)

        # bincount's weighted sum adds in index order, bit-equal to a
        # running per-node sum.
        cat_counts = np.bincount(cats, minlength=_N_CATEGORIES).astype(float)
        cat_flops = np.bincount(cats, weights=flops, minlength=_N_CATEGORIES)
        n_residual = int(np.count_nonzero(table.residual[rows]))
        n_merge = int(np.count_nonzero(table.merge[rows]))
        n_branch = int(np.count_nonzero(table.fan_out[rows] > 1))
        has_attention = 1.0 if (cats == _ATTENTION).any() else 0.0
        has_dwconv = 1.0 if (cats == _DWCONV).any() else 0.0
        has_concat = 1.0 if table.concat[rows].any() else 0.0

        total_flops = float(flops.sum())
        log_flops = np.log1p(flops)
        log_intensity = np.log1p(intensity)

        structural = np.array([
            _log1p(n),
            _log1p(graph.depth() if op_indices is None else n),
            n_branch / n,
            n_merge / n,
            n_residual / n,
            *(cat_counts / n),
            has_attention,
            has_dwconv,
            has_concat,
        ])
        flops_frac = cat_flops / total_flops if total_flops > 0 \
            else np.zeros(_N_CATEGORIES)
        statistics = np.array([
            _log1p(total_flops),
            _log1p(float(params.sum())),
            _log1p(float(mem.sum())),
            _log1p(total_flops / n),
            float(log_flops.std()),
            _log1p(float(flops.max())),
            float(log_intensity.mean()),
            float(log_intensity.std()),
            *flops_frac,
            position_frac,
            length_frac,
        ])
        return GlobalFeatures(structural=structural, statistics=statistics)

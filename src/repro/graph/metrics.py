"""Per-operator and whole-graph cost metrics.

These metrics are the raw material of the paper's power-sensitive feature
extraction (section 2.1.2): computational load (FLOPs), parameter count,
memory-access volume, channel counts and feature-map dimensions.  They are
also what the hardware simulator's roofline model consumes.

All counts are per batch element; the simulator scales by batch size.

:func:`node_table` is the one derivation the feature extractors and the
latency model read: a single :func:`node_metrics` pass over a graph's
compute nodes, kept on the graph until it next changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.graph.graph import Graph, Node
from repro.graph.ops import (
    ACTIVATION_COST_FACTORS,
    CATEGORY_ORDER,
    AttentionAttrs,
    ConvAttrs,
    LinearAttrs,
    NormAttrs,
    OpType,
    PoolAttrs,
    is_activation,
)
from repro.graph.shapes import Shape, element_count


@dataclass(frozen=True)
class NodeMetrics:
    """Cost metrics of one operator, per batch element.

    Attributes
    ----------
    flops:
        Floating point operations (multiply-accumulate counted as 2).
    params:
        Learnable parameter count.
    mem_elements:
        Elements moved through memory: inputs read + outputs written +
        weights read.  The hardware model multiplies by dtype size.
    in_elements / out_elements:
        Activation element counts, used for utilisation features.
    arithmetic_intensity:
        flops / mem_elements — the roofline abscissa; high values mean
        compute-bound operators, low values memory-bound ones.
    """

    flops: float
    params: float
    mem_elements: float
    in_elements: float
    out_elements: float

    @property
    def arithmetic_intensity(self) -> float:
        if self.mem_elements <= 0:
            return 0.0
        return self.flops / self.mem_elements


def _input_shapes(graph: Graph, node: Node) -> Tuple[Shape, ...]:
    return tuple(graph[src].output_shape for src in node.inputs)


def node_metrics(graph: Graph, node: Node) -> NodeMetrics:
    """Compute :class:`NodeMetrics` for a node whose shapes are inferred."""
    in_shapes = _input_shapes(graph, node)
    out_shape = node.output_shape
    in_elems = float(sum(element_count(s) for s in in_shapes))
    out_elems = float(element_count(out_shape))
    op = node.op
    attrs = node.attrs

    flops = 0.0
    params = 0.0

    if op is OpType.INPUT:
        return NodeMetrics(0.0, 0.0, out_elems, 0.0, out_elems)

    if op is OpType.CONV2D:
        assert isinstance(attrs, ConvAttrs)
        cin = in_shapes[0][0]
        cout, oh, ow = out_shape
        kh, kw = attrs.kernel
        macs_per_out = (cin // attrs.groups) * kh * kw
        flops = 2.0 * cout * oh * ow * macs_per_out
        params = cout * (cin // attrs.groups) * kh * kw
        if attrs.bias:
            params += cout
            flops += cout * oh * ow
    elif op is OpType.LINEAR:
        assert isinstance(attrs, LinearAttrs)
        din = in_shapes[0][-1]
        dout = attrs.out_features
        rows = element_count(in_shapes[0]) // max(din, 1)
        flops = 2.0 * rows * din * dout
        params = din * dout
        if attrs.bias:
            params += dout
            flops += rows * dout
    elif op is OpType.ATTENTION:
        assert isinstance(attrs, AttentionAttrs)
        length, dim = in_shapes[0]
        # QKV projections + output projection: 4 dense D x D matmuls.
        flops = 2.0 * length * dim * dim * 4
        # Scaled dot-product: Q.K^T and attn.V, each 2*L*L*D.
        flops += 2.0 * length * length * dim * 2
        # Softmax over L x L logits per head.
        flops += 5.0 * attrs.num_heads * length * length
        params = 4.0 * dim * dim
        if attrs.qkv_bias:
            params += 4.0 * dim
    elif op is OpType.BATCHNORM2D:
        assert isinstance(attrs, NormAttrs)
        c = out_shape[0]
        flops = 2.0 * out_elems
        params = (2.0 if attrs.affine else 0.0) * c + 2.0 * c  # + run stats
    elif op is OpType.LAYERNORM:
        assert isinstance(attrs, NormAttrs)
        d = out_shape[-1]
        flops = 5.0 * out_elems
        params = (2.0 if attrs.affine else 0.0) * d
    elif is_activation(op):
        flops = ACTIVATION_COST_FACTORS[op] * out_elems
    elif op in (OpType.MAXPOOL2D, OpType.AVGPOOL2D):
        assert isinstance(attrs, PoolAttrs)
        flops = out_elems * attrs.kernel[0] * attrs.kernel[1]
    elif op is OpType.ADAPTIVE_AVGPOOL2D:
        # Every input element is touched exactly once.
        flops = in_elems
    elif op in (OpType.ADD, OpType.MUL):
        flops = out_elems * (len(in_shapes) - 1)
    elif op is OpType.CLS_POS_EMBED:
        length, dim = out_shape
        flops = out_elems  # positional add
        params = (length * dim) + dim  # pos table + cls token
    elif op in (OpType.CONCAT, OpType.FLATTEN, OpType.DROPOUT,
                OpType.TOKENIZE, OpType.SELECT_TOKEN):
        flops = 0.0
    else:  # pragma: no cover - exhaustive above
        raise ValueError(f"no metrics rule for {op!r}")

    mem = in_elems + out_elems + params
    return NodeMetrics(flops, params, mem, in_elems, out_elems)


_CATEGORY_INDEX = {c: i for i, c in enumerate(CATEGORY_ORDER)}


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Per-operator metrics and structural facts of a graph's compute
    nodes, one array entry per node in canonical order.

    Attributes
    ----------
    position:
        Node name -> row, i.e. the node's index in ``compute_nodes()``.
    flops / params / mem_elements / in_elements / out_elements:
        The :class:`NodeMetrics` fields, as float64 columns.
    intensity:
        :attr:`NodeMetrics.arithmetic_intensity` of each node.
    category:
        Index of the node's category in :data:`CATEGORY_ORDER`.
    fan_out:
        Number of consumers of the node's output.
    merge:
        The node has more than one producer.
    residual:
        The node is an elementwise-add merge (a residual connection).
    concat:
        The node is a concatenation.
    """

    position: Dict[str, int]
    flops: np.ndarray
    params: np.ndarray
    mem_elements: np.ndarray
    in_elements: np.ndarray
    out_elements: np.ndarray
    intensity: np.ndarray
    category: np.ndarray
    fan_out: np.ndarray
    merge: np.ndarray
    residual: np.ndarray
    concat: np.ndarray

    def __len__(self) -> int:
        return len(self.position)


def node_table(graph: Graph) -> NodeTable:
    """The :class:`NodeTable` of ``graph``: one :func:`node_metrics` call
    per compute node, cached on the graph until its next ``add_node``."""
    table = graph._node_table
    if table is not None:
        return table
    nodes = graph.compute_nodes()
    rows = [node_metrics(graph, n) for n in nodes]
    merge = [len(n.inputs) > 1 for n in nodes]
    table = NodeTable(
        position={n.name: i for i, n in enumerate(nodes)},
        flops=np.array([m.flops for m in rows], dtype=float),
        params=np.array([m.params for m in rows], dtype=float),
        mem_elements=np.array([m.mem_elements for m in rows], dtype=float),
        in_elements=np.array([m.in_elements for m in rows], dtype=float),
        out_elements=np.array([m.out_elements for m in rows], dtype=float),
        intensity=np.array([m.arithmetic_intensity for m in rows],
                           dtype=float),
        category=np.array([_CATEGORY_INDEX[n.category] for n in nodes],
                          dtype=np.int8),
        fan_out=np.array([len(graph.consumers(n.name)) for n in nodes],
                         dtype=np.int32),
        merge=np.array(merge, dtype=bool),
        residual=np.array([m and n.op is OpType.ADD
                           for n, m in zip(nodes, merge)], dtype=bool),
        concat=np.array([n.op is OpType.CONCAT for n in nodes], dtype=bool),
    )
    graph._node_table = table
    return table

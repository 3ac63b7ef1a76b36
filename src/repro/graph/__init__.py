"""DNN graph intermediate representation.

This package provides the computational-graph substrate that PowerLens
analyzes.  It plays the role that torchvision/PyTorch module graphs play in
the paper: a topologically ordered set of operator nodes annotated with the
attributes (channels, kernel sizes, strides, attention heads, ...) that the
power-sensitive feature extractors consume.

The IR is deliberately *metadata only*: PowerLens never evaluates tensor
values, so nodes carry shapes and operator attributes, not weights.
"""

from repro.graph.ops import (
    OpType,
    OpCategory,
    OpAttrs,
    ConvAttrs,
    LinearAttrs,
    PoolAttrs,
    NormAttrs,
    ActivationAttrs,
    AttentionAttrs,
    ReshapeAttrs,
    TokenAttrs,
    ACTIVATION_COST_FACTORS,
    category_of,
)
from repro.graph.graph import Graph, Node, GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.shapes import infer_output_shape, ShapeError
from repro.graph.metrics import NodeMetrics, NodeTable, node_metrics, node_table
from repro.graph.validate import validate_graph, ValidationIssue
from repro.graph.dot import graph_to_dot

__all__ = [
    "OpType",
    "OpCategory",
    "OpAttrs",
    "ConvAttrs",
    "LinearAttrs",
    "PoolAttrs",
    "NormAttrs",
    "ActivationAttrs",
    "AttentionAttrs",
    "ReshapeAttrs",
    "TokenAttrs",
    "ACTIVATION_COST_FACTORS",
    "category_of",
    "Graph",
    "Node",
    "GraphError",
    "GraphBuilder",
    "infer_output_shape",
    "ShapeError",
    "NodeMetrics",
    "node_metrics",
    "NodeTable",
    "node_table",
    "validate_graph",
    "ValidationIssue",
    "graph_to_dot",
]

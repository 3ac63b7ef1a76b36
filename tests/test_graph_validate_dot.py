"""Validation pass and DOT export tests."""

import pytest

from repro.graph import GraphBuilder, graph_to_dot, validate_graph
from repro.graph.dot import power_view_to_dot
from repro.graph.graph import Graph, Node
from repro.graph.ops import InputAttrs, OpAttrs, OpType
from repro.graph.validate import assert_valid


def test_valid_graph_has_no_issues(small_cnn):
    assert validate_graph(small_cnn) == []
    assert_valid(small_cnn)


def test_missing_input_node_flagged():
    g = Graph("empty")
    issues = validate_graph(g)
    assert any("no input node" in i.message for i in issues)


def test_shape_mismatch_flagged(small_cnn):
    # Corrupt one node's stored shape.
    node = small_cnn.compute_nodes()[0]
    node.output_shape = (999, 1, 1)
    issues = validate_graph(small_cnn)
    assert any(i.severity == "error" and "inferred" in i.message
               for i in issues)
    with pytest.raises(ValueError):
        assert_valid(small_cnn)


def test_multiple_outputs_warn():
    b = GraphBuilder("g")
    x = b.input((4, 8, 8))
    b.relu(x)
    b.activation(x, OpType.SIGMOID)
    issues = validate_graph(b.build())
    assert any(i.severity == "warning" and "output nodes" in i.message
               for i in issues)


def test_compute_node_without_inputs_flagged():
    g = Graph("g")
    g.add_node(Node("in", OpType.INPUT, InputAttrs((4,)), (), (4,)))
    g.add_node(Node("orphan", OpType.RELU, OpAttrs(), (), (4,)))
    issues = validate_graph(g)
    assert any("has no inputs" in i.message for i in issues)


def test_dot_contains_all_nodes(small_cnn):
    dot = graph_to_dot(small_cnn)
    for node in small_cnn.nodes():
        assert f'"{node.name}"' in dot
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")


def test_dot_edges_match_graph(small_cnn):
    dot = graph_to_dot(small_cnn)
    for node in small_cnn.nodes():
        for src in node.inputs:
            assert f'"{src}" -> "{node.name}"' in dot


def test_power_view_dot_colours_blocks(small_cnn):
    n = len(small_cnn.compute_nodes())
    half = n // 2
    dot = power_view_to_dot(small_cnn, [list(range(half)),
                                        list(range(half, n))])
    # Two distinct block colours from the palette should appear.
    assert dot.count("#a6cee3") >= 1
    assert dot.count("#b2df8a") >= 1

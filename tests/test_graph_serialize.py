"""Serialization round-trip tests, including a property-based round trip
over the random DNN generator."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import (
    Graph,
    GraphError,
    graph_from_dict,
    graph_to_dict,
)
from repro.models import RandomDNNGenerator


def _assert_graphs_equal(a: Graph, b: Graph) -> None:
    assert a.name == b.name
    assert [n.name for n in a.nodes()] == [n.name for n in b.nodes()]
    for node_a, node_b in zip(a.nodes(), b.nodes()):
        assert node_a.op == node_b.op
        assert node_a.attrs == node_b.attrs
        assert node_a.inputs == node_b.inputs
        assert node_a.output_shape == node_b.output_shape


def test_roundtrip_small_cnn(small_cnn):
    _assert_graphs_equal(small_cnn, graph_from_dict(graph_to_dict(small_cnn)))


def test_malformed_payload_raises():
    with pytest.raises(GraphError):
        graph_from_dict({"name": "x"})
    with pytest.raises(GraphError):
        graph_from_dict({"name": "x", "nodes": [{"name": "a"}]})
    with pytest.raises(GraphError):
        graph_from_dict({
            "name": "x",
            "nodes": [{"name": "a", "op": "not_an_op", "attrs": {},
                       "inputs": [], "output_shape": [1]}],
        })


def test_tuples_restored_as_tuples(small_cnn):
    g2 = graph_from_dict(graph_to_dict(small_cnn))
    conv = next(n for n in g2.compute_nodes() if n.op.value == "conv2d")
    assert isinstance(conv.attrs.kernel, tuple)
    assert isinstance(conv.output_shape, tuple)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_random_graph_roundtrip(seed):
    """Property: any generator output survives dict round-trip intact."""
    graph = RandomDNNGenerator(seed=seed).generate()
    _assert_graphs_equal(graph, graph_from_dict(graph_to_dict(graph)))

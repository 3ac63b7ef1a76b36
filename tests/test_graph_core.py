"""Graph container and builder tests."""

import pytest

from repro.graph import Graph, GraphBuilder, GraphError, node_table
from repro.graph.graph import Node
from repro.graph.ops import InputAttrs, OpAttrs, OpType


def _node(name, op=OpType.RELU, inputs=(), attrs=None):
    from repro.graph.ops import attrs_class_for
    if attrs is None:
        attrs = attrs_class_for(op)() if op is not OpType.INPUT \
            else InputAttrs((4,))
    return Node(name=name, op=op, attrs=attrs, inputs=tuple(inputs),
                output_shape=(4,))


class TestGraphStructure:
    def test_duplicate_name_rejected(self):
        g = Graph("g")
        g.add_node(_node("a", OpType.INPUT))
        with pytest.raises(GraphError, match="duplicate"):
            g.add_node(_node("a", OpType.INPUT))

    def test_unknown_input_rejected(self):
        g = Graph("g")
        with pytest.raises(GraphError, match="unknown input"):
            g.add_node(_node("b", inputs=("missing",)))

    def test_getitem_missing(self):
        g = Graph("g")
        with pytest.raises(GraphError, match="no such node"):
            g["nope"]

    def test_consumers_and_producers(self):
        g = Graph("g")
        g.add_node(_node("x", OpType.INPUT))
        g.add_node(_node("a", inputs=("x",)))
        g.add_node(_node("b", inputs=("x",)))
        g.add_node(_node("c", OpType.ADD, inputs=("a", "b")))
        assert sorted(g.consumers("x")) == ["a", "b"]
        assert g.producers("c") == ["a", "b"]
        assert [n.name for n in g.output_nodes] == ["c"]

    def test_len_and_contains(self, small_cnn):
        assert len(small_cnn) == len(list(small_cnn.nodes()))
        assert "input_0" in small_cnn
        assert "bogus" not in small_cnn


class TestTopology:
    def test_topological_order_respects_edges(self, small_cnn):
        order = [n.name for n in small_cnn.topological_order()]
        pos = {name: i for i, name in enumerate(order)}
        for node in small_cnn.nodes():
            for src in node.inputs:
                assert pos[src] < pos[node.name]

    def test_compute_nodes_exclude_inputs(self, small_cnn):
        assert all(n.op is not OpType.INPUT
                   for n in small_cnn.compute_nodes())
        assert len(small_cnn.compute_nodes()) == len(small_cnn) - 1

    def test_depth_linear_chain(self):
        b = GraphBuilder("chain")
        x = b.input((4, 8, 8))
        for _ in range(5):
            x = b.relu(x)
        assert b.build().depth() == 5

    def test_depth_takes_longest_path(self, small_cnn):
        # Residual shortcut is shorter than the main path.
        assert small_cnn.depth() >= 8

    def test_residual_count(self, small_cnn):
        assert int(node_table(small_cnn).residual.sum()) == 1

    def test_topo_cache_invalidated_on_add(self):
        b = GraphBuilder("g")
        x = b.input((4,))
        g = b.graph
        n1 = len(g.topological_order())
        b.relu(x)
        assert len(g.topological_order()) == n1 + 1


class TestBuilder:
    def test_auto_names_unique(self):
        b = GraphBuilder("g")
        x = b.input((4, 8, 8))
        a = b.relu(x)
        c = b.relu(a)
        assert a != c

    def test_explicit_name(self):
        b = GraphBuilder("g")
        x = b.input((4, 8, 8), name="img")
        assert x == "img"

    def test_shape_accessor(self):
        b = GraphBuilder("g")
        x = b.input((3, 32, 32))
        y = b.conv(x, 8, kernel=3, padding=1, name="c")
        assert b.shape(y) == (8, 32, 32)

    def test_conv_bn_act_block(self):
        b = GraphBuilder("g")
        x = b.input((3, 32, 32))
        b.conv_bn_act(x, 8, kernel=3, padding=1)
        ops = [n.op for n in b.build().compute_nodes()]
        assert ops == [OpType.CONV2D, OpType.BATCHNORM2D, OpType.RELU]

    def test_squeeze_excite_shape_preserved(self):
        b = GraphBuilder("g")
        x = b.input((3, 32, 32))
        x = b.conv(x, 16, kernel=3, padding=1)
        y = b.squeeze_excite(x, 4)
        assert b.shape(y) == (16, 32, 32)

"""Additional builder / DOT / metrics edge-case coverage."""

import pytest

from repro.graph import GraphBuilder, graph_to_dot, node_metrics
from repro.graph.ops import OpType


class TestBuilderComposites:
    def test_pair_expansion(self):
        b = GraphBuilder("g")
        x = b.input((3, 16, 16))
        y = b.conv(x, 4, kernel=(1, 7), padding=(0, 3))
        assert b.shape(y) == (4, 16, 16)

    def test_all_activation_helpers(self):
        b = GraphBuilder("g")
        x = b.input((3, 8, 8))
        for helper in (b.relu, b.gelu, b.hardswish, b.softmax):
            x = helper(x)
        for op in (OpType.RELU6, OpType.SIGMOID, OpType.HARDSIGMOID,
                   OpType.SILU):
            x = b.activation(x, op)
        ops = [n.op for n in b.build().compute_nodes()]
        assert OpType.GELU in ops and OpType.SILU in ops

    def test_avgpool_and_dropout(self):
        b = GraphBuilder("g")
        x = b.input((4, 8, 8))
        x = b.avgpool(x, kernel=2, stride=2)
        x = b.dropout(x, p=0.3)
        assert b.shape(x) == (4, 4, 4)

    def test_mul_gate(self):
        b = GraphBuilder("g")
        x = b.input((4, 8, 8))
        g1 = b.adaptive_avgpool(x, 1)
        y = b.mul([x, g1])
        assert b.shape(y) == (4, 8, 8)

    def test_explicit_duplicate_name_rejected(self):
        from repro.graph import GraphError
        b = GraphBuilder("g")
        b.input((4,), name="x")
        with pytest.raises(GraphError):
            b.input((4,), name="x")


class TestMetricsEdgeCases:
    def test_cls_pos_embed_params(self):
        b = GraphBuilder("g")
        x = b.input((8, 4, 4))
        x = b.tokenize(x)
        x = b.cls_pos_embed(x)
        g = b.build()
        node = g.compute_nodes()[-1]
        m = node_metrics(g, node)
        # 17 tokens x 8 dims positional table + 8-dim cls token.
        assert m.params == 17 * 8 + 8

    def test_concat_is_free_compute(self, small_cnn):
        b = GraphBuilder("g")
        x = b.input((4, 8, 8))
        y = b.relu(x)
        z = b.concat([x, y])
        g = b.build()
        m = node_metrics(g, g[z])
        assert m.flops == 0.0
        assert m.mem_elements > 0

    def test_maxpool_flops_scale_with_kernel(self):
        def pool_metrics(k):
            b = GraphBuilder("g")
            x = b.input((4, 16, 16))
            y = b.maxpool(x, kernel=k, stride=k)
            g = b.build()
            return node_metrics(g, g[y])
        assert pool_metrics(4).flops == pool_metrics(2).flops

    def test_layernorm_params(self):
        b = GraphBuilder("g")
        x = b.input((768, 4, 4))
        x = b.tokenize(x)
        y = b.layernorm(x)
        g = b.build()
        assert node_metrics(g, g[y]).params == 2 * 768


class TestDot:
    def test_long_labels_truncated(self):
        b = GraphBuilder("g")
        x = b.input((3, 8, 8),
                    name="a_very_long_node_name_that_keeps_going_on")
        b.relu(x, name="another_extremely_long_name_for_a_relu_node")
        dot = graph_to_dot(b.build(), max_label_len=10)
        for line in dot.splitlines():
            if "label=" in line:
                label = line.split('label="')[1].split('"')[0]
                assert len(label) <= 20

    def test_input_node_white(self, small_cnn):
        dot = graph_to_dot(small_cnn)
        input_line = next(line for line in dot.splitlines()
                          if '"input_0"' in line and "label=" in line)
        assert "#ffffff" in input_line

"""Operator/graph metric tests, pinned against hand-computed and
published reference values."""

import numpy as np
import pytest

from repro.graph import GraphBuilder, node_metrics, node_table
from repro.graph.ops import CATEGORY_ORDER, OpType
from repro.models import build_model


def _single_op_metrics(build):
    b = GraphBuilder("m")
    build(b)
    g = b.build()
    node = g.compute_nodes()[-1]
    return node_metrics(g, node)


class TestConvMetrics:
    def test_conv_flops_hand_computed(self):
        # 3x3 conv, 4->8 channels, 16x16 output, no bias:
        # 2 * 8 * 16 * 16 * (4 * 3 * 3) = 147456
        m = _single_op_metrics(lambda b: b.conv(
            b.input((4, 16, 16)), 8, kernel=3, padding=1, bias=False))
        assert m.flops == pytest.approx(2 * 8 * 16 * 16 * 36)
        assert m.params == 8 * 4 * 9

    def test_conv_bias_adds_params_and_flops(self):
        base = _single_op_metrics(lambda b: b.conv(
            b.input((4, 16, 16)), 8, kernel=3, padding=1, bias=False))
        biased = _single_op_metrics(lambda b: b.conv(
            b.input((4, 16, 16)), 8, kernel=3, padding=1, bias=True))
        assert biased.params == base.params + 8
        assert biased.flops == base.flops + 8 * 16 * 16

    def test_grouped_conv_divides_flops(self):
        dense = _single_op_metrics(lambda b: b.conv(
            b.input((8, 16, 16)), 8, kernel=3, padding=1, bias=False))
        grouped = _single_op_metrics(lambda b: b.conv(
            b.input((8, 16, 16)), 8, kernel=3, padding=1, groups=4,
            bias=False))
        assert grouped.flops == pytest.approx(dense.flops / 4)
        assert grouped.params == pytest.approx(dense.params / 4)

    def test_linear_flops(self):
        m = _single_op_metrics(lambda b: b.linear(
            b.input((512,)), 100, bias=True))
        assert m.flops == pytest.approx(2 * 512 * 100 + 100)
        assert m.params == 512 * 100 + 100

    def test_attention_params(self):
        def build(b):
            x = b.input((768, 14, 14))
            x = b.tokenize(x)
            b.attention(x, num_heads=12)
        m = _single_op_metrics(build)
        assert m.params == 4 * 768 * 768 + 4 * 768

    def test_intensity_positive(self):
        m = _single_op_metrics(lambda b: b.relu(b.input((8, 16, 16))))
        assert m.arithmetic_intensity > 0


class TestPublishedTotals:
    """Whole-model totals against well-known published numbers.

    FLOPs here count MAC as 2 ops, so they are 2x the 'GMACs' figures
    usually quoted; params match directly.
    """

    @pytest.mark.parametrize("model,params_m,tol", [
        ("alexnet", 61.1, 0.02),
        ("vgg19", 143.7, 0.02),
        ("resnet34", 21.8, 0.02),
        ("resnet152", 60.2, 0.02),
        ("densenet201", 20.0, 0.05),
        ("mobilenet_v3_large", 5.48, 0.05),
        ("resnext101_32x8d", 88.8, 0.02),
        ("vit_b_16", 86.6, 0.02),
        ("regnet_y_128gf", 644.8, 0.02),
        ("regnet_x_8gf", 39.6, 0.02),
    ])
    def test_param_counts(self, model, params_m, tol):
        g = build_model(model)
        total = node_table(g).params.sum() / 1e6
        assert total == pytest.approx(params_m, rel=tol)

    @pytest.mark.parametrize("model,gmacs,tol", [
        ("alexnet", 0.71, 0.05),
        ("vgg19", 19.6, 0.05),
        ("resnet152", 11.6, 0.05),
        ("vit_b_16", 17.6, 0.05),
    ])
    def test_flop_counts(self, model, gmacs, tol):
        g = build_model(model)
        total = node_table(g).flops.sum() / 2e9
        assert total == pytest.approx(gmacs, rel=tol)


class TestGraphMetrics:
    """The node table: one row per compute node, in canonical order."""

    def test_aggregates_consistent(self, small_cnn):
        table = node_table(small_cnn)
        nodes = small_cnn.compute_nodes()
        assert len(table) == len(nodes)
        for i, node in enumerate(nodes):
            assert table.position[node.name] == i
            m = node_metrics(small_cnn, node)
            assert (table.flops[i], table.params[i], table.mem_elements[i],
                    table.in_elements[i], table.out_elements[i]) == \
                (m.flops, m.params, m.mem_elements, m.in_elements,
                 m.out_elements)

    def test_category_breakdown_sums(self, small_cnn):
        table = node_table(small_cnn)
        assert [CATEGORY_ORDER[c] for c in table.category] == \
            [n.category for n in small_cnn.compute_nodes()]
        per_cat = np.bincount(table.category, weights=table.flops)
        assert per_cat.sum() == pytest.approx(table.flops.sum())

    def test_mean_intensity(self, small_cnn):
        table = node_table(small_cnn)
        assert table.flops.sum() / table.mem_elements.sum() > 0
        assert list(table.intensity) == [
            node_metrics(small_cnn, node).arithmetic_intensity
            for node in small_cnn.compute_nodes()]

    def test_structural_facts(self, small_cnn):
        table = node_table(small_cnn)
        for i, node in enumerate(small_cnn.compute_nodes()):
            merge = len(node.inputs) > 1
            assert table.fan_out[i] == len(small_cnn.consumers(node.name))
            assert table.merge[i] == merge
            assert table.residual[i] == (merge and node.op is OpType.ADD)
            assert table.concat[i] == (node.op is OpType.CONCAT)

    def test_cached_until_add_node(self):
        b = GraphBuilder("g")
        x = b.relu(b.input((3, 8, 8)))
        table = node_table(b.graph)
        assert node_table(b.graph) is table
        b.relu(x)
        grown = node_table(b.graph)
        assert len(table) == 1 and len(grown) == 2
        assert grown.fan_out[0] == 1 and table.fan_out[0] == 0

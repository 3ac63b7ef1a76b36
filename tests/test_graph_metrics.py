"""Operator/graph metric tests, pinned against hand-computed and
published reference values."""

import pytest

from repro.graph import GraphBuilder, graph_metrics, node_metrics
from repro.graph.metrics import metrics_table
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
        total = graph_metrics(g).total_params / 1e6
        assert total == pytest.approx(params_m, rel=tol)

    @pytest.mark.parametrize("model,gmacs,tol", [
        ("alexnet", 0.71, 0.05),
        ("vgg19", 19.6, 0.05),
        ("resnet152", 11.6, 0.05),
        ("vit_b_16", 17.6, 0.05),
    ])
    def test_flop_counts(self, model, gmacs, tol):
        g = build_model(model)
        total = graph_metrics(g).total_flops / 2e9
        assert total == pytest.approx(gmacs, rel=tol)


class TestGraphMetrics:
    def test_aggregates_consistent(self, small_cnn):
        gm = graph_metrics(small_cnn)
        rows = metrics_table(small_cnn)
        assert gm.n_compute_nodes == len(rows)
        assert gm.total_flops == pytest.approx(
            sum(m.flops for _, m in rows))
        assert gm.total_params == pytest.approx(
            sum(m.params for _, m in rows))

    def test_category_breakdown_sums(self, small_cnn):
        gm = graph_metrics(small_cnn)
        assert sum(gm.flops_by_category.values()) == \
            pytest.approx(gm.total_flops)
        assert sum(gm.count_by_category.values()) == gm.n_compute_nodes

    def test_mean_intensity(self, small_cnn):
        gm = graph_metrics(small_cnn)
        assert gm.mean_intensity > 0

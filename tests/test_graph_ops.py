"""Operator taxonomy tests."""

import pytest

from repro.graph.ops import (
    ACTIVATION_COST_FACTORS,
    CATEGORY_ORDER,
    ActivationAttrs,
    AttentionAttrs,
    ConvAttrs,
    InputAttrs,
    LinearAttrs,
    OpCategory,
    OpType,
    attrs_class_for,
    category_of,
    is_activation,
)


class TestCategories:
    def test_dense_conv_is_conv(self):
        attrs = ConvAttrs(out_channels=64, groups=1)
        assert category_of(OpType.CONV2D, attrs) is OpCategory.CONV

    def test_depthwise_conv_is_dwconv(self):
        attrs = ConvAttrs(out_channels=64, groups=64)
        assert category_of(OpType.CONV2D, attrs) is OpCategory.DWCONV

    def test_grouped_conv_below_out_channels_stays_conv(self):
        # ResNeXt-style cardinality (groups < out_channels) is not
        # depthwise behaviour.
        attrs = ConvAttrs(out_channels=256, groups=32)
        assert category_of(OpType.CONV2D, attrs) is OpCategory.CONV

    def test_linear(self):
        assert category_of(OpType.LINEAR, LinearAttrs(10)) \
            is OpCategory.LINEAR

    def test_attention(self):
        attrs = AttentionAttrs(embed_dim=64, num_heads=4)
        assert category_of(OpType.ATTENTION, attrs) is OpCategory.ATTENTION

    @pytest.mark.parametrize("op", [OpType.BATCHNORM2D, OpType.LAYERNORM])
    def test_norms(self, op):
        assert category_of(op, None) is OpCategory.NORM

    @pytest.mark.parametrize("op", [
        OpType.RELU, OpType.GELU, OpType.HARDSWISH, OpType.SOFTMAX,
        OpType.SIGMOID, OpType.SILU, OpType.TANH, OpType.RELU6,
        OpType.HARDSIGMOID,
    ])
    def test_activations(self, op):
        assert category_of(op, None) is OpCategory.ACTIVATION
        assert is_activation(op)

    @pytest.mark.parametrize("op", [
        OpType.MAXPOOL2D, OpType.AVGPOOL2D, OpType.ADAPTIVE_AVGPOOL2D,
    ])
    def test_pools(self, op):
        assert category_of(op, None) is OpCategory.POOL

    @pytest.mark.parametrize("op", [OpType.ADD, OpType.MUL, OpType.CONCAT])
    def test_elementwise(self, op):
        assert category_of(op, None) is OpCategory.ELEMENTWISE

    def test_input_is_io(self):
        assert category_of(OpType.INPUT, InputAttrs()) is OpCategory.IO

    def test_every_category_reachable(self):
        """Each coarse category has at least one concrete op mapping."""
        seen = set()
        for op in OpType:
            attrs = None
            if op is OpType.CONV2D:
                attrs = ConvAttrs(out_channels=8, groups=8)
                seen.add(category_of(op, ConvAttrs(out_channels=8)))
            seen.add(category_of(op, attrs))
        assert seen == set(OpCategory)


class TestAttrs:
    def test_attrs_class_for_conv(self):
        assert attrs_class_for(OpType.CONV2D) is ConvAttrs

    def test_attrs_class_for_activation(self):
        assert attrs_class_for(OpType.RELU) is ActivationAttrs

    def test_default_attrs_for_relu(self):
        assert attrs_class_for(OpType.RELU)() == ActivationAttrs()

    def test_default_attrs_for_conv_raises(self):
        # A convolution has no default output channel count.
        with pytest.raises(TypeError):
            attrs_class_for(OpType.CONV2D)()

    def test_conv_attrs_frozen(self):
        attrs = ConvAttrs(out_channels=8)
        with pytest.raises(AttributeError):
            attrs.out_channels = 16

    def test_to_dict_roundtrippable(self):
        attrs = ConvAttrs(out_channels=8, kernel=(3, 3))
        d = attrs.to_dict()
        assert d["out_channels"] == 8
        assert ConvAttrs(**d) == attrs


class TestActivationCosts:
    def test_all_activations_have_costs(self):
        for op in OpType:
            if is_activation(op):
                assert op in ACTIVATION_COST_FACTORS

    def test_gelu_costlier_than_relu(self):
        assert ACTIVATION_COST_FACTORS[OpType.GELU] > \
            ACTIVATION_COST_FACTORS[OpType.RELU]


def test_category_order_is_complete_and_stable():
    assert len(CATEGORY_ORDER) == len(OpCategory)
    assert len(set(CATEGORY_ORDER)) == len(CATEGORY_ORDER)
    assert CATEGORY_ORDER[0] is OpCategory.CONV

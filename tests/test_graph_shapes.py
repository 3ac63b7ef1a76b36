"""Shape inference tests, including hypothesis property tests for the
convolution/pooling window arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.graph.ops import (
    AttentionAttrs,
    ConcatAttrs,
    ConvAttrs,
    InputAttrs,
    LinearAttrs,
    OpAttrs,
    PoolAttrs,
    ReshapeAttrs,
    TokenAttrs,
    OpType,
)
from repro.graph.shapes import ShapeError, element_count, infer_output_shape


class TestConv:
    def test_basic_conv(self):
        attrs = ConvAttrs(out_channels=64, kernel=(7, 7), stride=(2, 2),
                          padding=(3, 3))
        out = infer_output_shape(OpType.CONV2D, attrs, [(3, 224, 224)])
        assert out == (64, 112, 112)

    def test_same_padding_k3(self):
        attrs = ConvAttrs(out_channels=8, kernel=(3, 3), padding=(1, 1))
        assert infer_output_shape(OpType.CONV2D, attrs,
                                  [(4, 32, 32)]) == (8, 32, 32)

    def test_dilation(self):
        attrs = ConvAttrs(out_channels=8, kernel=(3, 3), dilation=(2, 2))
        # effective kernel 5 -> 32 - 5 + 1 = 28
        assert infer_output_shape(OpType.CONV2D, attrs,
                                  [(4, 32, 32)]) == (8, 28, 28)

    def test_groups_must_divide_in_channels(self):
        attrs = ConvAttrs(out_channels=8, groups=3)
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.CONV2D, attrs, [(4, 8, 8)])

    @pytest.mark.parametrize("groups", [0, -2])
    def test_groups_below_one_raise(self, groups):
        """A zero group count is a shape error, not a ZeroDivisionError
        (RegNetX-8GF computed one before its stage-width clamp)."""
        attrs = ConvAttrs(out_channels=8, groups=groups)
        with pytest.raises(ShapeError, match="groups must be >= 1"):
            infer_output_shape(OpType.CONV2D, attrs, [(4, 8, 8)])

    def test_groups_must_divide_out_channels(self):
        attrs = ConvAttrs(out_channels=9, groups=2)
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.CONV2D, attrs, [(4, 8, 8)])

    def test_window_larger_than_input_raises(self):
        attrs = ConvAttrs(out_channels=8, kernel=(9, 9))
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.CONV2D, attrs, [(4, 4, 4)])

    def test_wrong_rank_raises(self):
        attrs = ConvAttrs(out_channels=8)
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.CONV2D, attrs, [(4, 8)])

    @given(
        size=st.integers(4, 64),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
    )
    def test_conv_output_positive_and_bounded(self, size, kernel, stride,
                                              padding):
        """Property: output spatial dims are positive and never exceed
        the padded input size."""
        attrs = ConvAttrs(out_channels=4, kernel=(kernel, kernel),
                          stride=(stride, stride),
                          padding=(padding, padding))
        out = infer_output_shape(OpType.CONV2D, attrs, [(2, size, size)])
        assert out[0] == 4
        assert 1 <= out[1] <= size + 2 * padding
        # Definition check along one axis.
        assert out[1] == (size + 2 * padding - kernel) // stride + 1


class TestPool:
    def test_maxpool_ceil_mode(self):
        # torchvision googlenet: 112x112, k3 s2 ceil -> 56
        attrs = PoolAttrs(kernel=(3, 3), stride=(2, 2), ceil_mode=True)
        assert infer_output_shape(OpType.MAXPOOL2D, attrs,
                                  [(64, 112, 112)]) == (64, 56, 56)

    def test_maxpool_floor_mode(self):
        attrs = PoolAttrs(kernel=(3, 3), stride=(2, 2))
        assert infer_output_shape(OpType.MAXPOOL2D, attrs,
                                  [(64, 112, 112)]) == (64, 55, 55)

    def test_adaptive_avgpool(self):
        attrs = PoolAttrs(output_size=(7, 7))
        assert infer_output_shape(OpType.ADAPTIVE_AVGPOOL2D, attrs,
                                  [(512, 14, 14)]) == (512, 7, 7)

    @given(size=st.integers(2, 40))
    def test_ceil_mode_never_smaller_than_floor(self, size):
        floor_attrs = PoolAttrs(kernel=(3, 3), stride=(2, 2))
        ceil_attrs = PoolAttrs(kernel=(3, 3), stride=(2, 2),
                               ceil_mode=True)
        if size < 3:
            return
        floor = infer_output_shape(OpType.MAXPOOL2D, floor_attrs,
                                   [(1, size, size)])
        ceil = infer_output_shape(OpType.MAXPOOL2D, ceil_attrs,
                                  [(1, size, size)])
        assert ceil[1] >= floor[1]


class TestLinearAndTokens:
    def test_linear_on_vector(self):
        assert infer_output_shape(OpType.LINEAR, LinearAttrs(100),
                                  [(512,)]) == (100,)

    def test_linear_on_tokens(self):
        assert infer_output_shape(OpType.LINEAR, LinearAttrs(3072),
                                  [(197, 768)]) == (197, 3072)

    def test_tokenize(self):
        assert infer_output_shape(OpType.TOKENIZE, TokenAttrs(),
                                  [(768, 14, 14)]) == (196, 768)

    def test_cls_pos_embed(self):
        assert infer_output_shape(OpType.CLS_POS_EMBED, TokenAttrs(),
                                  [(196, 768)]) == (197, 768)

    def test_select_token(self):
        assert infer_output_shape(OpType.SELECT_TOKEN, TokenAttrs(0),
                                  [(197, 768)]) == (768,)

    def test_attention_shape_preserved(self):
        attrs = AttentionAttrs(embed_dim=768, num_heads=12)
        assert infer_output_shape(OpType.ATTENTION, attrs,
                                  [(197, 768)]) == (197, 768)

    def test_attention_dim_mismatch(self):
        attrs = AttentionAttrs(embed_dim=512, num_heads=8)
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.ATTENTION, attrs, [(197, 768)])

    def test_attention_heads_must_divide(self):
        attrs = AttentionAttrs(embed_dim=768, num_heads=7)
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.ATTENTION, attrs, [(197, 768)])


class TestElementwise:
    def test_add_same_shapes(self):
        assert infer_output_shape(OpType.ADD, OpAttrs(),
                                  [(8, 4, 4), (8, 4, 4)]) == (8, 4, 4)

    def test_add_broadcast(self):
        assert infer_output_shape(OpType.MUL, OpAttrs(),
                                  [(8, 4, 4), (8, 1, 1)]) == (8, 4, 4)

    def test_add_incompatible_raises(self):
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.ADD, OpAttrs(),
                               [(8, 4, 4), (7, 4, 4)])

    def test_concat_channels(self):
        assert infer_output_shape(
            OpType.CONCAT, ConcatAttrs(axis=1),
            [(8, 4, 4), (16, 4, 4), (8, 4, 4)]) == (32, 4, 4)

    def test_concat_spatial_mismatch_raises(self):
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.CONCAT, ConcatAttrs(axis=1),
                               [(8, 4, 4), (8, 5, 4)])

    def test_flatten(self):
        assert infer_output_shape(OpType.FLATTEN, ReshapeAttrs(),
                                  [(8, 4, 4)]) == (128,)


class TestMisc:
    def test_input_shape(self):
        assert infer_output_shape(OpType.INPUT, InputAttrs((3, 224, 224)),
                                  []) == (3, 224, 224)

    def test_compute_without_inputs_raises(self):
        with pytest.raises(ShapeError):
            infer_output_shape(OpType.RELU, OpAttrs(), [])

    def test_identity_ops(self):
        for op in (OpType.RELU, OpType.BATCHNORM2D, OpType.DROPOUT,
                   OpType.SOFTMAX):
            from repro.graph.ops import attrs_class_for
            attrs = attrs_class_for(op)()
            assert infer_output_shape(op, attrs, [(8, 4, 4)]) == (8, 4, 4)

    def test_element_count(self):
        assert element_count((3, 224, 224)) == 150528
        assert element_count(()) == 1

"""Shape inference for the DNN graph IR.

Shapes exclude the batch dimension: an NCHW activation is ``(C, H, W)``, a
token tensor is ``(L, D)`` and a flat feature vector is ``(D,)``.  The
batch size is supplied at simulation time and multiplies element counts
uniformly, so it never needs to live in the graph.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.graph.ops import (
    AttentionAttrs,
    ConcatAttrs,
    ConvAttrs,
    InputAttrs,
    LinearAttrs,
    OpAttrs,
    OpType,
    PoolAttrs,
    is_activation,
)

Shape = Tuple[int, ...]


class ShapeError(Exception):
    """Raised when operator attributes are inconsistent with input shapes."""


def _conv_spatial(size: int, kernel: int, stride: int, padding: int,
                  dilation: int, ceil_mode: bool = False) -> int:
    """Output spatial size of a conv/pool window along one axis."""
    effective = dilation * (kernel - 1) + 1
    numer = size + 2 * padding - effective
    if numer < 0:
        raise ShapeError(
            f"window (kernel={kernel}, dilation={dilation}) larger than "
            f"padded input ({size} + 2*{padding})"
        )
    if ceil_mode:
        out = int(math.ceil(numer / stride)) + 1
        # PyTorch semantics: the last window must start inside the input.
        if (out - 1) * stride >= size + padding:
            out -= 1
        return out
    return numer // stride + 1


def _require_rank(shape: Shape, rank: int, op: OpType) -> None:
    if len(shape) != rank:
        raise ShapeError(
            f"{op.value} expects a rank-{rank} input (excluding batch), "
            f"got shape {shape}"
        )


def infer_output_shape(op: OpType, attrs: OpAttrs,
                       input_shapes: Sequence[Shape]) -> Shape:
    """Infer the output shape of an operator.

    Parameters
    ----------
    op:
        Operator type.
    attrs:
        Typed attributes matching ``op``.
    input_shapes:
        Shapes of the producer outputs, in positional order, excluding the
        batch dimension.
    """
    if op is OpType.INPUT:
        assert isinstance(attrs, InputAttrs)
        return tuple(attrs.shape)

    if not input_shapes:
        raise ShapeError(f"{op.value} requires at least one input")
    x = tuple(input_shapes[0])

    if op is OpType.CONV2D:
        assert isinstance(attrs, ConvAttrs)
        _require_rank(x, 3, op)
        cin, h, w = x
        if attrs.groups < 1:
            raise ShapeError(f"conv2d groups must be >= 1, got "
                             f"{attrs.groups}")
        if cin % attrs.groups != 0:
            raise ShapeError(
                f"conv2d input channels {cin} not divisible by groups "
                f"{attrs.groups}"
            )
        if attrs.out_channels % attrs.groups != 0:
            raise ShapeError(
                f"conv2d out_channels {attrs.out_channels} not divisible "
                f"by groups {attrs.groups}"
            )
        oh = _conv_spatial(h, attrs.kernel[0], attrs.stride[0],
                           attrs.padding[0], attrs.dilation[0])
        ow = _conv_spatial(w, attrs.kernel[1], attrs.stride[1],
                           attrs.padding[1], attrs.dilation[1])
        return (attrs.out_channels, oh, ow)

    if op is OpType.LINEAR:
        assert isinstance(attrs, LinearAttrs)
        if not x:
            raise ShapeError("linear requires a non-scalar input")
        return x[:-1] + (attrs.out_features,)

    if op in (OpType.MAXPOOL2D, OpType.AVGPOOL2D):
        assert isinstance(attrs, PoolAttrs)
        _require_rank(x, 3, op)
        c, h, w = x
        oh = _conv_spatial(h, attrs.kernel[0], attrs.stride[0],
                           attrs.padding[0], 1, attrs.ceil_mode)
        ow = _conv_spatial(w, attrs.kernel[1], attrs.stride[1],
                           attrs.padding[1], 1, attrs.ceil_mode)
        return (c, oh, ow)

    if op is OpType.ADAPTIVE_AVGPOOL2D:
        assert isinstance(attrs, PoolAttrs)
        _require_rank(x, 3, op)
        return (x[0], attrs.output_size[0], attrs.output_size[1])

    if op in (OpType.BATCHNORM2D, OpType.LAYERNORM, OpType.DROPOUT) or \
            is_activation(op):
        return x

    if op is OpType.ADD or op is OpType.MUL:
        for other in input_shapes[1:]:
            if tuple(other) != x and not _broadcastable(x, tuple(other)):
                raise ShapeError(
                    f"{op.value} inputs not broadcastable: {x} vs {other}"
                )
        return x

    if op is OpType.CONCAT:
        assert isinstance(attrs, ConcatAttrs)
        axis = attrs.axis - 1  # axis is in batch-full coordinates
        if axis < 0 or axis >= len(x):
            raise ShapeError(f"concat axis {attrs.axis} out of range for {x}")
        total = 0
        for other in input_shapes:
            other = tuple(other)
            if len(other) != len(x):
                raise ShapeError(f"concat rank mismatch: {x} vs {other}")
            for d in range(len(x)):
                if d != axis and other[d] != x[d]:
                    raise ShapeError(
                        f"concat non-axis dim mismatch: {x} vs {other}"
                    )
            total += other[axis]
        out = list(x)
        out[axis] = total
        return tuple(out)

    if op is OpType.FLATTEN:
        n = 1
        for d in x:
            n *= d
        return (n,)

    if op is OpType.SOFTMAX:
        return x

    if op is OpType.ATTENTION:
        assert isinstance(attrs, AttentionAttrs)
        _require_rank(x, 2, op)
        length, dim = x
        if dim != attrs.embed_dim:
            raise ShapeError(
                f"attention embed_dim {attrs.embed_dim} != input dim {dim}"
            )
        if attrs.embed_dim % attrs.num_heads != 0:
            raise ShapeError(
                f"embed_dim {attrs.embed_dim} not divisible by "
                f"{attrs.num_heads} heads"
            )
        return (length, dim)

    if op is OpType.TOKENIZE:
        _require_rank(x, 3, op)
        c, h, w = x
        return (h * w, c)

    if op is OpType.CLS_POS_EMBED:
        _require_rank(x, 2, op)
        length, dim = x
        return (length + 1, dim)

    if op is OpType.SELECT_TOKEN:
        _require_rank(x, 2, op)
        return (x[1],)

    raise ShapeError(f"no shape rule for operator {op!r}")


def _broadcastable(a: Shape, b: Shape) -> bool:
    """Numpy-style right-aligned broadcast compatibility check."""
    for da, db in zip(reversed(a), reversed(b)):
        if da != db and da != 1 and db != 1:
            return False
    return True


def element_count(shape: Shape) -> int:
    """Number of elements in a (batch-free) shape."""
    n = 1
    for d in shape:
        n *= d
    return n

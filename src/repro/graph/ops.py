"""Operator taxonomy and typed attribute records for the DNN graph IR.

Operator types cover everything needed to express the twelve networks the
paper evaluates (Table 1): classic CNNs (AlexNet, VGG, GoogLeNet), residual
families (ResNet, ResNeXt, RegNet), densely connected nets (DenseNet),
mobile nets with squeeze-excitation (MobileNetV3, RegNetY), and vision
transformers (ViT-B/16, ViT-B/32).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from enum import Enum
from typing import Tuple


class OpType(str, Enum):
    """Concrete operator kinds supported by the IR."""

    INPUT = "input"
    CONV2D = "conv2d"
    LINEAR = "linear"
    RELU = "relu"
    RELU6 = "relu6"
    GELU = "gelu"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    HARDSWISH = "hardswish"
    HARDSIGMOID = "hardsigmoid"
    SILU = "silu"
    BATCHNORM2D = "batchnorm2d"
    LAYERNORM = "layernorm"
    MAXPOOL2D = "maxpool2d"
    AVGPOOL2D = "avgpool2d"
    ADAPTIVE_AVGPOOL2D = "adaptive_avgpool2d"
    ADD = "add"
    MUL = "mul"
    CONCAT = "concat"
    FLATTEN = "flatten"
    DROPOUT = "dropout"
    SOFTMAX = "softmax"
    ATTENTION = "attention"
    TOKENIZE = "tokenize"
    CLS_POS_EMBED = "cls_pos_embed"
    SELECT_TOKEN = "select_token"


class OpCategory(str, Enum):
    """Coarse operator families used by the power-sensitive feature
    extractors (one-hot encoded in the depthwise feature vector)."""

    IO = "io"
    CONV = "conv"
    DWCONV = "dwconv"
    LINEAR = "linear"
    ATTENTION = "attention"
    NORM = "norm"
    ACTIVATION = "activation"
    POOL = "pool"
    ELEMENTWISE = "elementwise"
    RESHAPE = "reshape"


_ACTIVATIONS = {
    OpType.RELU,
    OpType.RELU6,
    OpType.GELU,
    OpType.SIGMOID,
    OpType.TANH,
    OpType.HARDSWISH,
    OpType.HARDSIGMOID,
    OpType.SILU,
    OpType.SOFTMAX,
}

#: Relative per-element arithmetic cost of each activation, used by the
#: FLOP metrics.  A plain ReLU is the unit; GELU needs an erf evaluation.
ACTIVATION_COST_FACTORS = {
    OpType.RELU: 1.0,
    OpType.RELU6: 1.0,
    OpType.SIGMOID: 4.0,
    OpType.TANH: 4.0,
    OpType.GELU: 8.0,
    OpType.HARDSWISH: 3.0,
    OpType.HARDSIGMOID: 2.0,
    OpType.SILU: 5.0,
    OpType.SOFTMAX: 5.0,
}


@dataclass(frozen=True)
class OpAttrs:
    """Base class for typed operator attributes.

    Subclasses are frozen dataclasses so nodes can be hashed and safely
    shared between graphs.
    """

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConvAttrs(OpAttrs):
    """2-D convolution attributes.

    ``groups == in_channels == out_channels`` expresses a depthwise
    convolution; ``groups > 1`` otherwise expresses grouped convolution
    (e.g. ResNeXt's 32x8d cardinality or RegNet's group widths).
    """

    out_channels: int
    kernel: Tuple[int, int] = (3, 3)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    groups: int = 1
    dilation: Tuple[int, int] = (1, 1)
    bias: bool = True


@dataclass(frozen=True)
class LinearAttrs(OpAttrs):
    """Fully connected layer applied to the trailing dimension."""

    out_features: int
    bias: bool = True


@dataclass(frozen=True)
class PoolAttrs(OpAttrs):
    """Spatial pooling attributes; for adaptive pooling ``output_size``
    is used and kernel/stride are ignored."""

    kernel: Tuple[int, int] = (2, 2)
    stride: Tuple[int, int] = (2, 2)
    padding: Tuple[int, int] = (0, 0)
    output_size: Tuple[int, int] = (1, 1)
    ceil_mode: bool = False


@dataclass(frozen=True)
class NormAttrs(OpAttrs):
    """Normalization attributes (batch-norm over channels, layer-norm over
    the trailing feature dimension)."""

    affine: bool = True
    eps: float = 1e-5


@dataclass(frozen=True)
class ActivationAttrs(OpAttrs):
    """Attributes for activations; ``inplace`` is metadata only (it lowers
    the memory-traffic estimate)."""

    inplace: bool = False


@dataclass(frozen=True)
class AttentionAttrs(OpAttrs):
    """Fused multi-head self-attention block (QKV projections, scaled
    dot-product attention, output projection) as used by ViT."""

    embed_dim: int
    num_heads: int
    qkv_bias: bool = True


@dataclass(frozen=True)
class ReshapeAttrs(OpAttrs):
    """Generic reshape; ``shape`` excludes the leading batch dimension.
    A value of -1 in a slot is inferred from the element count."""

    shape: Tuple[int, ...] = ()


@dataclass(frozen=True)
class TokenAttrs(OpAttrs):
    """Attributes of token-space operators used by vision transformers.

    ``TOKENIZE`` flattens an NCHW tensor into an (N, L, D) token tensor;
    ``CLS_POS_EMBED`` prepends a class token and adds learned positional
    embeddings; ``SELECT_TOKEN`` slices one token (the class token) out.
    """

    index: int = 0


@dataclass(frozen=True)
class ConcatAttrs(OpAttrs):
    """Concatenation along the channel (axis 1) dimension by default."""

    axis: int = 1


@dataclass(frozen=True)
class DropoutAttrs(OpAttrs):
    p: float = 0.5


@dataclass(frozen=True)
class InputAttrs(OpAttrs):
    """Graph input placeholder; ``shape`` excludes the batch dimension."""

    shape: Tuple[int, ...] = (3, 224, 224)


_ATTR_CLASSES = {
    OpType.INPUT: InputAttrs,
    OpType.CONV2D: ConvAttrs,
    OpType.LINEAR: LinearAttrs,
    OpType.MAXPOOL2D: PoolAttrs,
    OpType.AVGPOOL2D: PoolAttrs,
    OpType.ADAPTIVE_AVGPOOL2D: PoolAttrs,
    OpType.BATCHNORM2D: NormAttrs,
    OpType.LAYERNORM: NormAttrs,
    OpType.ATTENTION: AttentionAttrs,
    OpType.CONCAT: ConcatAttrs,
    OpType.DROPOUT: DropoutAttrs,
    OpType.FLATTEN: ReshapeAttrs,
    OpType.TOKENIZE: TokenAttrs,
    OpType.CLS_POS_EMBED: TokenAttrs,
    OpType.SELECT_TOKEN: TokenAttrs,
}


def attrs_class_for(op: OpType):
    """Return the attribute dataclass expected for ``op`` (``ActivationAttrs``
    for activations, plain ``OpAttrs`` otherwise)."""
    if op in _ACTIVATIONS:
        return ActivationAttrs
    return _ATTR_CLASSES.get(op, OpAttrs)


def category_of(op: OpType, attrs: OpAttrs | None = None) -> OpCategory:
    """Map a concrete operator to its coarse power-behaviour category.

    Depthwise convolutions are separated from dense convolutions because
    their arithmetic intensity — and hence their power behaviour — is
    drastically lower.
    """
    if op is OpType.INPUT:
        return OpCategory.IO
    if op is OpType.CONV2D:
        if isinstance(attrs, ConvAttrs) and attrs.groups > 1:
            # A fully depthwise conv has groups == out_channels; treat any
            # heavily grouped conv (>= out_channels) as depthwise-like.
            if attrs.groups >= attrs.out_channels:
                return OpCategory.DWCONV
        return OpCategory.CONV
    if op is OpType.LINEAR:
        return OpCategory.LINEAR
    if op is OpType.ATTENTION:
        return OpCategory.ATTENTION
    if op in (OpType.BATCHNORM2D, OpType.LAYERNORM):
        return OpCategory.NORM
    if op in _ACTIVATIONS:
        return OpCategory.ACTIVATION
    if op in (OpType.MAXPOOL2D, OpType.AVGPOOL2D, OpType.ADAPTIVE_AVGPOOL2D):
        return OpCategory.POOL
    if op in (OpType.ADD, OpType.MUL, OpType.CONCAT):
        return OpCategory.ELEMENTWISE
    if op in (OpType.FLATTEN, OpType.DROPOUT, OpType.TOKENIZE,
              OpType.CLS_POS_EMBED, OpType.SELECT_TOKEN):
        return OpCategory.RESHAPE
    raise ValueError(f"unknown operator type: {op!r}")


def is_activation(op: OpType) -> bool:
    """True when ``op`` is a pointwise activation (softmax included)."""
    return op in _ACTIVATIONS


#: Stable ordering of categories used for one-hot feature encoding.
CATEGORY_ORDER = [
    OpCategory.CONV,
    OpCategory.DWCONV,
    OpCategory.LINEAR,
    OpCategory.ATTENTION,
    OpCategory.NORM,
    OpCategory.ACTIVATION,
    OpCategory.POOL,
    OpCategory.ELEMENTWISE,
    OpCategory.RESHAPE,
    OpCategory.IO,
]

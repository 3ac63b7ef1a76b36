"""Fluent construction DSL for DNN graphs.

The builder names nodes automatically (``conv_0``, ``relu_3``...) unless a
name is supplied, infers output shapes eagerly, and returns node names so
model definitions read like the forward passes they mirror::

    b = GraphBuilder("toy")
    x = b.input((3, 224, 224))
    x = b.conv(x, 64, kernel=7, stride=2, padding=3)
    x = b.batchnorm(x)
    x = b.relu(x)
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.graph.graph import Graph, Node
from repro.graph.ops import (
    ActivationAttrs,
    AttentionAttrs,
    ConcatAttrs,
    ConvAttrs,
    DropoutAttrs,
    InputAttrs,
    LinearAttrs,
    NormAttrs,
    OpAttrs,
    OpType,
    PoolAttrs,
    ReshapeAttrs,
    TokenAttrs,
)
from repro.graph.shapes import infer_output_shape

IntPair = Union[int, Tuple[int, int]]


def _pair(v: IntPair) -> Tuple[int, int]:
    if isinstance(v, tuple):
        return v
    return (v, v)


class GraphBuilder:
    """Incrementally builds a :class:`Graph` with eager shape inference."""

    def __init__(self, name: str = "graph") -> None:
        self.graph = Graph(name)
        self._counters: dict = {}

    # ------------------------------------------------------------------
    def _fresh_name(self, op: OpType, name: Optional[str]) -> str:
        if name is not None:
            return name
        idx = self._counters.get(op, 0)
        self._counters[op] = idx + 1
        return f"{op.value}_{idx}"

    def _add(self, op: OpType, attrs: OpAttrs, inputs: Sequence[str],
             name: Optional[str]) -> str:
        node_name = self._fresh_name(op, name)
        in_shapes = [self.graph[s].output_shape for s in inputs]
        shape = infer_output_shape(op, attrs, in_shapes)
        node = Node(name=node_name, op=op, attrs=attrs,
                    inputs=tuple(inputs), output_shape=shape)
        self.graph.add_node(node)
        return node_name

    # ------------------------------------------------------------------
    # leaf / structural ops
    # ------------------------------------------------------------------
    def input(self, shape: Tuple[int, ...], name: Optional[str] = None) -> str:
        return self._add(OpType.INPUT, InputAttrs(shape=tuple(shape)), (),
                         name)

    def conv(self, x: str, out_channels: int, kernel: IntPair = 3,
             stride: IntPair = 1, padding: IntPair = 0, groups: int = 1,
             dilation: IntPair = 1, bias: bool = True,
             name: Optional[str] = None) -> str:
        attrs = ConvAttrs(
            out_channels=out_channels,
            kernel=_pair(kernel),
            stride=_pair(stride),
            padding=_pair(padding),
            groups=groups,
            dilation=_pair(dilation),
            bias=bias,
        )
        return self._add(OpType.CONV2D, attrs, (x,), name)

    def linear(self, x: str, out_features: int, bias: bool = True,
               name: Optional[str] = None) -> str:
        return self._add(OpType.LINEAR,
                         LinearAttrs(out_features=out_features, bias=bias),
                         (x,), name)

    def maxpool(self, x: str, kernel: IntPair = 2, stride: IntPair = 2,
                padding: IntPair = 0, ceil_mode: bool = False,
                name: Optional[str] = None) -> str:
        attrs = PoolAttrs(kernel=_pair(kernel), stride=_pair(stride),
                          padding=_pair(padding), ceil_mode=ceil_mode)
        return self._add(OpType.MAXPOOL2D, attrs, (x,), name)

    def avgpool(self, x: str, kernel: IntPair = 2, stride: IntPair = 2,
                padding: IntPair = 0, ceil_mode: bool = False,
                name: Optional[str] = None) -> str:
        attrs = PoolAttrs(kernel=_pair(kernel), stride=_pair(stride),
                          padding=_pair(padding), ceil_mode=ceil_mode)
        return self._add(OpType.AVGPOOL2D, attrs, (x,), name)

    def adaptive_avgpool(self, x: str, output_size: IntPair = 1,
                         name: Optional[str] = None) -> str:
        attrs = PoolAttrs(output_size=_pair(output_size))
        return self._add(OpType.ADAPTIVE_AVGPOOL2D, attrs, (x,), name)

    def batchnorm(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpType.BATCHNORM2D, NormAttrs(), (x,), name)

    def layernorm(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpType.LAYERNORM, NormAttrs(), (x,), name)

    def activation(self, x: str, op: OpType, inplace: bool = False,
                   name: Optional[str] = None) -> str:
        return self._add(op, ActivationAttrs(inplace=inplace), (x,), name)

    def relu(self, x: str, name: Optional[str] = None) -> str:
        return self.activation(x, OpType.RELU, inplace=True, name=name)

    def gelu(self, x: str, name: Optional[str] = None) -> str:
        return self.activation(x, OpType.GELU, name=name)

    def hardswish(self, x: str, name: Optional[str] = None) -> str:
        return self.activation(x, OpType.HARDSWISH, name=name)

    def softmax(self, x: str, name: Optional[str] = None) -> str:
        return self.activation(x, OpType.SOFTMAX, name=name)

    def add(self, inputs: Iterable[str], name: Optional[str] = None) -> str:
        return self._add(OpType.ADD, OpAttrs(), tuple(inputs), name)

    def mul(self, inputs: Iterable[str], name: Optional[str] = None) -> str:
        return self._add(OpType.MUL, OpAttrs(), tuple(inputs), name)

    def concat(self, inputs: Iterable[str], axis: int = 1,
               name: Optional[str] = None) -> str:
        return self._add(OpType.CONCAT, ConcatAttrs(axis=axis),
                         tuple(inputs), name)

    def flatten(self, x: str, name: Optional[str] = None) -> str:
        return self._add(OpType.FLATTEN, ReshapeAttrs(), (x,), name)

    def dropout(self, x: str, p: float = 0.5,
                name: Optional[str] = None) -> str:
        return self._add(OpType.DROPOUT, DropoutAttrs(p=p), (x,), name)

    # ------------------------------------------------------------------
    # transformer ops
    # ------------------------------------------------------------------
    def tokenize(self, x: str, name: Optional[str] = None) -> str:
        """Flatten an NCHW feature map into an (L, D) token tensor."""
        return self._add(OpType.TOKENIZE, TokenAttrs(), (x,), name)

    def cls_pos_embed(self, x: str, name: Optional[str] = None) -> str:
        """Prepend a class token and add positional embeddings."""
        return self._add(OpType.CLS_POS_EMBED, TokenAttrs(), (x,), name)

    def select_token(self, x: str, index: int = 0,
                     name: Optional[str] = None) -> str:
        return self._add(OpType.SELECT_TOKEN, TokenAttrs(index=index),
                         (x,), name)

    def attention(self, x: str, num_heads: int, qkv_bias: bool = True,
                  name: Optional[str] = None) -> str:
        dim = self.graph[x].output_shape[-1]
        attrs = AttentionAttrs(embed_dim=dim, num_heads=num_heads,
                               qkv_bias=qkv_bias)
        return self._add(OpType.ATTENTION, attrs, (x,), name)

    # ------------------------------------------------------------------
    # composite blocks shared by several model families
    # ------------------------------------------------------------------
    def conv_bn_act(self, x: str, out_channels: int, kernel: IntPair = 3,
                    stride: IntPair = 1, padding: IntPair = 0,
                    groups: int = 1, act: OpType = OpType.RELU) -> str:
        """conv -> batchnorm -> activation, the workhorse CNN block."""
        x = self.conv(x, out_channels, kernel=kernel, stride=stride,
                      padding=padding, groups=groups, bias=False)
        x = self.batchnorm(x)
        return self.activation(x, act, inplace=True)

    def squeeze_excite(self, x: str, squeeze_channels: int,
                       gate: OpType = OpType.HARDSIGMOID) -> str:
        """Squeeze-and-excitation block (MobileNetV3 / RegNetY style)."""
        c = self.graph[x].output_shape[0]
        s = self.adaptive_avgpool(x, 1)
        s = self.conv(s, squeeze_channels, kernel=1)
        s = self.relu(s)
        s = self.conv(s, c, kernel=1)
        s = self.activation(s, gate)
        return self.mul([x, s])

    def build(self) -> Graph:
        """Return the finished graph (also accessible as ``.graph``)."""
        return self.graph

    def shape(self, x: str) -> Tuple[int, ...]:
        """Output shape of a previously added node (batch-free)."""
        return self.graph[x].output_shape

"""EfficientNet family (B0-B4) via compound scaling.

MBConv blocks: 1x1 expand -> depthwise kxk -> squeeze-excitation
(ratio 0.25 of the block's *input* channels) -> 1x1 project, with SiLU
activations and residuals on stride-1 shape-preserving blocks.  Width
and depth multipliers plus the native input resolutions follow the
published compound-scaling table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.graph import Graph, GraphBuilder
from repro.graph.ops import OpType
from repro.models.mobilenet import make_divisible


@dataclass(frozen=True)
class _MBSetting:
    expand: int
    channels: int
    repeats: int
    stride: int
    kernel: int


_B0_SETTINGS: List[_MBSetting] = [
    _MBSetting(1, 16, 1, 1, 3),
    _MBSetting(6, 24, 2, 2, 3),
    _MBSetting(6, 40, 2, 2, 5),
    _MBSetting(6, 80, 3, 2, 3),
    _MBSetting(6, 112, 3, 1, 5),
    _MBSetting(6, 192, 4, 2, 5),
    _MBSetting(6, 320, 1, 1, 3),
]

#: (width_mult, depth_mult, resolution) per variant.
_SCALING: dict = {
    "efficientnet_b0": (1.0, 1.0, 224),
    "efficientnet_b1": (1.0, 1.1, 240),
    "efficientnet_b2": (1.1, 1.2, 260),
    "efficientnet_b3": (1.2, 1.4, 300),
    "efficientnet_b4": (1.4, 1.8, 380),
}


def _round_repeats(repeats: int, depth_mult: float) -> int:
    return int(math.ceil(depth_mult * repeats))


def _mbconv(b: GraphBuilder, x: str, setting: _MBSetting,
            out_channels: int, stride: int, kernel: int) -> str:
    in_channels = b.shape(x)[0]
    expanded = in_channels * setting.expand
    identity = x
    out = x
    if setting.expand != 1:
        out = b.conv_bn_act(out, expanded, kernel=1, act=OpType.SILU)
    out = b.conv_bn_act(out, expanded, kernel=kernel, stride=stride,
                        padding=kernel // 2, groups=expanded,
                        act=OpType.SILU)
    squeeze = max(1, in_channels // 4)
    out = b.squeeze_excite(out, squeeze, gate=OpType.SIGMOID)
    out = b.conv(out, out_channels, kernel=1, bias=False)
    out = b.batchnorm(out)
    if stride == 1 and in_channels == out_channels:
        out = b.add([out, identity])
    return out


def _efficientnet(name: str, num_classes: int) -> Graph:
    width_mult, depth_mult, resolution = _SCALING[name]
    b = GraphBuilder(name)
    x = b.input((3, resolution, resolution))
    stem = make_divisible(32 * width_mult)
    x = b.conv_bn_act(x, stem, kernel=3, stride=2, padding=1,
                      act=OpType.SILU)
    for setting in _B0_SETTINGS:
        out_channels = make_divisible(setting.channels * width_mult)
        repeats = _round_repeats(setting.repeats, depth_mult)
        for i in range(repeats):
            stride = setting.stride if i == 0 else 1
            x = _mbconv(b, x, setting, out_channels, stride,
                        setting.kernel)
    head = make_divisible(1280 * max(1.0, width_mult))
    x = b.conv_bn_act(x, head, kernel=1, act=OpType.SILU)
    x = b.adaptive_avgpool(x, 1)
    x = b.flatten(x)
    x = b.dropout(x, p=0.2)
    b.linear(x, num_classes)
    return b.build()


def efficientnet_b0(num_classes: int = 1000) -> Graph:
    """EfficientNet-B0."""
    return _efficientnet("efficientnet_b0", num_classes)


def efficientnet_b1(num_classes: int = 1000) -> Graph:
    """EfficientNet-B1."""
    return _efficientnet("efficientnet_b1", num_classes)


def efficientnet_b2(num_classes: int = 1000) -> Graph:
    """EfficientNet-B2."""
    return _efficientnet("efficientnet_b2", num_classes)


def efficientnet_b3(num_classes: int = 1000) -> Graph:
    """EfficientNet-B3."""
    return _efficientnet("efficientnet_b3", num_classes)


def efficientnet_b4(num_classes: int = 1000) -> Graph:
    """EfficientNet-B4."""
    return _efficientnet("efficientnet_b4", num_classes)

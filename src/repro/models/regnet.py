"""RegNet X and Y families (torchvision layout).

X blocks are group-conv bottlenecks with bottleneck ratio 1; Y blocks add
squeeze-excitation with squeeze width proportional to the block *input*
width (se_ratio 0.25).  Stage parameters below are the torchvision
instantiations of the design-space equations for the evaluated scales.
"""

from __future__ import annotations

from typing import List

from repro.graph import Graph, GraphBuilder

# (depths, widths, group_width) per model, from torchvision.
_X_PARAMS = {
    "regnet_x_400mf": ([1, 2, 7, 12], [32, 64, 160, 400], 16),
    "regnet_x_8gf": ([2, 5, 15, 1], [80, 240, 720, 1920], 120),
    "regnet_x_32gf": ([2, 7, 13, 1], [336, 672, 1344, 2520], 168),
}

_Y_PARAMS = {
    "regnet_y_400mf": ([1, 3, 6, 6], [48, 104, 208, 440], 8),
    "regnet_y_8gf": ([2, 4, 10, 1], [224, 448, 896, 2016], 56),
    "regnet_y_128gf": ([2, 7, 17, 1], [528, 1056, 2904, 7392], 264),
}


def _regnet_block(b: GraphBuilder, x: str, width_out: int, stride: int,
                  group_width: int, se_ratio: float) -> str:
    """1x1 -> 3x3 grouped (stride) -> [SE] -> 1x1, residual + ReLU."""
    width_in = b.shape(x)[0]
    # A stage narrower than the group width is one group (torchvision
    # clamps the same way), e.g. RegNetX-8GF's width-80 first stage.
    groups = width_out // min(group_width, width_out)
    identity = x
    out = b.conv_bn_act(x, width_out, kernel=1)
    out = b.conv_bn_act(out, width_out, kernel=3, stride=stride, padding=1,
                        groups=groups)
    if se_ratio > 0:
        squeeze = max(1, int(round(se_ratio * width_in)))
        from repro.graph.ops import OpType
        out = b.squeeze_excite(out, squeeze, gate=OpType.SIGMOID)
    out = b.conv(out, width_out, kernel=1, bias=False)
    out = b.batchnorm(out)
    if stride != 1 or width_in != width_out:
        identity = b.conv(x, width_out, kernel=1, stride=stride, bias=False)
        identity = b.batchnorm(identity)
    out = b.add([out, identity])
    return b.relu(out)


def _regnet(name: str, depths: List[int], widths: List[int],
            group_width: int, se_ratio: float, num_classes: int) -> Graph:
    b = GraphBuilder(name)
    x = b.input((3, 224, 224))
    x = b.conv_bn_act(x, 32, kernel=3, stride=2, padding=1)
    for depth, width in zip(depths, widths):
        for i in range(depth):
            stride = 2 if i == 0 else 1
            x = _regnet_block(b, x, width, stride, group_width, se_ratio)
    x = b.adaptive_avgpool(x, 1)
    x = b.flatten(x)
    b.linear(x, num_classes)
    return b.build()


def _build_x(name: str, num_classes: int) -> Graph:
    depths, widths, gw = _X_PARAMS[name]
    return _regnet(name, depths, widths, gw, 0.0, num_classes)


def _build_y(name: str, num_classes: int) -> Graph:
    depths, widths, gw = _Y_PARAMS[name]
    return _regnet(name, depths, widths, gw, 0.25, num_classes)


def regnet_x_400mf(num_classes: int = 1000) -> Graph:
    """RegNetX-400MF (small reference point)."""
    return _build_x("regnet_x_400mf", num_classes)


def regnet_x_8gf(num_classes: int = 1000) -> Graph:
    """RegNetX-8GF."""
    return _build_x("regnet_x_8gf", num_classes)


def regnet_x_32gf(num_classes: int = 1000) -> Graph:
    """RegNetX-32GF — Table 1 model."""
    return _build_x("regnet_x_32gf", num_classes)


def regnet_y_400mf(num_classes: int = 1000) -> Graph:
    """RegNetY-400MF."""
    return _build_y("regnet_y_400mf", num_classes)


def regnet_y_8gf(num_classes: int = 1000) -> Graph:
    """RegNetY-8GF."""
    return _build_y("regnet_y_8gf", num_classes)


def regnet_y_128gf(num_classes: int = 1000) -> Graph:
    """RegNetY-128GF — Table 1 model (the largest network in the suite)."""
    return _build_y("regnet_y_128gf", num_classes)

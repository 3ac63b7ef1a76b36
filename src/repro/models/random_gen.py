"""Random DNN generator.

Implements the 'DNN generator' of the paper's dataset generator
(section 2.2): it "produces a large variety of neural networks by randomly
combining the features mentioned in section 2.1.2" — convolutional stages,
depthwise-separable stages, residual stages, grouped bottlenecks,
inception-style branches and transformer encoders, with randomized depths,
widths, kernels and strides.

Every generated network is validated (shape-consistent, reachable, single
output) before it is returned, so the dataset generator can deploy each
one directly on the platform simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.graph import Graph, GraphBuilder
from repro.graph.ops import OpType
from repro.graph.validate import assert_valid

_STAGE_KINDS = (
    "plain_conv",
    "residual_basic",
    "bottleneck_group",
    "dw_separable",
    "inception",
    "transformer",
)


@dataclass(frozen=True)
class RandomDNNConfig:
    """Knobs of the random generator.

    The defaults give a population whose size distribution brackets the
    Table 1 suite: from AlexNet-scale chains to RegNet-scale residual
    towers and ViT-scale transformer stacks.
    """

    min_stages: int = 2
    max_stages: int = 5
    min_blocks_per_stage: int = 1
    max_blocks_per_stage: int = 8
    base_widths: Sequence[int] = (16, 24, 32, 48, 64, 96, 128)
    width_multipliers: Sequence[float] = (1.5, 2.0, 2.5, 3.0)
    kernels: Sequence[int] = (1, 3, 5, 7)
    allow_transformer: bool = True
    allow_se: bool = True
    image_size: int = 224
    num_classes: int = 1000


def spawn_seeds(seed: int, n: int) -> List[int]:
    """Deterministic per-network seed stream.

    ``numpy.random.SeedSequence(seed).spawn(n)`` yields statistically
    independent child sequences; collapsing each child to one 64-bit
    integer gives a seed per network that depends only on ``(seed, i)``
    — never on how networks are distributed across workers.  This is
    what lets :meth:`repro.core.datasets.DatasetGenerator.generate`
    produce byte-identical datasets at any ``n_jobs``.
    """
    if n < 0:
        raise ValueError("cannot spawn a negative number of seeds")
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


class RandomDNNGenerator:
    """Seedable generator of random-but-valid DNN graphs.

    ``start_index`` offsets the generated graph names
    (``random_dnn_{i}``) so per-network generators — one per spawned
    seed — name their output exactly as a single sequential generator
    would.
    """

    def __init__(self, config: Optional[RandomDNNConfig] = None,
                 seed: int = 0, start_index: int = 0) -> None:
        self.config = config or RandomDNNConfig()
        self._rng = random.Random(seed)
        self._count = start_index

    # ------------------------------------------------------------------
    def generate(self) -> Graph:
        """Produce one validated random network."""
        cfg = self.config
        rng = self._rng
        self._count += 1
        b = GraphBuilder(f"random_dnn_{self._count}")
        x = b.input((3, cfg.image_size, cfg.image_size))

        # Stem: stride-2 conv, sometimes followed by a pool.
        width = rng.choice(cfg.base_widths)
        stem_kernel = rng.choice((3, 5, 7))
        x = b.conv_bn_act(x, width, kernel=stem_kernel, stride=2,
                          padding=stem_kernel // 2)
        if rng.random() < 0.5:
            x = b.maxpool(x, kernel=3, stride=2, padding=1)

        n_stages = rng.randint(cfg.min_stages, cfg.max_stages)
        went_transformer = False
        for stage in range(n_stages):
            if went_transformer:
                break  # token-space stages stay token-space until the head
            kind = self._pick_stage_kind(stage, n_stages, b.shape(x))
            depth = rng.randint(cfg.min_blocks_per_stage,
                                cfg.max_blocks_per_stage)
            width = self._next_width(width)
            if kind == "transformer":
                x = self._transformer_stage(b, x, depth)
                went_transformer = True
            elif kind == "plain_conv":
                x = self._plain_stage(b, x, width, depth)
            elif kind == "residual_basic":
                x = self._residual_stage(b, x, width, depth)
            elif kind == "bottleneck_group":
                x = self._bottleneck_stage(b, x, width, depth)
            elif kind == "dw_separable":
                x = self._dw_stage(b, x, width, depth)
            elif kind == "inception":
                x = self._inception_stage(b, x, width, depth)

        # Head.
        if went_transformer:
            x = b.layernorm(x)
            x = b.select_token(x, 0)
        else:
            x = b.adaptive_avgpool(x, 1)
            x = b.flatten(x)
            if rng.random() < 0.3:
                hidden = rng.choice((512, 1024, 2048, 4096))
                x = b.linear(x, hidden)
                x = b.relu(x)
                x = b.dropout(x)
        b.linear(x, cfg.num_classes)
        graph = b.build()
        assert_valid(graph)
        return graph

    # ------------------------------------------------------------------
    # stage builders
    # ------------------------------------------------------------------
    def _pick_stage_kind(self, stage: int, n_stages: int,
                         shape: Sequence[int]) -> str:
        rng = self._rng
        kinds = list(_STAGE_KINDS)
        if not self.config.allow_transformer or stage < n_stages - 2 or \
                shape[1] < 7 or shape[1] > 32:
            kinds.remove("transformer")
        # Inception branches need spatial room.
        if shape[1] < 7:
            kinds.remove("inception")
        return rng.choice(kinds)

    def _next_width(self, width: int) -> int:
        mult = self._rng.choice(self.config.width_multipliers)
        return min(int(width * mult) // 8 * 8 or 8, 4096)

    def _maybe_downsample_stride(self, shape: Sequence[int]) -> int:
        # Keep spatial dims >= 4 so later windows fit.
        if shape[1] >= 8 and self._rng.random() < 0.8:
            return 2
        return 1

    def _plain_stage(self, b: GraphBuilder, x: str, width: int,
                     depth: int) -> str:
        rng = self._rng
        stride = self._maybe_downsample_stride(b.shape(x))
        for i in range(depth):
            kernel = rng.choice((3, 5))
            x = b.conv_bn_act(x, width, kernel=kernel,
                              stride=stride if i == 0 else 1,
                              padding=kernel // 2)
        if rng.random() < 0.3:
            x = b.maxpool(x, kernel=2, stride=2) if b.shape(x)[1] >= 4 else x
        return x

    def _residual_stage(self, b: GraphBuilder, x: str, width: int,
                        depth: int) -> str:
        stride = self._maybe_downsample_stride(b.shape(x))
        for i in range(depth):
            s = stride if i == 0 else 1
            in_channels = b.shape(x)[0]
            identity = x
            out = b.conv_bn_act(x, width, kernel=3, stride=s, padding=1)
            out = b.conv(out, width, kernel=3, padding=1, bias=False)
            out = b.batchnorm(out)
            if s != 1 or in_channels != width:
                identity = b.conv(x, width, kernel=1, stride=s, bias=False)
                identity = b.batchnorm(identity)
            out = b.add([out, identity])
            x = b.relu(out)
        return x

    def _bottleneck_stage(self, b: GraphBuilder, x: str, width: int,
                          depth: int) -> str:
        rng = self._rng
        stride = self._maybe_downsample_stride(b.shape(x))
        groups = rng.choice((1, 2, 4, 8))
        width = max(width // groups * groups, groups)
        for i in range(depth):
            s = stride if i == 0 else 1
            in_channels = b.shape(x)[0]
            identity = x
            inner = max(width // 2 // groups * groups, groups)
            out = b.conv_bn_act(x, inner, kernel=1)
            out = b.conv_bn_act(out, inner, kernel=3, stride=s, padding=1,
                                groups=groups)
            out = b.conv(out, width, kernel=1, bias=False)
            out = b.batchnorm(out)
            if s != 1 or in_channels != width:
                identity = b.conv(x, width, kernel=1, stride=s, bias=False)
                identity = b.batchnorm(identity)
            out = b.add([out, identity])
            x = b.relu(out)
        return x

    def _dw_stage(self, b: GraphBuilder, x: str, width: int,
                  depth: int) -> str:
        rng = self._rng
        stride = self._maybe_downsample_stride(b.shape(x))
        use_se = self.config.allow_se and rng.random() < 0.5
        act = rng.choice((OpType.RELU, OpType.HARDSWISH, OpType.SILU))
        for i in range(depth):
            s = stride if i == 0 else 1
            in_channels = b.shape(x)[0]
            expanded = in_channels * rng.choice((2, 3, 4, 6))
            kernel = rng.choice((3, 5))
            identity = x
            out = b.conv_bn_act(x, expanded, kernel=1, act=act)
            out = b.conv_bn_act(out, expanded, kernel=kernel, stride=s,
                                padding=kernel // 2, groups=expanded,
                                act=act)
            if use_se:
                out = b.squeeze_excite(out, max(8, expanded // 4))
            out = b.conv(out, width, kernel=1, bias=False)
            out = b.batchnorm(out)
            if s == 1 and in_channels == width:
                out = b.add([out, identity])
            x = out
        return x

    def _inception_stage(self, b: GraphBuilder, x: str, width: int,
                         depth: int) -> str:
        rng = self._rng
        for _ in range(max(1, depth // 2)):
            quarter = max(8, width // 4)
            br1 = b.conv_bn_act(x, quarter, kernel=1)
            br2 = b.conv_bn_act(x, quarter, kernel=1)
            br2 = b.conv_bn_act(br2, quarter, kernel=3, padding=1)
            br3 = b.conv_bn_act(x, max(8, quarter // 2), kernel=1)
            br3 = b.conv_bn_act(br3, quarter, kernel=3, padding=1)
            br4 = b.maxpool(x, kernel=3, stride=1, padding=1)
            br4 = b.conv_bn_act(br4, quarter, kernel=1)
            x = b.concat([br1, br2, br3, br4])
        if b.shape(x)[1] >= 8 and rng.random() < 0.5:
            x = b.maxpool(x, kernel=3, stride=2, padding=1)
        return x

    def _transformer_stage(self, b: GraphBuilder, x: str,
                           depth: int) -> str:
        rng = self._rng
        c, h, _w = b.shape(x)
        dim = rng.choice((128, 192, 256, 384, 512))
        heads = rng.choice((4, 8))
        # Project to the embedding dimension, tokenize, encode.
        x = b.conv(x, dim, kernel=1)
        x = b.tokenize(x)
        x = b.cls_pos_embed(x)
        mlp_dim = dim * rng.choice((2, 4))
        for _ in range(depth):
            attn_in = b.layernorm(x)
            attn = b.attention(attn_in, num_heads=heads)
            x = b.add([x, attn])
            mlp_in = b.layernorm(x)
            hdn = b.linear(mlp_in, mlp_dim)
            hdn = b.gelu(hdn)
            hdn = b.linear(hdn, dim)
            x = b.add([x, hdn])
        return x

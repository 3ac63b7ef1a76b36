"""Roofline latency model.

Each operator is characterized by its FLOP count and memory traffic; at a
given GPU frequency its execution time is the larger of its compute time
and its memory time (plus a fixed kernel-launch overhead):

    t_compute = flops / (flops_per_cycle * f * efficiency(category))
    t_memory  = bytes / bandwidth(f)
    t         = max(t_compute, t_memory) + t_launch

Compute-bound operators therefore scale inversely with frequency while
memory-bound ones barely move — the asymmetry that makes per-block DVFS
profitable and that the depthwise feature extractor's 'arithmetic
intensity' feature captures.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence

from repro.graph import Graph, node_table
from repro.graph.graph import Node
from repro.hw.platform import PlatformSpec

#: Bounded size of the per-fingerprint graph-work LRU.
WORK_CACHE_SIZE = 64

#: Operator categories whose work shrinks with activation sparsity:
#: zero activations let the MAC arrays skip multiplies and compress the
#: activation traffic (the SparseDVFS observation).  Everything else —
#: normalization, pooling, reshapes — walks its tensors regardless.
SPARSITY_COMPUTE_CATEGORIES = frozenset(
    {"conv", "dwconv", "linear", "attention"})

#: Fraction of a sparsity-sensitive op's memory traffic that scales
#: with sparsity: weights still stream at full width, activations
#: compress, so bytes shrink half as fast as FLOPs.
SPARSITY_MEM_FRACTION = 0.5


def sparse_works(works: Sequence["OpWork"],
                 sparsity: float) -> Sequence["OpWork"]:
    """``works`` rescaled for an activation-sparsity fraction.

    Sparsity-sensitive categories (:data:`SPARSITY_COMPUTE_CATEGORIES`)
    get ``flops * (1 - s)`` and ``mem_bytes * (1 - 0.5 s)``; all other
    ops pass through untouched.  ``sparsity == 0.0`` returns the input
    sequence **unchanged and by identity**, so every pre-sparsity call
    site keeps its exact arithmetic (and cache hits) bit for bit.
    """
    s = float(sparsity)
    if not 0.0 <= s < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    if s == 0.0:
        return works
    out: List[OpWork] = []
    for w in works:
        if w.category in SPARSITY_COMPUTE_CATEGORIES:
            out.append(OpWork(
                w.name, w.category,
                w.flops * (1.0 - s),
                w.mem_bytes * (1.0 - SPARSITY_MEM_FRACTION * s)))
        else:
            out.append(w)
    return out


@dataclass(frozen=True)
class OpWork:
    """Frequency-independent workload description of one operator."""

    name: str
    category: str
    flops: float
    mem_bytes: float

    def scaled(self, batch_size: int) -> "OpWork":
        return OpWork(self.name, self.category,
                      self.flops * batch_size, self.mem_bytes * batch_size)


@dataclass(frozen=True)
class OpTiming:
    """Execution-time decomposition of one operator at one frequency.

    ``effective_bytes`` is the actual DRAM traffic (analytic minimum
    inflated by the platform's achieved-intensity cap); the power model
    charges DRAM energy on it.
    """

    duration: float
    compute_time: float
    memory_time: float
    effective_bytes: float = 0.0

    @property
    def compute_utilization(self) -> float:
        """Fraction of the duration the compute pipes are active."""
        if self.duration <= 0:
            return 0.0
        return min(1.0, self.compute_time / self.duration)

    @property
    def memory_utilization(self) -> float:
        """Fraction of the duration the memory pipes are active."""
        if self.duration <= 0:
            return 0.0
        return min(1.0, self.memory_time / self.duration)

    @property
    def compute_bound(self) -> bool:
        return self.compute_time >= self.memory_time


class LatencyModel:
    """Maps (operator workload, frequency) to execution time on a
    platform, with per-graph workload caching."""

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform
        # Keyed by graph fingerprint (content-addressed, so regenerated
        # but structurally identical graphs share one entry) and bounded
        # so a long labeling run over thousands of random networks
        # cannot grow the cache without limit.
        self._work_cache: "OrderedDict[str, List[OpWork]]" = OrderedDict()

    # ------------------------------------------------------------------
    def op_work(self, graph: Graph, node: Node) -> OpWork:
        """Workload record for one node (per batch element)."""
        table = node_table(graph)
        i = table.position[node.name]
        return OpWork(
            name=node.name,
            category=node.category.value,
            flops=table.flops[i].item(),
            mem_bytes=table.mem_elements[i].item()
            * self.platform.dtype_bytes,
        )

    def graph_work(self, graph: Graph) -> List[OpWork]:
        """Per-batch-element workload of every compute node, cached by
        graph fingerprint in a bounded LRU."""
        key = graph.fingerprint()
        works = self._work_cache.get(key)
        if works is not None:
            self._work_cache.move_to_end(key)
            return works
        works = [self.op_work(graph, n) for n in graph.compute_nodes()]
        self._work_cache[key] = works
        while len(self._work_cache) > WORK_CACHE_SIZE:
            self._work_cache.popitem(last=False)
        return works

    # ------------------------------------------------------------------
    def effective_bytes(self, work: OpWork, batch_size: int = 1) -> float:
        """DRAM traffic under the achieved-traffic model:
        ``amp * analytic_bytes + flops / cap``."""
        p = self.platform
        cap = p.intensity_caps.get(work.category, 1.0)
        amp = p.traffic_amplification.get(work.category, 1.0)
        analytic = work.mem_bytes * batch_size
        streaming = (work.flops * batch_size / cap) if cap > 0 else 0.0
        return amp * analytic + streaming

    def time_of(self, work: OpWork, freq: float,
                batch_size: int = 1) -> OpTiming:
        """Roofline execution time of ``work`` at GPU frequency ``freq``."""
        p = self.platform
        eff = p.op_efficiency.get(work.category, 0.2)
        peak = p.flops_per_cycle * freq * eff
        t_compute = (work.flops * batch_size) / peak if peak > 0 else 0.0
        bw = p.bandwidth_at(freq)
        bytes_moved = self.effective_bytes(work, batch_size)
        t_memory = bytes_moved / bw if bw > 0 else 0.0
        duration = max(t_compute, t_memory) + p.kernel_launch_s
        return OpTiming(duration, t_compute, t_memory, bytes_moved)

    def time_at_level(self, work: OpWork, level: int,
                      batch_size: int = 1) -> OpTiming:
        return self.time_of(work, self.platform.freq_of_level(level),
                            batch_size)

"""Roofline boundness analysis.

For every operator of a graph on a platform: the frequency below which
it is compute-bound (its *crossover*), its time share at a reference
level, and whether the top of the ladder buys it any throughput.  This
is the quantitative backbone of the paper's block-level intuition —
"computation-intensive blocks ... increase the target frequency;
memory-intensive blocks ... reduce the frequency".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graph import Graph
from repro.hw.perf import LatencyModel
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class OpBoundness:
    """Roofline placement of one operator."""

    name: str
    category: str
    crossover_hz: float        # compute time == memory time here
    duration_at_ref: float
    compute_bound_at_ref: bool


@dataclass
class RooflineReport:
    """Whole-graph boundness summary."""

    graph_name: str
    platform_name: str
    ref_level: int
    ops: List[OpBoundness] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(op.duration_at_ref for op in self.ops)

    def memory_bound_time_share(self) -> float:
        """Fraction of reference-level runtime spent in memory-bound
        operators — the headroom per-block DVFS can harvest cheaply."""
        total = self.total_time
        if total <= 0:
            return 0.0
        mem = sum(op.duration_at_ref for op in self.ops
                  if not op.compute_bound_at_ref)
        return mem / total

    def time_share_by_category(self) -> Dict[str, float]:
        total = self.total_time
        shares: Dict[str, float] = {}
        for op in self.ops:
            shares[op.category] = shares.get(op.category, 0.0) + \
                op.duration_at_ref
        if total > 0:
            shares = {k: v / total for k, v in shares.items()}
        return shares

    def format_table(self, top_n: int = 10) -> str:
        lines = [
            f"Roofline report: {self.graph_name} on {self.platform_name} "
            f"(level {self.ref_level})",
            f"memory-bound time share: "
            f"{self.memory_bound_time_share():.1%}",
            f"{'operator':<28s} {'category':<12s} {'x-over':>7s} "
            f"{'time%':>6s}",
        ]
        total = self.total_time or 1.0
        ranked = sorted(self.ops, key=lambda o: -o.duration_at_ref)
        for op in ranked[:top_n]:
            lines.append(
                f"{op.name:<28s} {op.category:<12s} "
                f"{op.crossover_hz / 1e6:>6.0f}M "
                f"{op.duration_at_ref / total:>6.1%}")
        return "\n".join(lines)


def _crossover_hz(latency: LatencyModel, work, batch_size: int,
                  platform: PlatformSpec) -> float:
    """Frequency where compute time equals memory time.

    With the bandwidth's mild frequency sensitivity the equation is
    f = rate_needed / bw(f); two fixed-point iterations converge to well
    under a ladder step.
    """
    eff = platform.op_efficiency.get(work.category, 0.2)
    bytes_moved = latency.effective_bytes(work, batch_size)
    flops = work.flops * batch_size
    if bytes_moved <= 0:
        return float("inf")
    if flops <= 0:
        return 0.0
    f = platform.f_max
    for _ in range(3):
        t_m = bytes_moved / platform.bandwidth_at(f)
        f = flops / (platform.flops_per_cycle * eff * t_m)
    return f


def roofline_report(platform: PlatformSpec, graph: Graph,
                    batch_size: int = 16,
                    ref_level: Optional[int] = None) -> RooflineReport:
    """Build the boundness report at ``ref_level`` (max by default)."""
    latency = LatencyModel(platform)
    ref = platform.max_level if ref_level is None else ref_level
    freq = platform.freq_of_level(ref)
    report = RooflineReport(graph_name=graph.name,
                            platform_name=platform.name,
                            ref_level=ref)
    for work in latency.graph_work(graph):
        timing = latency.time_of(work, freq, batch_size)
        report.ops.append(OpBoundness(
            name=work.name,
            category=work.category,
            crossover_hz=_crossover_hz(latency, work, batch_size,
                                       platform),
            duration_at_ref=timing.duration,
            compute_bound_at_ref=timing.compute_bound,
        ))
    return report

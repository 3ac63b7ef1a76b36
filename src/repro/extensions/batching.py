"""Joint batch-size / frequency optimization.

Reference [15] of the paper (Nabavinejad et al.) coordinates batching
and DVFS; the paper calls the combination out as orthogonal future work.
This extension implements the offline version that fits PowerLens's
preset philosophy: for each candidate batch size, compute the best
fixed-level (or per-block) energy efficiency under a per-image latency
budget, then pick the (batch, plan) pair with the highest EE per image.

Larger batches amortize kernel-launch overhead and weight traffic but
stretch per-batch latency, so the budget creates a genuine optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class BatchChoice:
    """Outcome of the sweep for one batch size."""

    batch_size: int
    level: int
    energy_per_image: float
    latency_per_image: float
    batch_latency: float

    @property
    def energy_efficiency(self) -> float:
        if self.energy_per_image <= 0:
            return 0.0
        return 1.0 / self.energy_per_image


def batch_sweep(platform: PlatformSpec, graph: Graph,
                candidates: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
                latency_slack: float = 0.25,
                sparsity: float = 0.0) -> List[BatchChoice]:
    """Evaluate every candidate batch size at its own optimal level."""
    evaluator = AnalyticEvaluator(platform)
    choices: List[BatchChoice] = []
    for batch in candidates:
        if batch < 1:
            raise ValueError("batch sizes must be positive")
        profile = evaluator.profile_table(graph, batch,
                                          sparsity).graph_profile()
        level = evaluator.best_level(profile, latency_slack=latency_slack)
        energy = float(profile.energies[level])
        latency = float(profile.times[level])
        choices.append(BatchChoice(
            batch_size=batch,
            level=level,
            energy_per_image=energy / batch,
            latency_per_image=latency / batch,
            batch_latency=latency,
        ))
    return choices


def best_batch_size(platform: PlatformSpec, graph: Graph,
                    candidates: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
                    latency_slack: float = 0.25,
                    max_batch_latency: Optional[float] = None,
                    sparsity: float = 0.0) -> BatchChoice:
    """Highest-EE batch size, optionally under a per-batch latency cap
    (interactive serving keeps batches small; throughput jobs don't)."""
    choices = batch_sweep(platform, graph, candidates, latency_slack,
                          sparsity)
    feasible = [c for c in choices
                if max_batch_latency is None
                or c.batch_latency <= max_batch_latency]
    if not feasible:
        # Nothing fits the cap: fall back to the lowest-latency option.
        return min(choices, key=lambda c: c.batch_latency)
    return max(feasible, key=lambda c: c.energy_efficiency)


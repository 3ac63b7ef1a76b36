"""Plan families: input-conditioned preset plans, selected at dispatch.

The preset runtime (:mod:`repro.governors.preset`) carries **one**
frequency plan per model; the adaptive loop
(:mod:`repro.governors.adaptive`) corrects that plan *after* drift is
observed.  SparseDVFS's observation is that the drift is often visible
*in the input itself*: batch size and activation sparsity shift each
block's sweep-optimal level enough that a single plan leaves energy on
the table.  A plan family therefore holds one analytic plan per model
and input bucket, and the runtime picks the member for each job
*before* the first kernel launches, keeping the paper's
zero-reactive-lag property.

:class:`PlanCache` is that family, and the only place plans are
selected for an input:

* a **member** is keyed by ``(graph name and fingerprint, batch size,
  sparsity bucket)`` and built lazily by :func:`analytic_plan` for
  exactly that batch and for the bucket's representative sparsity;
  the platform, latency slack and block size are fixed per cache, so
  they are not part of the key;
* **sparsity buckets** are the sorted, de-duplicated edges with 0.0
  prepended; bucket ``i`` covers ``[edge_i, edge_{i+1})`` and the last
  bucket everything up to 1.0.  Selection is total and pure arithmetic
  (:func:`bisect.bisect_right`, no RNG, no clock), so the same
  ``(batch, sparsity)`` always selects the same member;
* **corrections** an adaptive runtime adopts are kept per member
  (:meth:`PlanCache.adopt`) and win over the analytic member from then
  on, so a batch-1 correction never smears onto the batch-16 plan.

The serving device (:class:`~repro.serving.fleet.SimulatedDevice`) and
the drift-retention experiment (:mod:`repro.experiments.adaptive`) both
install ``select``'s plan into a plain
:class:`~repro.governors.preset.PresetGovernor` before each job; the
runtime only ever sees the selected member.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Sequence, Tuple

from repro.governors.preset import FrequencyPlan, PlanStep
from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator

__all__ = ["PlanCache", "analytic_plan"]

#: A member's key: ``(graph name, graph fingerprint, batch, sparsity)``.
MemberKey = Tuple[str, str, int, float]


def _member_key(graph: Graph, batch_size: int, sparsity: float
                ) -> MemberKey:
    # The plan carries the graph's name (the preset runtime looks plans
    # up by name), so same-structure graphs get their own member.
    return (graph.name, graph.fingerprint(), int(batch_size),
            float(sparsity))


def analytic_plan(evaluator: AnalyticEvaluator, graph: Graph,
                  batch_size: int, latency_slack: float = 0.25,
                  block_size: int = 8,
                  sparsity: float = 0.0) -> FrequencyPlan:
    """Closed-form frequency plan: fixed-size operator blocks, each at
    its exhaustive-sweep EE-optimal level.

    This is the serving-time planner — the oracle labeling rule of
    Dataset B applied per block, cheap enough (one
    :meth:`~repro.hw.analytic.ProfileTable.levels` call over the fixed
    ``(start, stop)`` spans) to run at admission without a fitted lens.
    ``sparsity`` plans against the activation-sparsity-rescaled
    workload (0.0 reproduces the pre-sparsity plans bit for bit).
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    table = evaluator.profile_table(graph, batch_size, sparsity)
    spans = [(start, min(start + block_size, table.n_ops))
             for start in range(0, table.n_ops, block_size)]
    steps = [PlanStep(start, level) for (start, _stop), level
             in zip(spans, table.levels(spans, latency_slack))]
    return FrequencyPlan(graph_name=graph.name, steps=steps,
                         graph_fingerprint=graph.fingerprint())


class PlanCache:
    """One device's plan family: analytic members plus adopted
    corrections, both keyed by :data:`MemberKey` (module docstring)."""

    def __init__(self, evaluator: AnalyticEvaluator,
                 latency_slack: float = 0.25,
                 block_size: int = 8,
                 sparsity_edges: Sequence[float] = (0.0,)) -> None:
        edges = tuple(sorted({float(s) for s in sparsity_edges}))
        if not edges:
            raise ValueError("at least one sparsity edge required")
        if not all(0.0 <= s < 1.0 for s in edges):
            raise ValueError("sparsity edges must be in [0, 1)")
        if edges[0] != 0.0:
            # Totality: jobs below the first edge must land somewhere.
            edges = (0.0,) + edges
        self.sparsity_edges = edges
        self.evaluator = evaluator
        self.latency_slack = latency_slack
        self.block_size = block_size
        self.hits = 0
        self.misses = 0
        self._plans: Dict[MemberKey, FrequencyPlan] = {}
        # Adopted corrections, kept apart from the analytic members they
        # replace: get_or_build (prewarm, predict) reads only members.
        self._corrections: Dict[MemberKey, FrequencyPlan] = {}

    def bucket(self, sparsity: float) -> float:
        """Representative sparsity of ``sparsity``'s bucket: the
        largest edge not exceeding it."""
        edges = self.sparsity_edges
        return edges[max(0, bisect_right(edges, float(sparsity)) - 1)]

    def get_or_build(self, graph: Graph, batch_size: int,
                     sparsity: float = 0.0) -> FrequencyPlan:
        """The analytic member built for exactly ``sparsity`` (callers
        pass a bucket edge)."""
        key = _member_key(graph, batch_size, sparsity)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
        plan = analytic_plan(self.evaluator, graph, batch_size,
                             self.latency_slack, self.block_size,
                             sparsity=sparsity)
        self._plans[key] = plan
        return plan

    def select(self, graph: Graph, batch_size: int,
               sparsity: float = 0.0) -> Tuple[FrequencyPlan, float]:
        """``(plan, bucket)`` for one job: the correction adopted for
        its member if there is one, else the analytic member."""
        bucket = self.bucket(sparsity)
        plan = self._corrections.get(
            _member_key(graph, batch_size, bucket))
        if plan is None:
            plan = self.get_or_build(graph, batch_size, bucket)
        return plan, bucket

    def adopt(self, graph: Graph, batch_size: int, bucket: float,
              plan: FrequencyPlan) -> None:
        """Make ``plan`` the member :meth:`select` returns for
        ``(graph, batch_size, bucket)`` from now on."""
        self._corrections[_member_key(graph, batch_size, bucket)] = plan

    def __len__(self) -> int:
        return len(self._plans)

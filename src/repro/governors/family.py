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
  members are content-hash cached (:func:`plan_cache_key`);
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

import dataclasses
import hashlib
import json
import threading
from bisect import bisect_right
from typing import Dict, Sequence, Tuple

from repro.governors.preset import FrequencyPlan, PlanStep
from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import PlatformSpec

__all__ = ["PLAN_CACHE_VERSION", "PlanCache", "analytic_plan",
           "plan_cache_key"]

#: Bump when the analytic planner's semantics change (invalidates keys).
#: v2: plan keys carry the activation-sparsity bucket the plan was
#: built for (0.0 plans are numerically unchanged from v1).
PLAN_CACHE_VERSION = 2


def analytic_plan(evaluator: AnalyticEvaluator, graph: Graph,
                  batch_size: int, latency_slack: float = 0.25,
                  block_size: int = 8,
                  sparsity: float = 0.0) -> FrequencyPlan:
    """Closed-form frequency plan: fixed-size operator blocks, each at
    its exhaustive-sweep EE-optimal level.

    This is the serving-time planner — the oracle labeling rule of
    Dataset B applied per block, cheap enough (one
    :class:`~repro.hw.analytic.ProfileTable` query per block) to run at
    admission without a fitted lens.  ``sparsity`` plans against the
    activation-sparsity-rescaled workload (0.0 reproduces the
    pre-sparsity plans bit for bit).
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    table = evaluator.profile_table(graph, batch_size, sparsity)
    steps = [
        PlanStep(start, table.best_level_for_block(
            range(start, min(start + block_size, table.n_ops)),
            latency_slack))
        for start in range(0, table.n_ops, block_size)
    ]
    return FrequencyPlan(graph_name=graph.name, steps=steps,
                         graph_fingerprint=graph.fingerprint())


def plan_cache_key(platform: PlatformSpec, graph: Graph,
                   batch_size: int, latency_slack: float,
                   block_size: int, sparsity: float = 0.0) -> str:
    """Content hash of everything a device's frequency plan depends on
    (same recipe as :func:`repro.core.persistence.dataset_cache_key`)."""
    payload = {
        "version": PLAN_CACHE_VERSION,
        "platform": dataclasses.asdict(platform),
        # The plan carries the graph's name (the preset runtime looks
        # plans up by name), so same-structure graphs get their own.
        "graph_name": graph.name,
        "graph_fingerprint": graph.fingerprint(),
        "batch_size": int(batch_size),
        "latency_slack": latency_slack,
        "block_size": int(block_size),
        "sparsity": float(sparsity),
    }
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


class PlanCache:
    """One device's plan family: analytic members keyed by
    :func:`plan_cache_key`, plus adopted corrections (module docstring).

    Thread-safe under one lock so the scheduler can pre-warm many
    devices' caches in parallel (``n_jobs``) while each device's
    underlying :class:`AnalyticEvaluator` LRU stays single-threaded.
    """

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
        self._plans: Dict[str, FrequencyPlan] = {}
        # Content hashes per (graph name, graph fingerprint, batch,
        # sparsity): the other key inputs are fixed per cache, so a
        # lookup need not re-serialize the platform on every dispatch.
        self._keys: Dict[Tuple[str, str, int, float], str] = {}
        # Adopted corrections per (graph name, graph fingerprint, batch,
        # bucket), kept apart from the content-hash members they replace.
        self._corrections: Dict[Tuple[str, str, int, float],
                                FrequencyPlan] = {}
        self._lock = threading.Lock()

    def bucket(self, sparsity: float) -> float:
        """Representative sparsity of ``sparsity``'s bucket: the
        largest edge not exceeding it."""
        edges = self.sparsity_edges
        return edges[max(0, bisect_right(edges, float(sparsity)) - 1)]

    def key_for(self, graph: Graph, batch_size: int,
                sparsity: float = 0.0) -> str:
        ident = (graph.name, graph.fingerprint(), int(batch_size),
                 float(sparsity))
        key = self._keys.get(ident)
        if key is None:
            key = self._keys[ident] = plan_cache_key(
                self.evaluator.platform, graph, batch_size,
                self.latency_slack, self.block_size, sparsity)
        return key

    def get_or_build(self, graph: Graph, batch_size: int,
                     sparsity: float = 0.0) -> FrequencyPlan:
        """The analytic member built for exactly ``sparsity`` (callers
        pass a bucket edge)."""
        key = self.key_for(graph, batch_size, sparsity)
        with self._lock:
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
            (graph.name, graph.fingerprint(), int(batch_size), bucket))
        if plan is None:
            plan = self.get_or_build(graph, batch_size, bucket)
        return plan, bucket

    def adopt(self, graph: Graph, batch_size: int, bucket: float,
              plan: FrequencyPlan) -> None:
        """Make ``plan`` the member :meth:`select` returns for
        ``(graph, batch_size, bucket)`` from now on."""
        self._corrections[(graph.name, graph.fingerprint(),
                           int(batch_size), bucket)] = plan

    def __len__(self) -> int:
        return len(self._plans)

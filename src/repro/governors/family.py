"""Plan families: input-conditioned preset plans, selected at dispatch.

The preset runtime (:mod:`repro.governors.preset`) carries **one**
frequency plan per model; the adaptive loop
(:mod:`repro.governors.adaptive`) corrects that plan *after* drift is
observed.  SparseDVFS's observation is that the drift is often visible
*in the input itself*: batch size and activation sparsity shift each
block's sweep-optimal level enough that a single plan leaves energy on
the table.  A :class:`PlanFamily` therefore holds a small grid of
analytic plans per model — one member per ``(batch bucket, sparsity
bucket)`` — and :class:`PlanFamilyGovernor` picks the member for each
job at ``on_job_start``, *before* the first kernel launches, keeping
the paper's zero-reactive-lag property.

Bucket-boundary determinism rules (property-tested in
``tests/test_governors_family.py``):

* bucket edges are the sorted, de-duplicated representative grid
  points; bucket ``i`` covers ``[edge_i, edge_{i+1})``;
* selection is **total**: any batch ``>= 1`` below the first edge maps
  to bucket 0, anything at or above the last edge maps to the last
  bucket (same rule on the sparsity axis over ``[0, 1)``);
* selection is pure arithmetic (:func:`bisect.bisect_right`) — no RNG,
  no clock — so the same ``(batch, sparsity)`` always selects the same
  member.

A family of size 1 degenerates to the static preset governor: the
single member is installed at the first job start and never swapped, so
the issued DVFS command stream is byte-identical to
:class:`~repro.governors.preset.PresetGovernor` carrying the same plan
(hypothesis-pinned).

:class:`AdaptivePlanFamilyGovernor` composes the family with the
closed-loop replanner: the selected member is the plan the inherited
``observe_job`` nudges, and the corrected (or rolled-back) plan is
written back to that member's bucket slot — nudges apply **per family
member**, never smearing a batch-1 correction onto the batch-16 plan.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.governors.adaptive import AdaptivePresetGovernor
from repro.governors.preset import FrequencyPlan, PlanStep, PresetGovernor
from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator

__all__ = ["FeatureBuckets", "PlanFamily", "analytic_plan",
           "build_plan_family", "floor_bucket", "PlanFamilyGovernor",
           "AdaptivePlanFamilyGovernor"]

#: (batch bucket index, sparsity bucket index)
Bucket = Tuple[int, int]


def floor_bucket(edges: Sequence[float], value: float) -> int:
    """Index of the largest edge not exceeding ``value``; values below
    the first edge clamp to bucket 0 (the module's boundary rules)."""
    return max(0, bisect_right(edges, value) - 1)


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


@dataclass(frozen=True)
class FeatureBuckets:
    """Deterministic, total bucketing of the (batch, sparsity) space.

    ``batch_edges`` / ``sparsity_edges`` are the sorted representative
    grid points; see the module docstring for the boundary rules.
    """

    batch_edges: Tuple[int, ...]
    sparsity_edges: Tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not self.batch_edges:
            raise ValueError("at least one batch edge required")
        if not self.sparsity_edges:
            raise ValueError("at least one sparsity edge required")
        if list(self.batch_edges) != sorted(set(self.batch_edges)):
            raise ValueError("batch edges must be sorted and unique")
        if list(self.sparsity_edges) != sorted(set(self.sparsity_edges)):
            raise ValueError("sparsity edges must be sorted and unique")
        if self.batch_edges[0] < 1:
            raise ValueError("batch edges must be >= 1")
        if not all(0.0 <= s < 1.0 for s in self.sparsity_edges):
            raise ValueError("sparsity edges must be in [0, 1)")

    @property
    def n_buckets(self) -> int:
        return len(self.batch_edges) * len(self.sparsity_edges)

    def buckets(self) -> Iterable[Bucket]:
        """Every bucket index pair, in deterministic row-major order."""
        return product(range(len(self.batch_edges)),
                       range(len(self.sparsity_edges)))

    def batch_bucket(self, batch_size: int) -> int:
        return floor_bucket(self.batch_edges, int(batch_size))

    def sparsity_bucket(self, sparsity: float) -> int:
        return floor_bucket(self.sparsity_edges, float(sparsity))

    def bucket_for(self, batch_size: int,
                   sparsity: float = 0.0) -> Bucket:
        """Total, deterministic member selection (module docstring)."""
        return (self.batch_bucket(batch_size),
                self.sparsity_bucket(sparsity))

    def representative(self, bucket: Bucket) -> Tuple[int, float]:
        """The grid point a bucket's member plan was built for."""
        return (self.batch_edges[bucket[0]],
                self.sparsity_edges[bucket[1]])


@dataclass
class PlanFamily:
    """One model's plan grid: a member plan per feature bucket.

    ``members`` must be **total** over ``buckets.buckets()`` — dispatch
    never synthesizes plans, it only selects.
    """

    graph_name: str
    buckets: FeatureBuckets
    members: Dict[Bucket, FrequencyPlan] = field(default_factory=dict)
    graph_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        expected = set(self.buckets.buckets())
        if set(self.members) != expected:
            missing = sorted(expected - set(self.members))
            extra = sorted(set(self.members) - expected)
            raise ValueError(
                f"plan family must cover every bucket exactly "
                f"(missing {missing}, extra {extra})")
        for bucket, plan in self.members.items():
            if plan.graph_name != self.graph_name:
                raise ValueError(
                    f"member {bucket} is a plan for "
                    f"{plan.graph_name!r}, not {self.graph_name!r}")

    @property
    def size(self) -> int:
        return len(self.members)

    def member_for(self, batch_size: int,
                   sparsity: float = 0.0) -> FrequencyPlan:
        return self.members[self.buckets.bucket_for(batch_size, sparsity)]


def build_plan_family(evaluator: AnalyticEvaluator, graph: Graph,
                      batch_grid: Sequence[int],
                      sparsity_grid: Sequence[float] = (0.0,),
                      latency_slack: float = 0.25,
                      block_size: int = 8) -> PlanFamily:
    """Analytic plan family over a ``(batch, sparsity)`` grid.

    Each grid point doubles as its bucket's edge *and* the workload its
    member plan is built for, so a job landing exactly on a grid point
    runs the plan computed for precisely that input — in particular a
    single-point grid reproduces :func:`analytic_plan` for that point.
    """
    buckets = FeatureBuckets(
        batch_edges=tuple(sorted({int(b) for b in batch_grid})),
        sparsity_edges=tuple(sorted({float(s) for s in sparsity_grid})))
    members = {
        bucket: analytic_plan(evaluator, graph,
                              buckets.batch_edges[bucket[0]],
                              latency_slack, block_size,
                              sparsity=buckets.sparsity_edges[bucket[1]])
        for bucket in buckets.buckets()
    }
    return PlanFamily(graph_name=graph.name, buckets=buckets,
                      members=members,
                      graph_fingerprint=graph.fingerprint())


class _FamilySelectionMixin:
    """Dispatch-time member selection shared by both family runtimes.

    Mixes in *before* a :class:`PresetGovernor` subclass; relies on its
    ``_plans`` / ``add_plan`` / ``_count`` machinery.
    """

    def _init_families(self, families: Sequence[PlanFamily]) -> None:
        fams = list(families)
        self._families: Dict[str, PlanFamily] = {
            f.graph_name: f for f in fams
        }
        if len(self._families) != len(fams):
            raise ValueError("one family per graph name")
        self._last_bucket: Dict[str, Bucket] = {}
        #: Member lookups performed (one per job with a family).
        self.family_selections = 0
        #: Lookups that swapped the installed plan to another member.
        self.family_switches = 0

    def family_for(self, graph_name: str) -> Optional[PlanFamily]:
        return self._families.get(graph_name)

    def add_family(self, family: PlanFamily) -> None:
        self._families[family.graph_name] = family

    def _select_member(self, job) -> None:
        """Install the family member for ``job``'s input features.

        Runs at ``on_job_start`` — before the preset machinery reads
        ``_plans`` — so the selected member is simply *the* plan for
        the job; every downstream contract (validation, resilience
        ladder, adaptive feedback) applies to it unchanged.
        """
        family = self._families.get(job.graph.name)
        if family is None:
            return
        bucket = family.buckets.bucket_for(
            job.batch_size, getattr(job, "sparsity", 0.0))
        self._last_bucket[job.graph.name] = bucket
        member = family.members[bucket]
        self.family_selections += 1
        self._count("family_selections")
        current = self._plans.get(job.graph.name)
        if current is not member:
            if current is not None:
                self.family_switches += 1
                self._count("family_switches")
            self.add_plan(member)


class PlanFamilyGovernor(_FamilySelectionMixin, PresetGovernor):
    """Static preset runtime over a plan family (module docstring).

    ``validation_cache_size`` defaults to a bound that fits every
    family member (each member has its own plan fingerprint, so a
    family can thrash the stock 256-entry verdict cache when many
    models share one device).
    """

    name = "powerlens-family"

    def __init__(self, families: Sequence[PlanFamily],
                 name: str = "powerlens-family",
                 validation_cache_size: Optional[int] = None,
                 **preset_kwargs: object) -> None:
        fams = list(families)
        if validation_cache_size is None:
            members = sum(f.size for f in fams)
            validation_cache_size = max(
                PresetGovernor._VALIDATION_CACHE_SIZE, 2 * members)
        super().__init__(
            [], name=name,
            validation_cache_size=validation_cache_size,
            **preset_kwargs)  # type: ignore[arg-type]
        self._init_families(fams)

    def on_job_start(self, job_idx: int, job):
        self._select_member(job)
        return super().on_job_start(job_idx, job)


class AdaptivePlanFamilyGovernor(_FamilySelectionMixin,
                                 AdaptivePresetGovernor):
    """Plan family + closed-loop replanning, composed per member.

    The inherited :meth:`~repro.governors.adaptive.\
AdaptivePresetGovernor.observe_job` nudges whatever plan is installed
    for the graph — which, under a family, is the member the last job
    selected.  After the observation the (corrected, confirmed or
    rolled-back) current plan is written back to that member's bucket
    slot, so each bucket accumulates its own corrections.
    """

    name = "powerlens-family-adaptive"

    def __init__(self, families: Sequence[PlanFamily],
                 evaluator: AnalyticEvaluator,
                 name: str = "powerlens-family-adaptive",
                 validation_cache_size: Optional[int] = None,
                 **adaptive_kwargs: object) -> None:
        fams = list(families)
        if validation_cache_size is None:
            members = sum(f.size for f in fams)
            validation_cache_size = max(
                PresetGovernor._VALIDATION_CACHE_SIZE, 2 * members)
        super().__init__(
            [], evaluator, name=name,
            validation_cache_size=validation_cache_size,
            **adaptive_kwargs)  # type: ignore[arg-type]
        self._init_families(fams)

    def on_job_start(self, job_idx: int, job):
        self._select_member(job)
        return super().on_job_start(job_idx, job)

    def observe_job(self, graph, batch_size: int, ledger,
                    new_anomalies: int = 0,
                    sparsity: float = 0.0) -> str:
        action = super().observe_job(graph, batch_size, ledger,
                                     new_anomalies, sparsity)
        family = self._families.get(graph.name)
        bucket = self._last_bucket.get(graph.name)
        if family is not None and bucket is not None:
            current = self._plans.get(graph.name)
            if current is not None:
                # Nudges stick per member: the bucket that produced the
                # evidence keeps its correction, siblings stay put.
                family.members[bucket] = current
        return action

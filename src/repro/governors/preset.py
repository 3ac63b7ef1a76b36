"""Preset governor: executes a per-block frequency plan.

This is the runtime half of PowerLens (section 2.1.4): DVFS
instrumentation points are preset *before* each power block, each
carrying the block's target level, so the frequency is already correct
when the block's first kernel launches — no reactive lag and no
ping-pong.  The plan itself is produced offline by
:class:`repro.core.pipeline.PowerLens` (or by the oracle / ablations).

Resilience (this module's second half): real actuators fail.  In
``resilient`` mode (the default) the governor verifies every switch
result the simulator reports back and walks a degradation ladder:

1. **retry** — a failed command is re-issued up to
   :data:`MAX_RETRIES` times at the same decision point;
2. **pin** — when retries are exhausted, the block is pinned at the
   nearest achieved level and not fought over again this job;
3. **fall back** — after :data:`MAX_BLOCK_FAILURES` pinned blocks in
   one job, the plan is abandoned and the job finishes at a safe static
   level, the plan's median (:meth:`FrequencyPlan.safe_level`).

Plans are validated when installed (levels clamped to the platform
ladder) and again at job start (operator indices must fit the graph,
and a recorded graph fingerprint must match).  Every decision is
counted in :class:`RuntimeHealth`.  With ``resilient=False`` the
governor is the naive fire-and-forget runtime used as the robustness
baseline.
"""

from __future__ import annotations

import hashlib
import statistics
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.governors.base import Governor
from repro.hw.dvfs import SwitchResult
from repro.hw.faults import OUTCOME_CAPPED
from repro.hw.perf import OpWork
from repro.hw.platform import PlatformSpec
from repro.obs.metrics import MetricsRegistry, NULL_METRICS

#: Re-issues per failed decision point before pinning the block.
MAX_RETRIES = 2
#: Pinned blocks per job before abandoning the plan entirely.
MAX_BLOCK_FAILURES = 3


@dataclass(frozen=True)
class PlanStep:
    """One instrumentation point: when operator ``op_index`` is about to
    start, retarget the GPU to ``level``."""

    op_index: int
    level: int


@dataclass
class FrequencyPlan:
    """Instrumentation points for one graph.

    ``steps`` must be sorted by ``op_index`` and start at operator 0 so
    every operator executes under an explicitly chosen level.

    ``graph_fingerprint`` optionally records
    :meth:`repro.graph.Graph.fingerprint` of the graph the plan was
    computed for; the preset governor refuses to apply the plan to a
    same-named graph whose fingerprint differs (stale-plan detection).
    """

    graph_name: str
    steps: List[PlanStep] = field(default_factory=list)
    graph_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a frequency plan needs at least one step")
        indices = [s.op_index for s in self.steps]
        if indices != sorted(indices) or len(set(indices)) != len(indices):
            raise ValueError("plan steps must be strictly increasing")
        if self.steps[0].op_index != 0:
            raise ValueError("plan must cover the graph from operator 0")
        if any(s.op_index < 0 for s in self.steps):
            raise ValueError("plan op indices must be non-negative")
        self._indices = indices
        self._levels = [s.level for s in self.steps]
        self._fingerprint: Optional[str] = None
        self._clamped: Dict[int, Tuple["FrequencyPlan", int]] = {}

    @property
    def n_blocks(self) -> int:
        return len(self.steps)

    @property
    def max_op_index(self) -> int:
        return self.steps[-1].op_index

    def spans(self, n_ops: int) -> List[Tuple[int, int]]:
        """The ``(start, stop)`` op span each step's level covers, in
        step order: step ``i`` runs ops ``steps[i].op_index`` up to the
        next step (the last step up to ``n_ops``)."""
        return list(zip(self._indices, self._indices[1:] + [n_ops]))

    def level_for_op(self, op_index: int) -> int:
        """Level in force while ``op_index`` executes."""
        i = bisect_right(self._indices, op_index) - 1
        return self._levels[i if i >= 0 else 0]

    def switch_indices(self) -> List[int]:
        """Operator indices where the level actually changes."""
        result = []
        prev: Optional[int] = None
        for step in self.steps:
            if prev is None or step.level != prev:
                result.append(step.op_index)
            prev = step.level
        return result

    def clamped(self, platform: PlatformSpec
                ) -> Tuple["FrequencyPlan", int]:
        """(copy of this plan with every level clamped to ``platform``'s
        ladder, number of levels that changed); the copy is ``self``
        when nothing needs clamping.  Memoized per ladder top, the only
        platform value clamping reads."""
        top = platform.max_level
        memo = self._clamped.get(top)
        if memo is None:
            levels = [platform.clamp_level(level) for level in self._levels]
            n_clamped = sum(a != b for a, b in zip(self._levels, levels))
            plan = self if not n_clamped else FrequencyPlan(
                self.graph_name, [PlanStep(s.op_index, level) for s, level
                                  in zip(self.steps, levels)],
                self.graph_fingerprint)
            memo = self._clamped[top] = (plan, n_clamped)
        return memo

    def safe_level(self) -> int:
        """Static level used when the plan itself must be abandoned:
        the plan's median level (low side) — conservative, always on
        the plan's own ladder."""
        return statistics.median_low(sorted(self._levels))

    def fingerprint(self) -> str:
        """Content hash of the plan (graph name, steps, recorded graph
        fingerprint) — the key the governor's validation cache and the
        adaptive replanner use to tell plans apart."""
        if self._fingerprint is None:
            blob = "/".join(
                [self.graph_name, self.graph_fingerprint or ""]
                + [f"{s.op_index}:{s.level}" for s in self.steps])
            self._fingerprint = hashlib.sha256(
                blob.encode()).hexdigest()[:32]
        return self._fingerprint


@dataclass
class RuntimeHealth:
    """Counters for every resilience decision the preset runtime takes.

    All-zero means the run executed its plans exactly as computed.
    """

    #: Failed switch commands re-issued at the same decision point.
    switch_retries: int = 0
    #: Decision points where the retry budget ran out.
    switch_failures: int = 0
    #: Blocks pinned at the nearest achieved level after failures.
    blocks_pinned: int = 0
    #: Plans rejected at install/job start (bad indices, fingerprint).
    plans_rejected: int = 0
    #: Jobs that abandoned their plan for the safe static level.
    plan_fallbacks: int = 0
    #: Plan levels clamped to the platform ladder at install time.
    levels_clamped: int = 0
    #: Commands truncated by an external cap and honored as-is (the
    #: runtime holds what the environment allows and re-asserts later).
    caps_honored: int = 0

    @property
    def degraded(self) -> bool:
        """True when any fallback behaviour was exercised."""
        return (self.switch_failures > 0 or self.blocks_pinned > 0
                or self.plans_rejected > 0 or self.plan_fallbacks > 0)

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class PresetGovernor(Governor):
    """Applies :class:`FrequencyPlan` objects at instrumentation points.

    Plans are keyed by graph name; jobs whose graph has no plan run at
    the platform's maximum level.  The CPU keeps the stock ondemand policy —
    the paper's PowerLens configures *only* the GPU.

    Parameters
    ----------
    resilient:
        Verify every switch outcome and walk the degradation ladder
        (module docstring).  ``False`` gives the naive fire-and-forget
        runtime: like any real no-verify runtime it tracks the level it
        *believes* is in force (to skip redundant actuator writes) and
        never checks reality — a silently dropped or capped command
        poisons that belief for the rest of the job.  Fault-free, both
        modes issue identical commands and produce identical traces.
    """

    name = "powerlens"

    def __init__(self, plans: Sequence[FrequencyPlan],
                 name: str = "powerlens",
                 resilient: bool = True,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__()
        self.name = name
        self.resilient = resilient
        self._plans: Dict[str, FrequencyPlan] = {
            p.graph_name: p for p in plans
        }
        # Observe-only mirror of RuntimeHealth: counters survive reset()
        # (metrics are cumulative across jobs; health is per-run).
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.health = RuntimeHealth()
        self._installed: Dict[str, FrequencyPlan] = {}
        # Verdict cache for the structural job-start validation, keyed
        # by (plan fingerprint, graph fingerprint): a fault storm that
        # re-enters the same (plan, graph) pair must not rescan the
        # graph's node list every job (bounded FIFO — the adaptive
        # replanner mints new plan fingerprints over time).
        self._validation_cache: Dict[Tuple[str, str], bool] = {}
        #: Verdicts evicted from the bounded validation cache
        #: (cumulative — the cache itself survives reset()).
        self.validation_evictions = 0
        self._active: Optional[FrequencyPlan] = None
        self._pending: Dict[int, int] = {}
        self._pinned: Dict[int, int] = {}
        self._rejected_names: set = set()
        self._retries_left = 0
        self._block_failures = 0
        self._fallen_back = False
        self._expect_level: Optional[int] = None
        self._current_op: Optional[int] = None
        self._believed: Optional[int] = None

    def _count(self, event: str, n: int = 1) -> None:
        """Mirror one RuntimeHealth increment into the metrics registry
        (no-op on the default disabled registry)."""
        self.metrics.counter(f"powerlens_runtime_{event}_total").inc(n)

    def _note_validation_eviction(self) -> None:
        """Hook for subclasses that mirror eviction counts elsewhere
        (the adaptive governor folds them into ReplanHealth)."""

    def plan_for(self, graph_name: str) -> Optional[FrequencyPlan]:
        return self._plans.get(graph_name)

    def add_plan(self, plan: FrequencyPlan) -> None:
        self._plans[plan.graph_name] = plan
        if self.platform is not None:
            self._install(plan)

    # ------------------------------------------------------------------
    # installation / validation
    # ------------------------------------------------------------------
    def _install(self, plan: FrequencyPlan) -> None:
        """Clamp a plan onto the bound platform's ladder."""
        assert self.platform is not None
        clamped, n_clamped = plan.clamped(self.platform)
        if n_clamped:
            self.health.levels_clamped += n_clamped
            self._count("levels_clamped", n_clamped)
        self._installed[plan.graph_name] = clamped

    def reset(self, platform: PlatformSpec) -> None:
        super().reset(platform)
        self.health = RuntimeHealth()
        self._installed = {}
        for plan in self._plans.values():
            self._install(plan)
        self._active = None
        self._pending = {}
        self._pinned = {}
        self._rejected_names = set()
        self._retries_left = 0
        self._block_failures = 0
        self._fallen_back = False
        self._expect_level = None
        self._current_op = None
        self._believed = None

    def initial_gpu_level(self) -> int:
        assert self.platform is not None
        level = self.platform.max_level
        self._believed = level
        return level

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------
    #: Bound on the validation-verdict cache (FIFO eviction).  Each
    #: plan-family member and each adopted correction is a distinct
    #: fingerprint; evictions are counted in ``validation_evictions``
    #: (and mirrored into :class:`~repro.governors.adaptive.ReplanHealth`
    #: by the adaptive governor).
    _VALIDATION_CACHE_SIZE = 256

    def _validated_plan(self, job) -> Optional[FrequencyPlan]:
        """Installed plan for the job's graph, or ``None`` when absent
        or rejected by the structural checks.

        Verdicts are cached by ``(plan fingerprint, graph
        fingerprint)`` so repeated job starts on the same pair — e.g.
        every job of a fault storm that keeps re-entering the
        degradation ladder — skip the graph-node rescan.  The per-run
        rejection *counting* stays once per graph name regardless of
        where the verdict came from.
        """
        name = job.graph.name
        plan = self._installed.get(name)
        if plan is None:
            return None
        key = (plan.fingerprint(), job.graph.fingerprint())
        verdict = self._validation_cache.get(key)
        if verdict is None:
            n_ops = len(job.graph.compute_nodes())
            verdict = not (
                plan.max_op_index >= n_ops
                or (plan.graph_fingerprint is not None
                    and plan.graph_fingerprint != job.graph.fingerprint())
            )
            self._validation_cache[key] = verdict
            while len(self._validation_cache) > \
                    self._VALIDATION_CACHE_SIZE:
                self._validation_cache.pop(
                    next(iter(self._validation_cache)))
                self.validation_evictions += 1
                self._count("validation_evictions")
                self._note_validation_eviction()
        if not verdict:
            if name not in self._rejected_names:
                self._rejected_names.add(name)
                self.health.plans_rejected += 1
                self._count("plans_rejected")
            return None
        return plan

    def on_job_start(self, job_idx: int, job) -> Optional[int]:
        self._pinned = {}
        self._block_failures = 0
        self._fallen_back = False
        self._current_op = None
        self._active = self._validated_plan(job)
        if self._active is None:
            self._pending = {}
            return self._request(self.initial_gpu_level())
        self._pending = {
            s.op_index: s.level for s in self._active.steps
        }
        return None

    def on_op_start(self, job_idx: int, op_idx: int,
                    work: OpWork) -> Optional[int]:
        self._current_op = op_idx
        if not self.resilient:
            target = self._pending.get(op_idx)
            if target is None or target == self._believed:
                # Fire-and-forget: trust the belief, skip the redundant
                # write.  If an earlier command silently failed, this is
                # exactly where the naive runtime stays wrong.
                return None
            self._believed = target
            return target
        if self._fallen_back:
            return None
        if op_idx in self._pinned:
            # Block previously lost its retry budget: hold the level it
            # actually achieved, don't fight the actuator again.
            return self._request(self._pinned[op_idx], retries=0)
        if op_idx in self._pending:
            return self._request(self._pending[op_idx])
        return None

    def _request(self, level: int, retries: Optional[int] = None) -> int:
        """Arm the verify-after-switch machinery for one decision."""
        self._expect_level = level
        self._retries_left = MAX_RETRIES if retries is None else retries
        return level

    # ------------------------------------------------------------------
    # verify-after-switch (called by the simulator after every
    # actuation it performs on our behalf)
    # ------------------------------------------------------------------
    def on_switch_result(self,
                         result: SwitchResult) -> Optional[int]:
        if not self.resilient:
            return None
        expected = self._expect_level
        if expected is None:
            # A switch we did not ask for (thermal / cap enforcement):
            # nothing to verify.
            return None
        assert self.platform is not None
        expected = self.platform.clamp_level(expected)
        if result.achieved_level == expected:
            self._expect_level = None
            return None
        if result.outcome == OUTCOME_CAPPED:
            # An external agent (thermal governor, power budget) clamped
            # the command.  That is not an actuator failure: retrying is
            # futile while the cap holds, and pinning would outlive it.
            # Hold what the environment allows and keep the plan armed —
            # the next decision point re-asserts the target (a free noop
            # while capped) and recovers the moment the cap lifts.
            self.health.caps_honored += 1
            self._count("caps_honored")
            self._expect_level = None
            return None
        if self._retries_left > 0:
            self._retries_left -= 1
            self.health.switch_retries += 1
            self._count("switch_retries")
            return expected
        # Retry budget exhausted at this decision point.
        self._expect_level = None
        self.health.switch_failures += 1
        self._count("switch_failures")
        return self._give_up(result.achieved_level)

    def _give_up(self, achieved: int) -> Optional[int]:
        """Degradation ladder after a failed decision point."""
        if self._active is None or self._fallen_back:
            return None
        # Pin the block that wanted the unreachable level at what we
        # actually got, so later batches don't fight the actuator.
        if self._current_op is not None and \
                self._current_op not in self._pinned:
            self._pinned[self._current_op] = achieved
        self.health.blocks_pinned += 1
        self._count("blocks_pinned")
        self._block_failures += 1
        if self._block_failures >= MAX_BLOCK_FAILURES:
            # Plan-level failure: abandon the plan, finish the job at a
            # safe static level (one final bounded attempt).
            self._fallen_back = True
            self._pending = {}
            self._pinned = {}
            self.health.plan_fallbacks += 1
            self._count("plan_fallbacks")
            return self._request(self._active.safe_level(), retries=0)
        return None

"""Adaptive preset governor: the closed self-healing loop.

:class:`~repro.governors.preset.PresetGovernor` executes plans computed
*offline*; when the workload drifts (batch size, input mix) the preset
levels silently stop being optimal and the
:class:`~repro.obs.ledger.EnergyLedger` flags block after block as
mispredicted — but nothing acts.  :class:`AdaptivePresetGovernor`
closes that loop **between inference jobs**:

1. **observe** — after each job the caller hands the governor the
   job's ledger (built with an evaluator so misprediction flags are
   populated) plus the count of new anomalies;
2. **synthesize** — every mispredicted block's level is nudged toward
   the ledger's exhaustive-sweep winner, *bounded* to
   :data:`MAX_NUDGE` levels either way per correction so one noisy
   observation can never teleport the plan;
3. **re-score** — the candidate is evaluated against the current plan
   with :meth:`~repro.hw.analytic.ProfileTable.plan_energy_time` at the
   observed batch size; it is adopted only when the predicted energy
   improves by at least :data:`MIN_IMPROVEMENT_FRAC` without exceeding
   the :data:`MAX_SLOWDOWN_FRAC` latency guard;
4. **hot-swap + verify** — an adopted correction replaces the plan for
   the *next* job (verify-after-swap): if that job's measured EE
   regresses by more than :data:`REGRESSION_TOLERANCE` relative to the
   pre-swap job, the governor rolls back to the last-good plan and
   freezes replanning for :data:`COOLDOWN_JOBS` jobs.  Anything worse —
   failing actuators mid-job — is still handled by the inherited
   retry→pin→safe-level degradation ladder.

Every decision is counted in :class:`ReplanHealth`, mirrored to
``powerlens_replan_*_total`` metrics and recorded as ``replan`` spans.

Determinism: the loop is pure arithmetic over the ledger and the
analytic table — no RNG, no clock.  On a fault-free run of plans that
are already sweep-optimal at the observed batch size nothing ever
triggers, so the adaptive governor issues byte-identical DVFS commands
to the static :class:`PresetGovernor` (property-tested).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.governors.preset import FrequencyPlan, PlanStep, PresetGovernor
from repro.hw.analytic import AnalyticEvaluator
from repro.obs import Observability, NULL_OBS

__all__ = ["ReplanHealth", "AdaptivePresetGovernor"]

#: Per-block correction bound (levels per adopted correction).
MAX_NUDGE = 2
#: Minimum predicted relative energy improvement for adoption.  Measured
#: over the *whole plan*, so a per-block saving is diluted by the
#: untouched blocks — hence deliberately small.
MIN_IMPROVEMENT_FRAC = 0.001
#: Maximum predicted relative time increase a correction may cost.
MAX_SLOWDOWN_FRAC = 0.25
#: Measured-EE slack of the verify job before rolling back.
REGRESSION_TOLERANCE = 0.02
#: Jobs replanning stays frozen after a rollback or rejection.
COOLDOWN_JOBS = 2


@dataclass
class ReplanHealth:
    """Counters for every replanning decision (cumulative across jobs —
    unlike :class:`~repro.governors.preset.RuntimeHealth`, this is not
    reset per run)."""

    #: Candidate corrections synthesized from ledger feedback.
    proposed: int = 0
    #: Corrections that beat the re-scoring gate and were hot-swapped.
    adopted: int = 0
    #: Corrections rejected by the energy/latency re-scoring gate.
    rejected: int = 0
    #: Adopted corrections whose verify job confirmed the improvement.
    confirmed: int = 0
    #: Adopted corrections rolled back after a measured EE regression.
    rollbacks: int = 0
    #: Observations skipped inside a post-rollback/reject cooldown.
    frozen_skips: int = 0
    #: Individual block levels changed across all adopted corrections.
    nudged_blocks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)

    def report(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.to_dict().items())


@dataclass
class _Trial:
    """One hot-swapped correction awaiting its verify job."""

    previous: FrequencyPlan          # last-good plan to roll back to
    baseline_ee: float               # measured EE of the pre-swap job
    batch_size: int                  # batch the baseline was measured at
    sparsity: float = 0.0            # sparsity of the baseline job


class AdaptivePresetGovernor(PresetGovernor):
    """Self-healing preset runtime (see module docstring).

    Parameters
    ----------
    evaluator:
        Analytic oracle used to re-score candidate corrections.  Must
        model the same platform the governor runs on.
    obs:
        Observability bundle; counters land in ``obs.metrics`` (also
        wired into the inherited runtime counters) and decisions are
        recorded as ``replan`` spans on ``obs.tracer``.
    """

    name = "powerlens-adaptive"

    def __init__(self, plans: Sequence[FrequencyPlan],
                 evaluator: AnalyticEvaluator,
                 latency_slack: float = 0.25,
                 obs: Optional[Observability] = None,
                 name: str = "powerlens-adaptive",
                 **preset_kwargs: object) -> None:
        obs = obs if obs is not None else NULL_OBS
        super().__init__(plans, name=name, metrics=obs.metrics,
                         **preset_kwargs)  # type: ignore[arg-type]
        self.evaluator = evaluator
        self.latency_slack = latency_slack
        self.obs = obs
        self.replan_health = ReplanHealth()
        self._trial: Dict[str, _Trial] = {}
        self._freeze: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _replan_count(self, event: str, n: int = 1) -> None:
        self.obs.metrics.counter(
            f"powerlens_replan_{event}_total").inc(n)

    def _replan_span(self, action: str, graph_name: str,
                     **attrs: object) -> None:
        self.obs.tracer.record("replan", 0.0, action=action,
                               graph=graph_name, **attrs)

    # ------------------------------------------------------------------
    # the between-jobs feedback entry point
    # ------------------------------------------------------------------
    def observe_job(self, graph, batch_size: int, ledger,
                    new_anomalies: int = 0,
                    sparsity: float = 0.0) -> str:
        """Feed one finished job's ledger back into the planner.

        ``ledger`` must be an :class:`~repro.obs.ledger.EnergyLedger`
        built from the job's trace **with this governor's plan and an
        evaluator attached** (so misprediction flags are populated) —
        and, for sparse jobs, with the job's ``sparsity`` so the sweep
        ran against the workload actually executed.  Returns the action
        taken: ``"frozen"``, ``"rollback"``, ``"none"``, ``"reject"``
        or ``"adopt"``.
        """
        name = graph.name
        if self._freeze.get(name, 0) > 0:
            self._freeze[name] -= 1
            self.replan_health.frozen_skips += 1
            self._replan_count("frozen_skips")
            return "frozen"

        measured_ee: Optional[float] = None
        if ledger.images > 0 and ledger.total_energy_j > 0:
            measured_ee = ledger.images / ledger.total_energy_j

        # -- verify-after-swap: judge the pending trial, if any ---------
        trial = self._trial.pop(name, None)
        if trial is not None and measured_ee is not None \
                and trial.batch_size == int(batch_size) \
                and trial.sparsity == float(sparsity):
            floor = trial.baseline_ee * (1.0 - REGRESSION_TOLERANCE)
            if measured_ee < floor:
                self.add_plan(trial.previous)
                self._freeze[name] = COOLDOWN_JOBS
                self.replan_health.rollbacks += 1
                self._replan_count("rollbacks")
                self._replan_span("rollback", name,
                                  measured_ee=measured_ee,
                                  baseline_ee=trial.baseline_ee)
                return "rollback"
            self.replan_health.confirmed += 1
            self._replan_count("confirmed")
            self._replan_span("confirm", name, measured_ee=measured_ee,
                              baseline_ee=trial.baseline_ee)
        # (a trial whose verify job ran at a different batch size is
        # inconclusive: keep the correction, drop the trial)

        # -- trigger: does this job's evidence warrant a correction? ----
        mispredicted = ledger.mispredicted_blocks()
        if not mispredicted and new_anomalies <= 0 \
                and not self.health.degraded:
            return "none"
        plan = self._plans.get(name)
        if plan is None or measured_ee is None:
            return "none"

        candidate = self._synthesize(plan, ledger)
        if candidate is None:
            return "none"
        self.replan_health.proposed += 1
        self._replan_count("proposed")

        verdict = self._rescore(graph, batch_size, plan, candidate,
                                sparsity)
        if not verdict:
            self._freeze[name] = COOLDOWN_JOBS
            self.replan_health.rejected += 1
            self._replan_count("rejected")
            self._replan_span("reject", name)
            return "reject"

        n_changed = sum(1 for a, b in zip(plan.steps, candidate.steps)
                        if a.level != b.level)
        self._trial[name] = _Trial(previous=plan,
                                   baseline_ee=measured_ee,
                                   batch_size=int(batch_size),
                                   sparsity=float(sparsity))
        self.add_plan(candidate)
        self.replan_health.adopted += 1
        self.replan_health.nudged_blocks += n_changed
        self._replan_count("adopted")
        self._replan_count("nudged_blocks", n_changed)
        self._replan_span("adopt", name, nudged_blocks=n_changed)
        return "adopt"

    # ------------------------------------------------------------------
    # correction synthesis / re-scoring
    # ------------------------------------------------------------------
    def _synthesize(self, plan: FrequencyPlan,
                    ledger) -> Optional[FrequencyPlan]:
        """Bounded correction: nudge each mispredicted block's level at
        most :data:`MAX_NUDGE` steps toward the ledger's sweep winner."""
        targets: Dict[int, int] = {
            row.op_start: row.best_level
            for row in ledger.mispredicted_blocks()
            if row.best_level is not None
        }
        if not targets:
            return None
        steps: List[PlanStep] = []
        changed = False
        for step in plan.steps:
            target = targets.get(step.op_index)
            if target is None or target == step.level:
                steps.append(step)
                continue
            delta = max(-MAX_NUDGE, min(MAX_NUDGE, target - step.level))
            steps.append(PlanStep(step.op_index, step.level + delta))
            changed = True
        if not changed:
            return None
        return FrequencyPlan(graph_name=plan.graph_name, steps=steps,
                             graph_fingerprint=plan.graph_fingerprint)

    def _rescore(self, graph, batch_size: int, plan: FrequencyPlan,
                 candidate: FrequencyPlan,
                 sparsity: float = 0.0) -> bool:
        """Analytic gate: the candidate must beat the current plan on
        energy without blowing the latency guard."""
        table = self.evaluator.profile_table(graph, int(batch_size),
                                             float(sparsity))
        spans = plan.spans(table.n_ops)
        clamp = table.n_levels - 1
        cur = [min(max(s.level, 0), clamp) for s in plan.steps]
        new = [min(max(s.level, 0), clamp) for s in candidate.steps]
        e_cur, t_cur = table.plan_energy_time(spans, cur)
        e_new, t_new = table.plan_energy_time(spans, new)
        if e_cur <= 0:
            return False
        improves = e_new <= e_cur * (1.0 - MIN_IMPROVEMENT_FRAC)
        fits = t_new <= t_cur * (1.0 + MAX_SLOWDOWN_FRAC)
        return improves and fits

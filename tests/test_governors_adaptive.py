"""AdaptivePresetGovernor: the closed replanning loop, unit-level.

The contract under test (see ``repro.governors.adaptive``):

* **zero-drift byte-identity** — on plans that are already
  sweep-optimal at the observed batch size, the adaptive governor
  issues exactly the commands the static :class:`PresetGovernor`
  would (property-tested over seeds and batch sizes);
* **bounded corrections** — a synthesized correction never moves any
  block more than ``max_nudge`` levels, and untouched blocks keep
  their levels bit-for-bit;
* **adopt / converge** — a stale plan under batch drift is corrected
  within one observation and the next job's ledger stops flagging;
* **rollback + freeze** — a verify job measuring a regression restores
  the last-good plan and freezes replanning for ``cooldown_jobs``;
* **counters** — ``ReplanHealth`` and the ``powerlens_replan_*_total``
  metrics mirror each other exactly.

Also here: the plan-validation verdict cache of the base
:class:`PresetGovernor` (fingerprint-keyed, FIFO-bounded).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.adaptive import build_drift_net
from repro.governors import (AdaptivePresetGovernor, PresetGovernor,
                             analytic_plan)
from repro.governors.adaptive import _Trial
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.obs import Observability, NULL_TRACER
from repro.obs.ledger import EnergyLedger
from repro.obs.metrics import MetricsRegistry
from tests.conftest import build_small_cnn

PLATFORM = get_platform("tx2")
EVALUATOR = AnalyticEvaluator(PLATFORM)
BUILD_BATCH = 16
DRIFT_BATCH = 1
BLOCK_SIZE = 4


def _drift_graph():
    return build_drift_net()


def _plan(graph, batch):
    return analytic_plan(EVALUATOR, graph, batch, block_size=BLOCK_SIZE)


def _adaptive(graph, batch=BUILD_BATCH, **kwargs):
    obs = Observability(tracer=NULL_TRACER, metrics=MetricsRegistry())
    kwargs.setdefault("obs", obs)
    return AdaptivePresetGovernor([_plan(graph, batch)], EVALUATOR,
                                  resilient=True, **kwargs)


def _run_job(gov, graph, batch, seed=0):
    """One job through the simulator; returns (signature, ledger)."""
    plan = gov.plan_for(graph.name) \
        if isinstance(gov, PresetGovernor) else None
    job = InferenceJob(graph=graph, batch_size=batch, n_batches=1,
                      name=f"{graph.name}_j")
    sim = InferenceSimulator(PLATFORM, seed=seed, keep_trace=True,
                             keep_samples=False)
    result = sim.run([job], gov)
    ledger = EnergyLedger.from_result(result, plan=plan, graph=graph,
                                      evaluator=EVALUATOR,
                                      batch_size=batch)
    sig = (result.trace.total_energy, result.report.total_time,
           result.switch_count)
    return sig, ledger


# ----------------------------------------------------------------------
# zero-drift byte-identity
# ----------------------------------------------------------------------
class TestZeroDriftIdentity:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31), batch=st.sampled_from([4, 16]))
    def test_identical_to_static_on_optimal_plans(self, seed, batch):
        graph = _drift_graph()
        static = PresetGovernor([_plan(graph, batch)], resilient=True)
        adaptive = _adaptive(graph, batch)
        for j in range(3):
            sig_s, _ = _run_job(static, graph, batch, seed=seed + j)
            sig_a, ledger = _run_job(adaptive, graph, batch,
                                     seed=seed + j)
            assert sig_a == sig_s
            assert adaptive.observe_job(graph, batch, ledger) == "none"
        assert not adaptive.replan_health.active
        assert adaptive.replan_health.proposed == 0


# ----------------------------------------------------------------------
# bounded corrections
# ----------------------------------------------------------------------
class TestBoundedCorrections:
    @pytest.mark.parametrize("max_nudge", [1, 2])
    def test_nudges_bounded_and_targeted(self, max_nudge):
        graph = _drift_graph()
        gov = _adaptive(graph, max_nudge=max_nudge)
        stale = gov.plan_for(graph.name)
        _, ledger = _run_job(gov, graph, DRIFT_BATCH)
        assert ledger.mispredicted_blocks()
        candidate = gov._synthesize(stale, ledger)
        assert candidate is not None
        flagged = {row.op_start for row in ledger.mispredicted_blocks()}
        for old, new in zip(stale.steps, candidate.steps):
            assert old.op_index == new.op_index
            assert abs(new.level - old.level) <= max_nudge
            if old.op_index not in flagged:
                assert new.level == old.level

    def test_synthesize_none_without_flags(self):
        graph = _drift_graph()
        gov = _adaptive(graph)
        _, ledger = _run_job(gov, graph, BUILD_BATCH)
        assert not ledger.mispredicted_blocks()
        assert gov._synthesize(gov.plan_for(graph.name), ledger) is None


# ----------------------------------------------------------------------
# adopt / converge under drift
# ----------------------------------------------------------------------
class TestAdoption:
    def test_drift_adopts_then_converges(self):
        graph = _drift_graph()
        gov = _adaptive(graph)
        stale = gov.plan_for(graph.name)
        _, ledger = _run_job(gov, graph, DRIFT_BATCH)
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "adopt"
        adopted = gov.plan_for(graph.name)
        assert adopted is not stale
        assert gov.replan_health.adopted == 1
        assert gov.replan_health.nudged_blocks >= 1
        # the verify job runs on the corrected plan: the flags must be
        # gone and the trial confirmed
        _, ledger2 = _run_job(gov, graph, DRIFT_BATCH)
        assert gov.observe_job(graph, DRIFT_BATCH, ledger2) == "none"
        assert gov.replan_health.confirmed == 1
        assert gov.plan_for(graph.name) is adopted

    def test_adopted_correction_improves_measured_ee(self):
        graph = _drift_graph()
        static = PresetGovernor([_plan(graph, BUILD_BATCH)],
                                resilient=True)
        gov = _adaptive(graph)
        _, ledger = _run_job(gov, graph, DRIFT_BATCH)
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "adopt"
        (e_adaptive, _, _), _ = _run_job(gov, graph, DRIFT_BATCH,
                                         seed=1)
        _run_job(static, graph, DRIFT_BATCH)  # same job sequence
        (e_static, _, _), _ = _run_job(static, graph, DRIFT_BATCH,
                                       seed=1)
        assert e_adaptive < e_static

    def test_reject_freezes_replanning(self):
        graph = _drift_graph()
        gov = _adaptive(graph, min_improvement_frac=0.9,
                        cooldown_jobs=2)
        _, ledger = _run_job(gov, graph, DRIFT_BATCH)
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "reject"
        assert gov.replan_health.rejected == 1
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "frozen"
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "frozen"
        assert gov.replan_health.frozen_skips == 2
        # cooldown over: the (still mispredicted) ledger re-triggers
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "reject"


# ----------------------------------------------------------------------
# rollback
# ----------------------------------------------------------------------
class TestRollback:
    def test_regressing_trial_rolls_back_and_freezes(self):
        graph = _drift_graph()
        gov = _adaptive(graph, cooldown_jobs=1)
        last_good = gov.plan_for(graph.name)
        _, ledger = _run_job(gov, graph, DRIFT_BATCH)
        # pretend the pre-swap job measured an absurdly good EE, so the
        # real verify measurement reads as a regression
        gov._trial[graph.name] = _Trial(previous=last_good,
                                        baseline_ee=1e9,
                                        batch_size=DRIFT_BATCH)
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "rollback"
        assert gov.plan_for(graph.name) is last_good
        assert gov.replan_health.rollbacks == 1
        assert gov.observe_job(graph, DRIFT_BATCH, ledger) == "frozen"

    def test_batch_mismatch_trial_is_inconclusive(self):
        graph = _drift_graph()
        gov = _adaptive(graph)
        last_good = gov.plan_for(graph.name)
        _, ledger = _run_job(gov, graph, BUILD_BATCH)
        gov._trial[graph.name] = _Trial(previous=last_good,
                                        baseline_ee=1e9,
                                        batch_size=DRIFT_BATCH)
        # verify job ran at a different batch: neither rollback nor
        # confirm, trial dropped
        gov.observe_job(graph, BUILD_BATCH, ledger)
        assert gov.replan_health.rollbacks == 0
        assert gov.replan_health.confirmed == 0
        assert graph.name not in gov._trial


# ----------------------------------------------------------------------
# counters / metrics
# ----------------------------------------------------------------------
class TestReplanCounters:
    def test_metrics_mirror_replan_health(self):
        graph = _drift_graph()
        obs = Observability(tracer=NULL_TRACER,
                            metrics=MetricsRegistry())
        gov = AdaptivePresetGovernor([_plan(graph, BUILD_BATCH)],
                                     EVALUATOR, obs=obs,
                                     resilient=True)
        for j in range(4):
            _, ledger = _run_job(gov, graph, DRIFT_BATCH, seed=j)
            gov.observe_job(graph, DRIFT_BATCH, ledger)
        health = gov.replan_health
        assert health.adopted >= 1
        for event, count in health.to_dict().items():
            metric = obs.metrics.counter(
                f"powerlens_replan_{event}_total")
            assert metric.value == count

    def test_invalid_params_rejected(self):
        graph = _drift_graph()
        plans = [_plan(graph, BUILD_BATCH)]
        with pytest.raises(ValueError):
            AdaptivePresetGovernor(plans, EVALUATOR, max_nudge=0)
        with pytest.raises(ValueError):
            AdaptivePresetGovernor(plans, EVALUATOR,
                                   min_improvement_frac=1.0)
        with pytest.raises(ValueError):
            AdaptivePresetGovernor(plans, EVALUATOR, cooldown_jobs=-1)


# ----------------------------------------------------------------------
# plan-validation verdict cache (PresetGovernor satellite)
# ----------------------------------------------------------------------
class TestValidationCache:
    def test_repeated_jobs_hit_cached_verdict(self):
        graph = build_small_cnn()
        plan = _plan(graph, 8)
        gov = PresetGovernor([plan], resilient=True)
        sim = InferenceSimulator(PLATFORM, seed=0)
        job = InferenceJob(graph=graph, batch_size=8, n_batches=3,
                          name="cachejob")
        sim.run([job], gov)
        key = (plan.fingerprint(), graph.fingerprint())
        assert gov._validation_cache == {key: True}

    def test_rejection_verdict_cached_and_counted_once(self):
        graph = build_small_cnn()
        wrong = _plan(graph, 8)
        bad = type(wrong)(graph_name=graph.name, steps=wrong.steps,
                          graph_fingerprint="deadbeef")
        gov = PresetGovernor([bad], resilient=True)
        sim = InferenceSimulator(PLATFORM, seed=0)
        job = InferenceJob(graph=graph, batch_size=8, n_batches=2,
                          name="badjob")
        sim.run([job], gov)
        key = (bad.fingerprint(), graph.fingerprint())
        assert gov._validation_cache[key] is False
        assert gov.health.plans_rejected == 1

    def test_cache_is_fifo_bounded(self):
        graphs = [build_small_cnn(f"cnn_bound_{i}") for i in range(6)]
        plans = [_plan(g, 8) for g in graphs]
        gov = PresetGovernor(plans, resilient=True)
        gov.reset(PLATFORM)
        gov._VALIDATION_CACHE_SIZE = 4
        for g in graphs:
            job = InferenceJob(graph=g, batch_size=8, n_batches=1,
                              name=f"{g.name}_j")
            assert gov._validated_plan(job) is not None
        assert len(gov._validation_cache) == 4
        # the two oldest verdicts were evicted (FIFO)
        evicted = {(plans[i].fingerprint(), graphs[i].fingerprint())
                   for i in range(2)}
        assert not evicted & set(gov._validation_cache)

    def test_plan_fingerprint_stable_and_distinct(self):
        graph = build_small_cnn()
        p1 = _plan(graph, 8)
        p2 = _plan(graph, 8)
        assert p1.fingerprint() == p2.fingerprint()
        p3 = _plan(graph, 16)
        if [s.level for s in p3.steps] != [s.level for s in p1.steps]:
            assert p3.fingerprint() != p1.fingerprint()

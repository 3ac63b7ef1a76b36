"""Resilient :class:`PresetGovernor`: plan validation at install and
job start, the bisect ``level_for_op``, verify-after-switch with
bounded retry, the degradation ladder (pin → safe-level fallback),
external-cap handling and the naive fire-and-forget baseline."""

import pytest

import repro.governors.preset as preset
from repro.governors import (
    FrequencyPlan,
    PlanStep,
    PresetGovernor,
    RuntimeHealth,
)
from repro.hw import InferenceJob, InferenceSimulator
from repro.hw.dvfs import SwitchResult
from repro.hw.faults import (
    OUTCOME_APPLIED,
    OUTCOME_CAPPED,
    OUTCOME_DROPPED,
    CapWindow,
    FaultProfile,
)
from repro.hw.telemetry import KIND_GPU_OP
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.faults


def _result(achieved, requested, outcome=OUTCOME_DROPPED, t=0.0):
    return SwitchResult(t=t, requested_level=requested,
                        achieved_level=achieved, outcome=outcome)


def _governor_on(platform, graph, level=3, **kwargs):
    plan = FrequencyPlan(graph_name=graph.name,
                         steps=[PlanStep(0, level)])
    gov = PresetGovernor([plan], **kwargs)
    gov.reset(platform)
    gov.on_job_start(0, InferenceJob(graph=graph))
    return gov


class TestLevelForOpBisect:
    def test_matches_linear_scan_reference(self):
        plan = FrequencyPlan(graph_name="g", steps=[
            PlanStep(0, 2), PlanStep(3, 9), PlanStep(4, 1),
            PlanStep(17, 6), PlanStep(40, 0)])

        def reference(op_index):
            level = plan.steps[0].level
            for step in plan.steps:
                if step.op_index <= op_index:
                    level = step.level
            return level

        for op in range(60):
            assert plan.level_for_op(op) == reference(op), op


class TestPlanValidation:
    def test_install_clamps_to_platform_ladder(self, tiny_platform,
                                               small_cnn):
        gov = _governor_on(tiny_platform, small_cnn, level=99)
        assert gov.health.levels_clamped == 1
        assert gov.on_op_start(0, 0, None) == tiny_platform.max_level

    def test_add_plan_after_reset_is_clamped(self, tiny_platform):
        gov = PresetGovernor([FrequencyPlan("a", [PlanStep(0, 1)])])
        gov.reset(tiny_platform)
        gov.add_plan(FrequencyPlan("b", [PlanStep(0, 42)]))
        assert gov.health.levels_clamped == 1

    def test_clamps_counted_every_run_from_one_memo(self, tiny_platform,
                                                    tx2, monkeypatch):
        """Each reset counts the plan's clamped levels again, in health
        and in the metric, while the plan is clamped once per ladder."""
        plan = FrequencyPlan("a", [PlanStep(0, 1), PlanStep(3, 7),
                                   PlanStep(5, 99)])
        metrics = MetricsRegistry()
        gov = PresetGovernor([plan], metrics=metrics)
        calls = []
        clamp_level = type(tiny_platform).clamp_level
        monkeypatch.setattr(type(tiny_platform), "clamp_level",
                            lambda p, level: calls.append(level)
                            or clamp_level(p, level))
        installed = []
        for _run in range(3):
            gov.reset(tiny_platform)
            assert gov.health.levels_clamped == 2
            installed.append(gov._installed["a"])
        assert installed[0] is installed[1] is installed[2]
        assert [s.level for s in installed[0].steps] == [1, 4, 4]
        assert len(calls) == 3
        gov.reset(tx2)
        assert gov.health.levels_clamped == 1
        assert gov._installed["a"].steps[1].level == 7
        assert metrics.counter(
            "powerlens_runtime_levels_clamped_total").value == 7

    def test_rejects_plan_past_graph_end(self, tiny_platform, small_cnn):
        n_ops = len(small_cnn.compute_nodes())
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 1),
                                    PlanStep(n_ops + 5, 2)])
        gov = PresetGovernor([plan])
        gov.reset(tiny_platform)
        job = InferenceJob(graph=small_cnn)
        # Rejected plans fall back to the default level and are counted
        # once per graph, not once per job.
        assert gov.on_job_start(0, job) == tiny_platform.max_level
        gov.on_job_start(1, job)
        assert gov.health.plans_rejected == 1
        assert gov.on_op_start(0, 0, None) is None

    def test_rejects_fingerprint_mismatch(self, tiny_platform,
                                          small_cnn):
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 1)],
                             graph_fingerprint="not-this-graph")
        gov = PresetGovernor([plan])
        gov.reset(tiny_platform)
        gov.on_job_start(0, InferenceJob(graph=small_cnn))
        assert gov.health.plans_rejected == 1

    def test_accepts_matching_fingerprint(self, tiny_platform,
                                          small_cnn):
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 2)],
                             graph_fingerprint=small_cnn.fingerprint())
        gov = PresetGovernor([plan])
        gov.reset(tiny_platform)
        gov.on_job_start(0, InferenceJob(graph=small_cnn))
        assert gov.health.plans_rejected == 0
        assert gov.on_op_start(0, 0, None) == 2


class TestDegradationLadder:
    def test_retry_then_pin(self, tiny_platform, small_cnn, monkeypatch):
        monkeypatch.setattr(preset, "MAX_RETRIES", 2)
        gov = _governor_on(tiny_platform, small_cnn, level=3)
        assert gov.on_op_start(0, 0, None) == 3
        # Two dropped commands are retried at the same decision point.
        assert gov.on_switch_result(_result(1, 3)) == 3
        assert gov.on_switch_result(_result(1, 3)) == 3
        assert gov.health.switch_retries == 2
        # The third failure exhausts the budget: pin at what we got.
        assert gov.on_switch_result(_result(1, 3)) is None
        assert gov.health.switch_failures == 1
        assert gov.health.blocks_pinned == 1
        # Later batches hold the pinned level instead of re-fighting.
        assert gov.on_op_start(0, 0, None) == 1

    def test_fallback_to_safe_level(self, tiny_platform, small_cnn,
                                    monkeypatch):
        monkeypatch.setattr(preset, "MAX_RETRIES", 0)
        monkeypatch.setattr(preset, "MAX_BLOCK_FAILURES", 2)
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 1), PlanStep(1, 4),
                                    PlanStep(2, 2)])
        gov = PresetGovernor([plan])
        gov.reset(tiny_platform)
        gov.on_job_start(0, InferenceJob(graph=small_cnn))
        gov.on_op_start(0, 0, None)
        assert gov.on_switch_result(_result(0, 1)) is None  # pin #1
        gov.on_op_start(0, 1, None)
        # Second pinned block abandons the plan: the governor answers
        # with the safe static level (plan median) as a final attempt.
        assert gov.on_switch_result(_result(0, 4)) == plan.safe_level()
        assert gov.health.plan_fallbacks == 1
        assert gov.health.degraded
        # The rest of the job stays static.
        assert gov.on_op_start(0, 2, None) is None
        # The next job starts with a clean slate.
        gov.on_job_start(1, InferenceJob(graph=small_cnn))
        assert gov.on_op_start(1, 0, None) == 1

    def test_clean_switch_disarms(self, tiny_platform, small_cnn):
        gov = _governor_on(tiny_platform, small_cnn, level=3)
        gov.on_op_start(0, 0, None)
        assert gov.on_switch_result(
            _result(3, 3, OUTCOME_APPLIED)) is None
        assert not gov.health.degraded
        assert gov.health.switch_retries == 0

    def test_capped_command_is_honored_not_fought(self, tiny_platform,
                                                  small_cnn):
        """External caps are environmental: no retries, no pin — the
        plan stays armed and re-asserts at the next decision point."""
        gov = _governor_on(tiny_platform, small_cnn, level=3)
        gov.on_op_start(0, 0, None)
        assert gov.on_switch_result(
            _result(0, 3, OUTCOME_CAPPED)) is None
        assert gov.health.caps_honored == 1
        assert gov.health.switch_retries == 0
        assert gov.health.blocks_pinned == 0
        # Next batch: the original target is requested again.
        assert gov.on_op_start(0, 0, None) == 3

    def test_unsolicited_switch_is_ignored(self, tiny_platform,
                                           small_cnn):
        gov = _governor_on(tiny_platform, small_cnn, level=3)
        # No request armed (e.g. thermal enforcement): nothing to verify.
        assert gov.on_switch_result(_result(1, 1, OUTCOME_CAPPED)) is None
        assert gov.health.caps_honored == 0


class TestNaiveRuntime:
    def test_skips_redundant_writes_and_never_verifies(
            self, tiny_platform, small_cnn):
        gov = _governor_on(tiny_platform, small_cnn, level=3,
                           resilient=False)
        assert gov.on_op_start(0, 0, None) == 3
        # It now *believes* level 3 is in force and never re-issues —
        # even though the command may have been silently dropped.
        assert gov.on_op_start(0, 0, None) is None
        gov.on_job_start(1, InferenceJob(graph=small_cnn))
        assert gov.on_op_start(1, 0, None) is None
        assert gov.on_switch_result(_result(0, 3)) is None
        assert not gov.health.degraded

    def test_matches_resilient_when_fault_free(self, tiny_platform,
                                               small_cnn):
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 2), PlanStep(3, 4)])
        job = InferenceJob(graph=small_cnn, n_batches=3)
        results = {}
        for resilient in (True, False):
            gov = PresetGovernor([plan], resilient=resilient)
            sim = InferenceSimulator(tiny_platform)
            results[resilient] = sim.run([job, job], gov)
        assert results[True].report.total_energy == \
            results[False].report.total_energy
        assert results[True].switch_count == results[False].switch_count


class TestEndToEndUnderFaults:
    def test_total_drop_degrades_but_completes(self, tiny_platform,
                                               small_cnn):
        """At a 100 % drop rate nothing ever lands: the run must still
        finish, with the ladder fully exercised and counted."""
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 1)])
        gov = PresetGovernor([plan])
        sim = InferenceSimulator(
            tiny_platform, faults=FaultProfile(switch_drop_rate=1.0))
        result = sim.run([InferenceJob(graph=small_cnn, n_batches=2)],
                         gov)
        assert result.report.total_energy > 0
        assert gov.health.switch_retries > 0
        assert gov.health.blocks_pinned > 0
        assert result.fault_stats.switches_dropped > 0

    def test_cap_window_recovery(self, tiny_platform, small_cnn):
        """A cap spanning the first half of the run truncates the plan's
        requests; the resilient runtime honors it (no retries, no pins)
        and re-asserts its way back once the window has passed."""
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 1)])
        job = InferenceJob(graph=small_cnn, n_batches=4)
        baseline = InferenceSimulator(tiny_platform).run(
            [job], PresetGovernor([plan]))
        profile = FaultProfile(cap_windows=(
            CapWindow(0.0, baseline.report.total_time / 2, 0),))
        gov = PresetGovernor([plan])
        sim = InferenceSimulator(tiny_platform, faults=profile)
        result = sim.run([job], gov)
        assert gov.health.caps_honored >= 1
        assert gov.health.blocks_pinned == 0
        assert gov.health.switch_retries == 0
        # The plan level is back in force by the end of the run.
        gpu_ops = [s for s in result.trace.segments
                   if s.kind == KIND_GPU_OP]
        assert gpu_ops[0].gpu_level == 0
        assert gpu_ops[-1].gpu_level == 1


class TestRuntimeHealth:
    def test_to_dict_and_degraded(self):
        health = RuntimeHealth()
        assert not health.degraded
        assert set(health.to_dict()) == {
            "switch_retries", "switch_failures", "blocks_pinned",
            "plans_rejected", "plan_fallbacks", "levels_clamped",
            "caps_honored"}
        health.plan_fallbacks = 1
        assert health.degraded
        # Retries and honored caps alone are routine, not degradation.
        assert not RuntimeHealth(switch_retries=5, caps_honored=2).degraded

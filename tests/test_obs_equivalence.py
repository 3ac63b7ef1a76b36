"""Observability no-op equivalence: attaching an *enabled* tracer and
metrics registry must not perturb any instrumented computation — the
datasets, trained models, governor decisions, simulator traces and CLI
tables must be byte-identical with observability on and off.  This is
the property (mirroring ``tests/test_zero_fault_equivalence.py`` for the
fault layer) that lets the instrumentation ship inside the production
path instead of behind a fork."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.datasets import DatasetGenerator
from repro.core.labeling import label_network
from repro.core.overhead import StageTimer
from repro.governors import FrequencyPlan, OndemandGovernor, PlanStep, \
    PresetGovernor
from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
from repro.models.random_gen import RandomDNNConfig
from repro.obs import Observability, Tracer

from tests.conftest import build_small_cnn

pytestmark = pytest.mark.obs

_TINY_DNNS = RandomDNNConfig(min_stages=1, max_stages=2,
                             max_blocks_per_stage=2)


def _obs() -> Observability:
    return Observability.enabled_bundle()


class TestDatasetEquivalence:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_generated_datasets_byte_identical(self, seed):
        platform = jetson_tx2()
        base_gen = DatasetGenerator(platform, dnn_config=_TINY_DNNS)
        obs = _obs()
        obs_gen = DatasetGenerator(platform, dnn_config=_TINY_DNNS,
                                   obs=obs)
        a0, b0, s0 = base_gen.generate(3, seed=seed)
        a1, b1, s1 = obs_gen.generate(3, seed=seed)
        for x, y in ((a0.x_struct, a1.x_struct), (a0.x_stats, a1.x_stats),
                     (a0.y, a1.y), (a0.qualities, a1.qualities),
                     (b0.x, b1.x), (b0.y, b1.y)):
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()
        assert s0.n_blocks == s1.n_blocks
        # ...and the observed run actually observed something.
        assert obs.metrics.counter(
            "powerlens_networks_labeled_total").value == 3
        names = {s.name for s in obs.tracer.spans}
        assert {"generate", "label_network", "distance", "cluster",
                "evaluate"} <= names

    def test_label_network_identical_with_tracer(self, tx2):
        from repro.core.features import DepthwiseFeatureExtractor
        from repro.core.schemes import default_scheme_grid
        from repro.hw.analytic import AnalyticEvaluator
        graph = build_small_cnn()
        evaluator = AnalyticEvaluator(tx2)
        feats = DepthwiseFeatureExtractor().extract_scaled(graph)
        schemes = default_scheme_grid()
        base = label_network(evaluator, graph, feats, schemes)
        traced = label_network(evaluator, graph, feats, schemes,
                               tracer=Tracer())
        assert traced.best_scheme == base.best_scheme
        assert traced.blocks == base.blocks
        assert traced.levels == base.levels
        assert traced.qualities == base.qualities
        # Span-derived stage timings cover the same stages either way.
        assert set(base.stage_seconds) == set(traced.stage_seconds) == \
            {"distance", "cluster", "evaluate"}


def _run(platform, governor, obs):
    graph = build_small_cnn()
    jobs = [InferenceJob(graph=graph, n_batches=2),
            InferenceJob(graph=graph, n_batches=1)]
    return InferenceSimulator(platform, obs=obs).run(jobs, governor)


def _assert_runs_identical(base, other):
    assert other.report == base.report
    assert other.trace.segments == base.trace.segments
    assert other.samples == base.samples
    assert other.switch_count == base.switch_count


class TestRuntimeEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(levels=st.lists(st.integers(min_value=0, max_value=12),
                           min_size=2, max_size=2, unique=True))
    def test_preset_runtime_identical_under_obs(self, levels):
        platform = jetson_tx2()
        plan = FrequencyPlan(graph_name="small_cnn",
                             steps=[PlanStep(0, levels[0]),
                                    PlanStep(4, levels[1])])
        obs = _obs()
        base = _run(platform, PresetGovernor([plan]), obs=None)
        observed = _run(platform,
                        PresetGovernor([plan], metrics=obs.metrics),
                        obs=obs)
        _assert_runs_identical(base, observed)
        assert obs.metrics.counter(
            "powerlens_dvfs_switches_total").value == observed.switch_count
        hist = obs.metrics.get("powerlens_dvfs_switch_stall_seconds")
        assert hist.count == observed.switch_count

    def test_reactive_governor_identical_under_obs(self):
        platform = jetson_tx2()
        obs = _obs()
        base = _run(platform, OndemandGovernor(), obs=None)
        observed = _run(platform, OndemandGovernor(), obs=obs)
        _assert_runs_identical(base, observed)
        assert obs.metrics.counter(
            "powerlens_telemetry_samples_total").value == \
            len(observed.samples)

    def test_governor_metrics_mirror_health_under_faults(self):
        """Injected switch failures: the runtime counters must track
        RuntimeHealth exactly, and the run itself must not depend on the
        registry being attached."""
        from repro.hw.faults import FaultProfile
        platform = jetson_tx2()
        profile = FaultProfile(switch_drop_rate=0.5, seed=11)
        plan = FrequencyPlan(graph_name="small_cnn",
                             steps=[PlanStep(0, 2), PlanStep(4, 9)])

        def run(metrics):
            governor = PresetGovernor([plan], metrics=metrics)
            graph = build_small_cnn()
            jobs = [InferenceJob(graph=graph, n_batches=3)]
            sim = InferenceSimulator(platform, faults=profile)
            return sim.run(jobs, governor), governor

        base, _ = run(None)
        obs = _obs()
        observed, governor = run(obs.metrics)
        _assert_runs_identical(base, observed)
        health = governor.health
        assert health.switch_retries > 0  # the profile actually bit
        for event in ("switch_retries", "switch_failures",
                      "blocks_pinned", "plan_fallbacks"):
            counted = obs.metrics.counter(
                f"powerlens_runtime_{event}_total").value
            assert counted == getattr(health, event), event

    def test_all_seven_runtime_counters_mirror_health(self):
        """Every RuntimeHealth field has a ``powerlens_runtime_*_total``
        twin and they agree exactly after faulted runs — including the
        clamp / stale-plan / external-cap paths the representative
        fault profile never reaches."""
        from repro.hw import CapWindow
        from repro.hw.faults import FaultProfile
        platform = jetson_tx2()
        graph = build_small_cnn()
        fields = ("switch_retries", "switch_failures", "blocks_pinned",
                  "plans_rejected", "plan_fallbacks", "levels_clamped",
                  "caps_honored")

        def run(plan, faults=None):
            obs = _obs()
            governor = PresetGovernor([plan], metrics=obs.metrics)
            sim = InferenceSimulator(platform, faults=faults)
            sim.run([InferenceJob(graph=graph, n_batches=4)], governor)
            return governor.health, obs.metrics

        # Four blocks so three of them can exhaust their failure
        # budgets (MAX_BLOCK_FAILURES) and force the plan fallback.
        plan = FrequencyPlan(graph_name="small_cnn",
                             steps=[PlanStep(0, 2), PlanStep(2, 9),
                                    PlanStep(4, 2), PlanStep(6, 9)])
        clamped = FrequencyPlan(graph_name="small_cnn",
                                steps=[PlanStep(0, 99), PlanStep(4, 9)])
        stale = FrequencyPlan(graph_name="small_cnn",
                              steps=[PlanStep(0, 2)],
                              graph_fingerprint="not-this-graph")
        scenarios = [
            (plan, FaultProfile(switch_drop_rate=0.9, seed=11)),
            (clamped, None),
            (stale, None),
            (plan, FaultProfile(cap_windows=(CapWindow(0.0, 60.0, 0),))),
        ]
        exercised = set()
        for scenario_plan, faults in scenarios:
            health, metrics = run(scenario_plan, faults)
            for event in fields:
                counted = metrics.counter(
                    f"powerlens_runtime_{event}_total").value
                assert counted == getattr(health, event), event
                if counted:
                    exercised.add(event)
        assert exercised == set(fields)  # each counter actually fired

    def test_run_identical_with_prometheus_text_read(self):
        """Rendering the session registry as Prometheus text must not
        perturb the instrumented run."""
        platform = jetson_tx2()
        base = _run(platform, OndemandGovernor(), obs=None)
        obs = _obs()
        observed = _run(platform, OndemandGovernor(), obs=obs)
        assert "powerlens_telemetry_samples_total" in \
            obs.metrics.to_prometheus_text()
        _assert_runs_identical(base, observed)


class TestStageTimerEquivalence:
    def test_mirror_tracer_does_not_change_aggregates(self):
        plain = StageTimer()
        mirrored = StageTimer(tracer=Tracer())
        for timer in (plain, mirrored):
            with timer.stage("a"):
                pass
            timer.record("b", 1.5)
        assert plain.total("a") > 0 and mirrored.total("a") > 0
        assert plain.total("b") == mirrored.total("b") == 1.5

    def test_table3_works_without_observability(self, fitted_lens):
        report = fitted_lens.overhead_report()
        assert report.training  # stage totals survive with obs off
        assert any(s == "dataset generation"
                   for s, _ in report.training)

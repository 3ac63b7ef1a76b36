"""Telemetry anomaly detection: zero false positives on clean runs of
every governor family, reliable detection of injected noise / switch
delay faults, and the observe-only guarantee (attaching a detector
never changes the simulated run)."""

import math

import pytest

from repro.analysis import ReversalTracker
from repro.governors import FrequencyPlan, OndemandGovernor, PlanStep, \
    PresetGovernor, StaticGovernor, fpg_g
from repro.hw import FaultProfile, InferenceJob, InferenceSimulator, \
    TelemetrySample, jetson_tx2
import repro.obs.anomaly as anomaly
from repro.obs import Observability
from repro.obs.anomaly import (
    AnomalyDetector,
    METRIC_ANOMALIES,
    _RegimeStats,
    _max_platform_power,
)

from tests.conftest import build_small_cnn

pytestmark = pytest.mark.obs


def _sample(t=1.0, power=5.0, level=4, busy=1.0, **over):
    kw = dict(t=t, period=0.02, gpu_level=level, gpu_busy=busy,
              compute_util=busy, memory_util=0.3,
              gpu_power=power * 0.6, cpu_power=power * 0.4,
              total_power=power)
    kw.update(over)
    return TelemetrySample(**kw)


def _cpu_heavy_jobs(graph):
    return [InferenceJob(graph=graph, n_batches=8)]


def _gpu_heavy_jobs(graph):
    return [InferenceJob(graph=graph, batch_size=16, n_batches=40,
                         cpu_work_per_image=2e6)]


def _run(governor, jobs, sample_period=0.02, faults=None, seed=0,
         detector=None):
    sim = InferenceSimulator(jetson_tx2(), sample_period=sample_period,
                             seed=seed, faults=faults, anomaly=detector)
    return sim.run(jobs, governor)


class TestUnits:
    def test_reversal_tracker_counts_direction_flips(self):
        tracker = ReversalTracker(window_s=0.5)
        count = 0
        for i in range(6):
            up = i % 2 == 0
            count = tracker.push(i * 0.01, 4 if up else 8,
                                 8 if up else 4)
        assert count >= 4  # alternating up/down is all reversals
        # Everything ages out of the trailing window.
        assert tracker.push(10.0, 4, 8) <= 1

    def test_regime_stats_track_constant_stream(self):
        stats = _RegimeStats()
        for _ in range(50):
            stats.update(7.5, alpha=0.25)
        assert math.isclose(stats.mean, 7.5)
        assert stats.var < 1e-12

    def test_platform_power_bound_dominates_clean_samples(self):
        platform = jetson_tx2()
        bound = _max_platform_power(platform)
        sim = InferenceSimulator(platform)
        result = sim.run(_cpu_heavy_jobs(build_small_cnn()),
                         OndemandGovernor())
        assert result.samples
        assert max(s.total_power for s in result.samples) <= bound

    def test_power_bound_recomputed_only_for_a_new_platform(
            self, monkeypatch):
        from repro.hw.platform import jetson_agx_xavier

        calls = []

        def counted(platform):
            calls.append(platform)
            return _max_platform_power(platform)

        monkeypatch.setattr(anomaly, "_max_platform_power", counted)
        tx2, agx = jetson_tx2(), jetson_agx_xavier()
        detector = AnomalyDetector()
        detector.reset(tx2)
        detector.reset(tx2)
        assert calls == [tx2]
        detector.reset(agx)
        assert calls == [tx2, agx]
        assert detector._power_bound == _max_platform_power(agx)
        detector.on_sample(_sample(power=_max_platform_power(tx2) * 1.3))
        assert detector.anomalies == []  # under AGX's higher bound

    def test_bound_breach_fires_without_warmup(self):
        detector = AnomalyDetector()
        detector.reset(jetson_tx2())
        detector.on_sample(_sample(power=1e6))
        assert [a.kind for a in detector.anomalies] == ["power_spike"]

    def test_invalid_sample_flagged(self):
        detector = AnomalyDetector()
        detector.reset(jetson_tx2())
        detector.on_sample(_sample(power=float("nan")))
        detector.on_sample(_sample(t=2.0, gpu_busy=3.0))
        assert [a.kind for a in detector.anomalies] == \
            ["telemetry_invalid"] * 2

    def test_regime_zscore_spike_after_warmup(self, monkeypatch):
        monkeypatch.setattr(anomaly, "WARMUP_SAMPLES", 4)
        monkeypatch.setattr(anomaly, "COOLDOWN_S", 0.0)
        detector = AnomalyDetector()
        detector.reset(jetson_tx2())
        for i in range(10):
            detector.on_sample(_sample(t=i * 0.02, power=5.0))
        detector.on_sample(_sample(t=0.5, power=20.0))
        kinds = [a.kind for a in detector.anomalies]
        assert kinds == ["power_spike"]
        # The outlier must not poison the regime estimate.
        key = (True, 4)
        assert math.isclose(detector._regimes[key].mean, 5.0)

    def test_cooldown_suppresses_floods(self, monkeypatch):
        monkeypatch.setattr(anomaly, "COOLDOWN_S", 1.0)
        detector = AnomalyDetector()
        detector.reset(jetson_tx2())
        for i in range(5):
            detector.on_sample(_sample(t=0.01 * i, power=1e6))
        assert len(detector.anomalies) == 1
        detector.on_sample(_sample(t=5.0, power=1e6))
        assert len(detector.anomalies) == 2

    def test_max_records_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(anomaly, "COOLDOWN_S", 0.0)
        monkeypatch.setattr(anomaly, "MAX_RECORDS", 3)
        detector = AnomalyDetector(obs=Observability.enabled_bundle())
        detector.reset(jetson_tx2())
        for i in range(10):
            detector.on_sample(_sample(t=float(i), power=1e6))
        assert len(detector.anomalies) == 3
        assert detector.dropped == 7
        # Metrics still count every emission, retained or dropped.
        assert detector.obs.metrics.counter(
            METRIC_ANOMALIES).value == 10

    def test_summary_lists_kinds(self):
        detector = AnomalyDetector()
        assert detector.summary() == "no anomalies"
        detector.reset(jetson_tx2())
        detector.on_sample(_sample(power=1e6))
        assert "power_spike=1" in detector.summary()


class TestCleanRunsAreSilent:
    @pytest.mark.parametrize("governor", [
        "ondemand", "static", "fpg_g", "preset"])
    @pytest.mark.parametrize("workload", ["cpu_heavy", "gpu_heavy"])
    def test_zero_false_positives(self, governor, workload):
        graph = build_small_cnn()
        if workload == "cpu_heavy":
            jobs, sample_period = _cpu_heavy_jobs(graph), 0.02
        else:
            jobs, sample_period = _gpu_heavy_jobs(graph), 0.005
        if governor == "ondemand":
            gov = OndemandGovernor()
        elif governor == "static":
            gov = StaticGovernor(level=6)
        elif governor == "fpg_g":
            gov = fpg_g()
        else:
            # Preset plans come from the pipeline, whose near-level
            # fusion exists so high-throughput jobs never actuate every
            # few milliseconds.  Mirror that: multi-level plan at a
            # realistic batch period for the CPU-bound workload, fused
            # single-level plan for the ~6 ms/batch GPU-bound one (a
            # 2-level plan replayed 160x/s IS ping-pong, not a false
            # positive).
            if workload == "cpu_heavy":
                jobs = [InferenceJob(graph=graph, batch_size=32,
                                     n_batches=8)]
                steps = [PlanStep(0, 3), PlanStep(4, 9)]
            else:
                steps = [PlanStep(0, 6)]
            gov = PresetGovernor([FrequencyPlan(
                graph_name="small_cnn", steps=steps)])
        detector = AnomalyDetector()
        _run(gov, jobs, sample_period=sample_period, detector=detector)
        assert detector.anomalies == [], detector.summary()


class TestInjectedFaultsAreCaught:
    def test_telemetry_noise_triggers_spike_and_pingpong(self):
        """Heavy multiplicative sensor noise steers the reactive
        governor into frequency ping-pong and produces physically
        impossible power windows — both must be flagged."""
        graph = build_small_cnn()
        profile = FaultProfile(telemetry_noise_std=1.0, seed=0)
        obs = Observability.enabled_bundle()
        detector = AnomalyDetector(obs=obs)
        _run(OndemandGovernor(), _gpu_heavy_jobs(graph),
             sample_period=0.005, faults=profile, detector=detector)
        counts = detector.counts()
        assert counts.get("power_spike", 0) >= 1, detector.summary()
        assert counts.get("pingpong", 0) >= 1, detector.summary()
        # Counters and tracer records mirror the detections.
        total = len(detector.anomalies) + detector.dropped
        assert obs.metrics.counter(METRIC_ANOMALIES).value == total
        spans = [s for s in obs.tracer.spans if s.name == "anomaly"]
        assert len(spans) == total
        assert {s.attributes["kind"] for s in spans} >= {"power_spike",
                                                         "pingpong"}

    def test_switch_delay_blows_stall_budget(self):
        graph = build_small_cnn()
        profile = FaultProfile(switch_delay_rate=0.9,
                               switch_delay_s=0.05, seed=0)
        detector = AnomalyDetector()
        _run(fpg_g(), _cpu_heavy_jobs(graph), sample_period=0.005,
             faults=profile, detector=detector)
        assert detector.counts().get("stall_budget", 0) >= 1, \
            detector.summary()


class TestObserveOnly:
    @pytest.mark.parametrize("faults", [
        None, FaultProfile(telemetry_noise_std=1.0, seed=0)],
        ids=["clean", "noisy"])
    def test_attached_detector_never_changes_the_run(self, faults):
        graph = build_small_cnn()
        jobs = _gpu_heavy_jobs(graph)
        base = _run(OndemandGovernor(), jobs, sample_period=0.005,
                    faults=faults)
        observed = _run(OndemandGovernor(), jobs, sample_period=0.005,
                        faults=faults, detector=AnomalyDetector())
        assert observed.report == base.report
        assert observed.trace.segments == base.trace.segments
        assert observed.samples == base.samples
        assert observed.switch_count == base.switch_count

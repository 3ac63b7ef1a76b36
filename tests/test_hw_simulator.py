"""Discrete-event simulator tests."""

import pytest

from repro.governors import (
    FrequencyPlan,
    PlanStep,
    PresetGovernor,
    StaticGovernor,
)
from repro.hw import InferenceJob, InferenceSimulator
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.telemetry import KIND_GPU_OP


@pytest.fixture()
def sim(tx2):
    return InferenceSimulator(tx2, sample_period=0.01)


@pytest.fixture()
def job(small_cnn):
    return InferenceJob(graph=small_cnn, batch_size=8, n_batches=2,
                        cpu_work_per_image=1e7)


class TestBasics:
    def test_invalid_sample_period(self, tx2):
        with pytest.raises(ValueError):
            InferenceSimulator(tx2, sample_period=0.0)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf"),
                                           -0.05])
    def test_invalid_noise_std(self, tx2, noise_std):
        # NaN used to run every op at half duration (max(0.5, nan) is
        # 0.5); a negative value was accepted silently.
        with pytest.raises(ValueError, match="noise_std"):
            InferenceSimulator(tx2, noise_std=noise_std)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"),
                                          0.0, -1e-3])
    def test_op_duration_must_be_finite_and_positive(
            self, tx2, job, monkeypatch, duration):
        """The GPU loop writes its segments without ``Trace.add``'s
        check, so the cost table admits only finite positive op
        durations (an infinite or negative one used to loop forever)."""
        from repro.hw.perf import LatencyModel, OpTiming

        monkeypatch.setattr(LatencyModel, "time_of",
                            lambda self, work, freq, batch_size=1:
                            OpTiming(duration, 0.0, 0.0))
        sim = InferenceSimulator(tx2, sample_period=0.01)
        with pytest.raises(ValueError, match="at GPU level"):
            sim.run([job], StaticGovernor())

    def test_result_accounting(self, sim, job):
        r = sim.run([job], StaticGovernor())
        assert r.report.images == job.images
        assert r.report.total_time > 0
        assert r.report.total_energy > 0
        assert r.report.total_energy == pytest.approx(
            r.trace.total_energy)
        assert r.switch_count == 0

    def test_energy_integral_consistency(self, sim, job):
        """Sum of segment energies equals the trace accumulators."""
        r = sim.run([job], StaticGovernor())
        seg_total = sum(s.energy for s in r.trace.segments)
        assert seg_total == pytest.approx(r.trace.total_energy, rel=1e-9)

    def test_segments_contiguous_in_time(self, sim, job):
        r = sim.run([job], StaticGovernor())
        segs = r.trace.segments
        for a, b in zip(segs, segs[1:]):
            assert b.t_start == pytest.approx(a.t_end)

    def test_every_op_executes(self, sim, job, small_cnn):
        r = sim.run([job], StaticGovernor())
        ops = {s.label for s in r.trace.segments if s.kind == KIND_GPU_OP}
        expected = {n.name for n in small_cnn.compute_nodes()}
        assert ops == expected

    def test_per_job_reports(self, sim, job):
        r = sim.run([job, job], StaticGovernor())
        assert len(r.per_job) == 2
        total = sum(j.total_energy for j in r.per_job)
        assert total == pytest.approx(r.report.total_energy, rel=1e-6)


class TestFrequencyBehaviour:
    def test_lower_level_slower_but_cheaper(self, sim, small_cnn):
        job = InferenceJob(graph=small_cnn, batch_size=8, n_batches=2,
                           cpu_work_per_image=0.0)
        fast = sim.run([job], StaticGovernor(level=None))
        mid = sim.run([job], StaticGovernor(level=5))
        assert mid.report.total_time > fast.report.total_time
        assert mid.report.total_energy < fast.report.total_energy

    def test_matches_analytic_model(self, tx2, small_cnn):
        """Event simulation at a pinned level must agree with the
        closed-form evaluator (same physics, different machinery)."""
        sim = InferenceSimulator(tx2, sample_period=10.0)  # no sampling
        job = InferenceJob(graph=small_cnn, batch_size=8, n_batches=1,
                           cpu_work_per_image=0.0)
        level = 6
        r = sim.run([job], StaticGovernor(level=level))
        ev = AnalyticEvaluator(tx2)
        table = ev.profile_table(small_cnn, 8)
        profile = table.span_profile(0, table.n_ops)
        gpu_busy_time = r.trace.busy_gpu_time
        assert gpu_busy_time == pytest.approx(float(profile.times[level]),
                                              rel=1e-6)

    def test_noise_changes_duration_deterministically(self, tx2, job):
        a = InferenceSimulator(tx2, noise_std=0.05, seed=1).run(
            [job], StaticGovernor())
        b = InferenceSimulator(tx2, noise_std=0.05, seed=1).run(
            [job], StaticGovernor())
        c = InferenceSimulator(tx2, noise_std=0.05, seed=2).run(
            [job], StaticGovernor())
        assert a.report.total_time == pytest.approx(b.report.total_time)
        assert a.report.total_time != pytest.approx(c.report.total_time)


class TestPresetExecution:
    def test_plan_levels_applied(self, tx2, small_cnn):
        n_ops = len(small_cnn.compute_nodes())
        plan = FrequencyPlan(graph_name=small_cnn.name, steps=[
            PlanStep(0, 2), PlanStep(n_ops // 2, 9),
        ])
        sim = InferenceSimulator(tx2, sample_period=10.0)
        job = InferenceJob(graph=small_cnn, batch_size=8, n_batches=1,
                           cpu_work_per_image=0.0)
        r = sim.run([job], PresetGovernor([plan]))
        levels = {s.label: s.gpu_level for s in r.trace.segments
                  if s.kind == KIND_GPU_OP}
        compute = small_cnn.compute_nodes()
        assert levels[compute[0].name] == 2
        assert levels[compute[-1].name] == 9
        assert r.switch_count == 2  # initial max->2, then 2->9

    def test_unplanned_graph_runs_at_fallback(self, tx2, small_cnn):
        plan = FrequencyPlan(graph_name="other", steps=[PlanStep(0, 3)])
        sim = InferenceSimulator(tx2, sample_period=10.0)
        job = InferenceJob(graph=small_cnn, batch_size=4)
        r = sim.run([job], PresetGovernor([plan]))
        op_levels = {s.gpu_level for s in r.trace.segments
                     if s.kind == KIND_GPU_OP}
        assert op_levels == {tx2.max_level}

    def test_switch_stall_charged(self, tx2, small_cnn):
        n_ops = len(small_cnn.compute_nodes())
        steps = [PlanStep(i, i % 2 * 5) for i in range(n_ops)]
        plan = FrequencyPlan(graph_name=small_cnn.name, steps=steps)
        sim = InferenceSimulator(tx2, sample_period=10.0)
        job = InferenceJob(graph=small_cnn, batch_size=4,
                           cpu_work_per_image=0.0)
        r = sim.run([job], PresetGovernor([plan]))
        switch_time = sum(s.duration for s in r.trace.segments
                          if s.kind == "switch")
        assert r.switch_count >= n_ops - 1
        assert switch_time == pytest.approx(
            r.switch_count * tx2.dvfs_stall_s, rel=1e-6)


class TestCpuSide:
    def test_cpu_phase_present(self, sim, job):
        r = sim.run([job], StaticGovernor())
        cpu_time = sum(s.duration for s in r.trace.segments
                       if s.kind == "cpu")
        assert cpu_time > 0

    def test_efficient_policy_lowers_cpu_power(self, tx2, small_cnn):
        job = InferenceJob(graph=small_cnn, batch_size=8, n_batches=3,
                           cpu_work_per_image=5e7)
        g_ond = StaticGovernor(cpu_policy="ondemand")
        g_eff = StaticGovernor(cpu_policy="efficient")
        r_ond = InferenceSimulator(tx2).run([job], g_ond)
        r_eff = InferenceSimulator(tx2).run([job], g_eff)
        assert r_eff.trace.cpu_energy < r_ond.trace.cpu_energy

    def test_max_policy(self, tx2, small_cnn):
        job = InferenceJob(graph=small_cnn, batch_size=4,
                           cpu_work_per_image=5e7)
        gov = StaticGovernor(cpu_policy="max")
        r = InferenceSimulator(tx2).run([job], gov)
        assert r.report.total_energy > 0


class TestJobDataclass:
    def test_images(self, small_cnn):
        job = InferenceJob(graph=small_cnn, batch_size=10, n_batches=5)
        assert job.images == 50

    def test_label_defaults_to_graph_name(self, small_cnn):
        assert InferenceJob(graph=small_cnn).label() == small_cnn.name
        assert InferenceJob(graph=small_cnn, name="x").label() == "x"

    @pytest.mark.parametrize("kwargs, field", [
        # A negative batch or infinite CPU work looped forever; NaN or
        # negative work skipped preprocessing; batch 0 booked energy for
        # no images.
        ({"batch_size": -2}, "batch_size"),
        ({"batch_size": 0}, "batch_size"),
        ({"n_batches": -1}, "n_batches"),
        ({"cpu_work_per_image": float("inf")}, "cpu_work_per_image"),
        ({"cpu_work_per_image": float("nan")}, "cpu_work_per_image"),
        ({"cpu_work_per_image": -1e7}, "cpu_work_per_image"),
    ])
    def test_degenerate_job_rejected(self, small_cnn, kwargs, field):
        with pytest.raises(ValueError, match=field):
            InferenceJob(graph=small_cnn, **kwargs)

    def test_zero_cpu_work_and_no_batches_allowed(self, tx2, small_cnn):
        job = InferenceJob(graph=small_cnn, batch_size=4,
                           cpu_work_per_image=0.0)
        r = InferenceSimulator(tx2).run([job], StaticGovernor())
        assert r.report.images == 4
        assert all(seg.kind == KIND_GPU_OP for seg in r.trace.segments)
        empty = InferenceJob(graph=small_cnn, n_batches=0)
        assert empty.images == 0

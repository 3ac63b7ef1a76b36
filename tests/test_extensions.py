"""Extension tests: CPU DVFS planning, batch co-optimization, platform
calibration (the paper's section-5 future work)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.extensions import (
    CalibrationSample,
    best_batch_size,
    batch_sweep,
    cpu_phase_energy,
    fit_power_model,
    optimal_cpu_level,
    PowerLensCGGovernor,
)
from repro.extensions.calibrate import synthesize_samples
from repro.extensions.cpu_dvfs import powerlens_cg_governor
from repro.hw import InferenceJob, InferenceSimulator
from repro.hw.platform import jetson_agx_xavier, jetson_tx2
from repro.models import build_model
from tests.oracles import optimal_cpu_level_reference


class TestCpuDvfs:
    def test_phase_energy_positive(self, tx2):
        e, t = cpu_phase_energy(tx2, 2e9, 3)
        assert e > 0 and t > 0

    def test_level_bounds(self, tx2):
        with pytest.raises(IndexError):
            cpu_phase_energy(tx2, 1e9, 99)

    def test_optimal_level_feasible(self, tx2):
        n = len(tx2.cpu.freq_levels)
        for slack in (0.0, 0.25, 1.0):
            lvl = optimal_cpu_level(tx2, 2e9, latency_slack=slack)
            assert 0 <= lvl < n
            _, t = cpu_phase_energy(tx2, 2e9, lvl)
            _, t_max = cpu_phase_energy(tx2, 2e9, n - 1)
            assert t <= (1 + slack) * t_max + 1e-12

    def test_zero_slack_pins_max(self, tx2):
        assert optimal_cpu_level(tx2, 2e9, latency_slack=0.0) == \
            len(tx2.cpu.freq_levels) - 1

    @settings(max_examples=200, deadline=None)
    @given(platform=st.sampled_from([jetson_tx2(), jetson_agx_xavier()]),
           cpu_ops=st.one_of(st.just(0.0),
                             st.floats(1e3, 1e12, allow_nan=False)),
           slack=st.floats(0.0, 2.0, allow_nan=False))
    def test_shared_rule_matches_the_ladder_loop(self, platform, cpu_ops,
                                                 slack):
        assert optimal_cpu_level(platform, cpu_ops, slack) == \
            optimal_cpu_level_reference(platform, cpu_ops, slack)

    def test_planned_level_saves_cpu_energy(self, fitted_lens, tx2):
        """PowerLens-C+G must reduce total energy versus plain PowerLens
        on a preprocessing-heavy workload."""
        graph = build_model("resnet18")
        job = InferenceJob(graph=graph, batch_size=16, n_batches=4,
                           cpu_work_per_image=4e8)
        plain = fitted_lens.governor([graph])
        cg = powerlens_cg_governor(fitted_lens, [graph],
                                   cpu_work_per_image=4e8, batch_size=16)
        assert isinstance(cg, PowerLensCGGovernor)
        r_plain = InferenceSimulator(tx2, keep_trace=False).run(
            [job], plain)
        r_cg = InferenceSimulator(tx2, keep_trace=False).run([job], cg)
        assert r_cg.trace.cpu_energy < r_plain.trace.cpu_energy
        assert r_cg.report.energy_efficiency > \
            r_plain.report.energy_efficiency * 0.98


class TestBatching:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_model("resnet18")

    def test_sweep_covers_candidates(self, tx2, graph):
        choices = batch_sweep(tx2, graph, candidates=(1, 4, 16))
        assert [c.batch_size for c in choices] == [1, 4, 16]
        for c in choices:
            assert c.energy_per_image > 0
            assert c.energy_efficiency == pytest.approx(
                1 / c.energy_per_image)

    def test_larger_batches_amortize_overhead(self, tx2, graph):
        choices = batch_sweep(tx2, graph, candidates=(1, 32))
        assert choices[1].energy_per_image < choices[0].energy_per_image

    def test_latency_cap_respected(self, tx2, graph):
        choice = best_batch_size(tx2, graph, candidates=(1, 8, 64),
                                 max_batch_latency=0.5)
        assert choice.batch_latency <= 0.5 or choice.batch_size == 1

    def test_uncapped_prefers_largest_ee(self, tx2, graph):
        choices = batch_sweep(tx2, graph)
        best = best_batch_size(tx2, graph)
        assert best.energy_efficiency == max(
            c.energy_efficiency for c in choices)

    def test_invalid_batch(self, tx2, graph):
        with pytest.raises(ValueError):
            batch_sweep(tx2, graph, candidates=(0,))


class TestCalibration:
    def test_exact_recovery_without_noise(self, tx2):
        samples = synthesize_samples(tx2, n=50, noise_w=0.0, seed=0)
        result = fit_power_model(tx2, samples)
        assert result.leak_w_per_v == pytest.approx(tx2.leak_w_per_v,
                                                    rel=1e-6)
        assert result.c_eff == pytest.approx(tx2.c_eff, rel=1e-6)
        assert result.stall_power_fraction == pytest.approx(
            tx2.stall_power_fraction, rel=1e-6)
        assert result.dram_energy_per_byte == pytest.approx(
            tx2.dram_energy_per_byte, rel=1e-6)
        assert result.rms_error_w < 1e-9

    def test_noisy_recovery_close(self, tx2):
        samples = synthesize_samples(tx2, n=200, noise_w=0.2, seed=1)
        result = fit_power_model(tx2, samples)
        assert result.c_eff == pytest.approx(tx2.c_eff, rel=0.1)
        assert result.rms_error_w < 0.5

    def test_needs_enough_samples(self, tx2):
        with pytest.raises(ValueError):
            fit_power_model(tx2, synthesize_samples(tx2, n=3))

    def test_rank_deficiency_detected(self, tx2):
        # All samples at one frequency with the same mix: unfittable.
        samples = [CalibrationSample(freq=tx2.f_max, compute_util=1.0,
                                     byte_rate=0.0, power_w=10.0)] * 10
        with pytest.raises(ValueError, match="span"):
            fit_power_model(tx2, samples)

    def test_invalid_util_rejected(self, tx2):
        bad = [CalibrationSample(tx2.f_max, 1.5, 0.0, 10.0)] * 5
        with pytest.raises(ValueError, match="compute_util"):
            fit_power_model(tx2, bad)

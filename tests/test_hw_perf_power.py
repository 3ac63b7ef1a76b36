"""Latency and power model tests."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.perf import LatencyModel, OpWork
from repro.hw.power import PowerModel
from tests.oracles import graph_time


@pytest.fixture()
def latency(tx2):
    return LatencyModel(tx2)


@pytest.fixture()
def power(tx2):
    return PowerModel(tx2)


def _compute_heavy():
    # Very high arithmetic intensity: compute-bound at any frequency.
    return OpWork("conv_heavy", "conv", flops=1e10, mem_bytes=1e5)


def _memory_heavy():
    return OpWork("eltwise", "elementwise", flops=1e5, mem_bytes=1e8)


class TestRoofline:
    def test_compute_bound_scales_with_freq(self, tx2):
        # Disable the streaming-traffic floor so the op is purely
        # compute-bound, then time must scale inversely with frequency.
        plat = tx2.with_overrides(
            intensity_caps={k: 0.0 for k in tx2.intensity_caps})
        latency = LatencyModel(plat)
        w = _compute_heavy()
        t_lo = latency.time_at_level(w, 0).duration
        t_hi = latency.time_at_level(w, plat.max_level).duration
        assert t_lo > t_hi
        # Roughly inverse-proportional (launch overhead aside).
        assert t_lo / t_hi == pytest.approx(plat.f_max / plat.f_min,
                                            rel=0.05)

    def test_memory_bound_barely_scales(self, latency, tx2):
        w = _memory_heavy()
        t_lo = latency.time_at_level(w, 0).duration
        t_hi = latency.time_at_level(w, tx2.max_level).duration
        # Bandwidth sensitivity bounds the slowdown.
        max_ratio = 1.0 / (1.0 - tx2.bw_freq_sensitivity)
        assert t_lo / t_hi < max_ratio + 0.05

    def test_boundness_classification(self, latency, tx2):
        # Under the achieved-traffic model even dense convolutions are
        # memory-bound at the top of the ladder (the calibrated Jetson
        # behaviour); at the bottom they are compute-bound.
        t_c_low = latency.time_at_level(_compute_heavy(), 0)
        t_m = latency.time_at_level(_memory_heavy(), tx2.max_level)
        assert t_c_low.compute_bound
        assert not t_m.compute_bound

    def test_utilizations_in_unit_interval(self, latency, tx2):
        for work in (_compute_heavy(), _memory_heavy()):
            t = latency.time_at_level(work, 5)
            assert 0.0 <= t.compute_utilization <= 1.0
            assert 0.0 <= t.memory_utilization <= 1.0

    def test_batch_scales_linearly(self, latency, tx2):
        w = _compute_heavy()
        t1 = latency.time_at_level(w, 5, batch_size=1).duration
        t8 = latency.time_at_level(w, 5, batch_size=8).duration
        assert t8 == pytest.approx(
            8 * (t1 - tx2.kernel_launch_s) + tx2.kernel_launch_s)

    def test_launch_overhead_floor(self, latency, tx2):
        w = OpWork("tiny", "reshape", flops=0.0, mem_bytes=1.0)
        t = latency.time_at_level(w, tx2.max_level)
        assert t.duration >= tx2.kernel_launch_s

    def test_effective_bytes_at_least_amplified_analytic(self, latency,
                                                         tx2):
        w = _memory_heavy()
        amp = tx2.traffic_amplification["elementwise"]
        assert latency.effective_bytes(w) >= amp * w.mem_bytes

    def test_effective_bytes_streaming_floor(self, latency, tx2):
        w = _compute_heavy()
        cap = tx2.intensity_caps["conv"]
        assert latency.effective_bytes(w) >= w.flops / cap

    def test_graph_time_monotone_in_level(self, latency, small_cnn, tx2):
        times = [graph_time(latency, small_cnn, lvl, batch_size=8)
                 for lvl in range(tx2.n_levels)]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    def test_work_cache_guards_identity(self, latency, small_cnn):
        works1 = latency.graph_work(small_cnn)
        works2 = latency.graph_work(small_cnn)
        assert works1 is works2


class TestPower:
    def test_busy_exceeds_idle(self, latency, power, tx2):
        for work in (_compute_heavy(), _memory_heavy()):
            t = latency.time_at_level(work, 8)
            f = tx2.freq_of_level(8)
            assert power.gpu_busy(f, t) > power.gpu_idle(f)

    def test_busy_power_increases_with_freq(self, latency, power, tx2):
        w = _compute_heavy()
        prev = 0.0
        for lvl in range(tx2.n_levels):
            f = tx2.freq_of_level(lvl)
            p = power.gpu_busy(f, latency.time_at_level(w, lvl))
            assert p > prev
            prev = p

    def test_compute_bound_burns_more_than_memory_bound(
            self, latency, power, tx2):
        f = tx2.f_max
        p_c = power.gpu_busy(f, latency.time_at_level(_compute_heavy(),
                                                      tx2.max_level))
        t_m = latency.time_at_level(_memory_heavy(), tx2.max_level)
        # Remove the DRAM component for a fair stall-power comparison.
        p_m_stall = power.gpu_static(f) + \
            tx2.c_eff * f * tx2.voltage(f) ** 2 * (
                t_m.compute_utilization
                + tx2.stall_power_fraction * (1 - t_m.compute_utilization))
        assert p_c > p_m_stall

    def test_stalled_sm_power_fraction(self, power, latency, tx2):
        """A fully memory-stalled op still burns a large dynamic
        fraction — the physical core of the DVFS opportunity."""
        f = tx2.f_max
        t_m = latency.time_at_level(_memory_heavy(), tx2.max_level)
        dyn_full = tx2.c_eff * f * tx2.voltage(f) ** 2
        p = power.gpu_busy(f, t_m)
        dram = tx2.dram_energy_per_byte * t_m.effective_bytes / \
            t_m.duration
        stall_dyn = p - power.gpu_static(f) - dram
        assert stall_dyn >= 0.9 * tx2.stall_power_fraction * dyn_full

    def test_cpu_busy_exceeds_idle(self, power, tx2):
        for f in tx2.cpu.freq_levels:
            assert power.cpu_busy(f) > power.cpu_idle(f)

    def test_cpu_idle_leakage_floor_constant(self, power, tx2):
        """Idle cores clock-gate: leakage does not track the pinned
        level, only the small residual clock component does."""
        lo = power.cpu_idle(tx2.cpu.f_min)
        hi = power.cpu_idle(tx2.cpu.f_max)
        assert hi - lo < 0.5  # only the residual term differs

    @given(level=st.integers(0, 12))
    def test_energy_convexity_exists(self, level, tx2):
        """Property: busy power is positive and finite at every level."""
        latency = LatencyModel(tx2)
        power = PowerModel(tx2)
        f = tx2.freq_of_level(level)
        t = latency.time_at_level(_compute_heavy(), level)
        p = power.gpu_busy(f, t)
        assert 0 < p < 1000

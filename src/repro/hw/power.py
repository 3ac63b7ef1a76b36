"""CMOS-style power model for the GPU rail and the CPU cluster.

GPU power while an operator executes:

    P = P_static(V)
      + V^2 * f * c_eff * (u_c + stall_power_fraction * (1 - u_c))
      + dram_energy_per_byte * achieved_byte_rate

where ``u_c`` is the compute-pipe occupancy from the roofline model and
``P_static = leak_w_per_v * V``.  SMs stalled on memory still burn a
substantial fraction of dynamic power (clock tree, schedulers, replay) —
that stall term is why running memory-bound work at maximum frequency
wastes energy without buying time, the core asymmetry PowerLens
exploits.  DRAM energy is charged per byte actually moved, so it is
(correctly) insensitive to the GPU clock.  When the GPU idles, clock
gating leaves only a small residual dynamic component
(``idle_clock_fraction``).
"""

from __future__ import annotations

from repro.hw.perf import OpTiming
from repro.hw.platform import PlatformSpec


class PowerModel:
    """Evaluates instantaneous power for execution states."""

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform

    # ------------------------------------------------------------------
    # GPU rail
    # ------------------------------------------------------------------
    def gpu_static(self, freq: float) -> float:
        return self.platform.leak_w_per_v * self.platform.voltage(freq)

    def gpu_busy(self, freq: float, timing: OpTiming) -> float:
        """GPU power while executing an operator with the given timing
        decomposition at ``freq``."""
        p = self.platform
        v = p.voltage(freq)
        u_c = timing.compute_utilization
        activity = u_c + p.stall_power_fraction * (1.0 - u_c)
        dynamic = v * v * freq * p.c_eff * activity
        dram = 0.0
        if timing.duration > 0:
            dram = p.dram_energy_per_byte * \
                timing.effective_bytes / timing.duration
        return self.gpu_static(freq) + dynamic + dram

    def gpu_idle(self, freq: float) -> float:
        """GPU power while clock-gated at ``freq``."""
        p = self.platform
        v = p.voltage(freq)
        residual = v * v * freq * p.c_eff * p.idle_clock_fraction
        return self.gpu_static(freq) + residual

    # ------------------------------------------------------------------
    # CPU cluster
    # ------------------------------------------------------------------
    def cpu_busy(self, cpu_freq: float) -> float:
        cpu = self.platform.cpu
        v = cpu.voltage(cpu_freq)
        return cpu.leak_w_per_v * v + cpu.c_eff * v * v * cpu_freq

    def cpu_idle(self, cpu_freq: float) -> float:
        # Idle cores clock-gate (WFI), so leakage is paid at the floor
        # voltage regardless of the pinned level; only a small residual
        # clock-tree component tracks the level.
        cpu = self.platform.cpu
        v_floor = cpu.voltage(cpu.f_min)
        v = cpu.voltage(cpu_freq)
        return cpu.leak_w_per_v * v_floor + \
            0.02 * cpu.c_eff * v * v * cpu_freq


"""Platform specifications: frequency tables, voltage curves, throughput
and power coefficients for the two Jetson boards the paper deploys on.

The GPU frequency ladders are the boards' real DVFS tables (from
``/sys/devices/gpu.0/devfreq``): 13 levels on the TX2 (114.75 MHz to
1300.5 MHz) and 14 levels on the AGX Xavier (114.75 MHz to 1377 MHz),
matching section 3.1 of the paper.

Voltage curves follow the usual CMOS shape — roughly flat near the bottom
of the ladder and super-linear toward the top — parameterized as

    V(f) = v_min + (v_max - v_min) * ((f - f_min) / (f_max - f_min))**gamma

The AGX's wider frequency range and steeper top-end curve (higher
``gamma``) is what makes maximum-frequency operation so much less
efficient there, reproducing the much larger gains over the built-in
governor that Table 1(b) reports on AGX versus TX2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Sequence, Tuple

MHZ = 1.0e6


def _mhz(values: Sequence[float]) -> Tuple[float, ...]:
    return tuple(v * MHZ for v in values)


#: Jetson TX2 GPU DVFS ladder (Hz) — 13 levels.
TX2_GPU_FREQS = _mhz([
    114.75, 216.75, 318.75, 420.75, 522.75, 624.75, 726.75,
    854.25, 930.75, 1032.75, 1122.0, 1236.75, 1300.5,
])

#: Jetson AGX Xavier GPU DVFS ladder (Hz) — 14 levels.
AGX_GPU_FREQS = _mhz([
    114.75, 204.0, 318.75, 420.75, 522.75, 624.75, 675.75,
    828.75, 905.25, 1032.75, 1198.5, 1236.75, 1338.75, 1377.0,
])

#: Jetson TX2 CPU (A57 cluster) ladder (Hz), truncated to 8 levels.
TX2_CPU_FREQS = _mhz([345.6, 499.2, 652.8, 960.0, 1267.2, 1574.4,
                      1881.6, 2035.2])

#: Jetson AGX Xavier CPU (Carmel) ladder (Hz), truncated to 8 levels.
AGX_CPU_FREQS = _mhz([422.4, 729.6, 1036.8, 1190.4, 1344.0, 1651.2,
                      1958.4, 2265.6])


@dataclass(frozen=True)
class CpuSpec:
    """CPU-side model: the host cluster that runs pre/post-processing.

    The CPU matters for two reasons: the FPG-C+G baseline tunes its
    frequency too, and its power contributes to the platform average used
    by the EE metric (equation 1 of the paper).
    """

    freq_levels: Tuple[float, ...]
    v_min: float = 0.60
    v_max: float = 1.15
    gamma: float = 2.0
    ops_per_cycle: float = 8.0          # SIMD lanes x issue width
    c_eff: float = 4.0e-9               # dynamic capacitance (W / (V^2 Hz))
    leak_w_per_v: float = 0.45          # static leakage slope (W / V)

    @property
    def f_min(self) -> float:
        return self.freq_levels[0]

    @property
    def f_max(self) -> float:
        return self.freq_levels[-1]

    def voltage(self, freq: float) -> float:
        """Operating voltage at ``freq`` (clamped to the ladder range)."""
        f = min(max(freq, self.f_min), self.f_max)
        x = (f - self.f_min) / (self.f_max - self.f_min)
        return self.v_min + (self.v_max - self.v_min) * (x ** self.gamma)


@dataclass(frozen=True)
class PlatformSpec:
    """Full platform model: GPU ladder, voltage curve, roofline
    throughput, power coefficients and DVFS actuation cost.

    Attributes
    ----------
    gpu_freq_levels:
        Ascending DVFS ladder in Hz; indices into it are "levels".
    flops_per_cycle:
        Peak FLOPs retired per GPU cycle (CUDA cores x 2 for FMA).
    mem_bandwidth:
        Peak DRAM bandwidth in bytes/s at maximum GPU frequency.
    bw_freq_sensitivity:
        Fraction of achievable bandwidth that scales with GPU frequency
        (request-rate limiting); the rest is frequency-independent.
    c_eff:
        Effective switched capacitance of the GPU in W / (V^2 * Hz).
    stall_power_fraction:
        Fraction of full dynamic power the SMs burn while stalled on
        memory (clock distribution, schedulers, replay).  This is the
        physical reason downclocking memory-bound blocks saves energy at
        almost no time cost.
    dram_energy_per_byte:
        Memory-subsystem energy in J/B, charged on actual traffic.
    leak_w_per_v:
        GPU-rail static leakage slope (P_static = leak_w_per_v * V).
    intensity_caps / traffic_amplification:
        Achieved-traffic model.  Real kernels move far more DRAM traffic
        than the analytic minimum (im2col buffers, tile re-reads, limited
        cache reuse), so effective traffic is

            effective_bytes = amp[cat] * analytic_bytes + flops / cap[cat]

        — a per-byte amplification plus a per-FLOP streaming component.
        The caps place the roofline crossover of dense, high-intensity
        convolutions at roughly 55-65 % of the top clock, while
        weight-heavy or activation-heavy operators (whose analytic bytes
        dominate) become memory-bound much lower — matching the observed
        Jetson behaviour that the last few frequency steps buy little
        throughput at disproportionate power, with the crossover varying
        across network stages.
    board_power:
        Constant always-on board power (regulators, DRAM refresh, SoC
        peripherals) included in the platform average.
    dvfs_latency_s:
        Wall-clock overhead of one *synchronous, isolated* DVFS level
        change (sysfs write + driver work + clock settle), as measured
        by the paper's 100-switch micro-benchmark (~50 ms).  Reported in
        Table 3; pipelined execution hides most of it.
    dvfs_stall_s:
        GPU pipeline stall while the clock actually transitions (the
        part that cannot be hidden by pipelining).
    dvfs_cpu_busy_s:
        Host-CPU busy time consumed per in-flight DVFS command ("DVFS
        commands consume processor resources", section 2.3.2).
    kernel_launch_s:
        Fixed per-operator launch overhead.
    dtype_bytes:
        Activation/weight element size (4 = fp32, 2 = fp16).
    """

    name: str
    gpu_freq_levels: Tuple[float, ...]
    cpu: CpuSpec
    v_min: float = 0.65
    v_max: float = 1.10
    gamma: float = 1.35
    flops_per_cycle: float = 512.0
    mem_bandwidth: float = 59.7e9
    bw_freq_sensitivity: float = 0.10
    c_eff: float = 6.0e-9
    stall_power_fraction: float = 0.45
    dram_energy_per_byte: float = 6.0e-11
    leak_w_per_v: float = 2.2
    idle_clock_fraction: float = 0.05
    board_power: float = 2.5
    dvfs_latency_s: float = 0.050
    dvfs_stall_s: float = 0.001
    dvfs_cpu_busy_s: float = 0.001
    kernel_launch_s: float = 40.0e-6
    dtype_bytes: int = 4
    #: Per-category fraction of peak compute throughput actually achieved.
    op_efficiency: Dict[str, float] = field(default_factory=lambda: {
        "conv": 0.60,
        "dwconv": 0.22,
        "linear": 0.70,
        "attention": 0.45,
        "norm": 0.15,
        "activation": 0.15,
        "pool": 0.15,
        "elementwise": 0.12,
        "reshape": 0.10,
        "io": 0.10,
    })
    #: Achieved FLOPs-per-byte ceiling per category (see class docstring).
    intensity_caps: Dict[str, float] = field(default_factory=lambda: {
        "conv": 4.5,
        "dwconv": 1.8,
        "linear": 4.0,
        "attention": 3.5,
        "norm": 1.0,
        "activation": 1.0,
        "pool": 1.0,
        "elementwise": 1.0,
        "reshape": 1.0,
        "io": 1.0,
    })
    #: Per-byte traffic amplification per category (see class docstring).
    traffic_amplification: Dict[str, float] = field(default_factory=lambda: {
        "conv": 5.0,
        "dwconv": 6.0,
        "linear": 4.0,
        "attention": 4.0,
        "norm": 3.0,
        "activation": 3.0,
        "pool": 3.0,
        "elementwise": 3.0,
        "reshape": 3.0,
        "io": 3.0,
    })

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        freqs = self.gpu_freq_levels
        if len(freqs) < 2:
            raise ValueError("platform needs at least two GPU levels")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("GPU frequency ladder must be ascending")

    @property
    def n_levels(self) -> int:
        return len(self.gpu_freq_levels)

    @property
    def f_min(self) -> float:
        return self.gpu_freq_levels[0]

    @property
    def f_max(self) -> float:
        return self.gpu_freq_levels[-1]

    @property
    def max_level(self) -> int:
        return self.n_levels - 1

    def freq_of_level(self, level: int) -> float:
        """Frequency (Hz) of ladder index ``level``."""
        if not 0 <= level < self.n_levels:
            raise IndexError(
                f"level {level} outside ladder [0, {self.n_levels - 1}]"
            )
        return self.gpu_freq_levels[level]

    def clamp_level(self, level: int) -> int:
        return max(0, min(self.max_level, level))

    def voltage(self, freq: float) -> float:
        """GPU rail voltage at ``freq``."""
        f = min(max(freq, self.f_min), self.f_max)
        x = (f - self.f_min) / (self.f_max - self.f_min)
        return self.v_min + (self.v_max - self.v_min) * (x ** self.gamma)

    def bandwidth_at(self, freq: float) -> float:
        """Achievable DRAM bandwidth when the GPU runs at ``freq``.

        A fraction ``bw_freq_sensitivity`` of peak bandwidth scales with
        GPU frequency (the GPU must issue requests fast enough); the rest
        is delivered by the memory controller regardless.
        """
        s = self.bw_freq_sensitivity
        return self.mem_bandwidth * ((1.0 - s) + s * freq / self.f_max)

    def with_overrides(self, **kwargs) -> "PlatformSpec":
        """Copy of this spec with fields replaced — used by ablation
        benches (e.g. sweeping ``dvfs_latency_s``)."""
        return replace(self, **kwargs)


def jetson_tx2() -> PlatformSpec:
    """Jetson TX2 preset: 256-core Pascal GPU, LPDDR4 at ~59.7 GB/s.

    13 GPU DVFS levels from 114.75 MHz to 1300.5 MHz (section 3.1).
    """
    return PlatformSpec(
        name="jetson_tx2",
        gpu_freq_levels=TX2_GPU_FREQS,
        cpu=CpuSpec(freq_levels=TX2_CPU_FREQS),
        v_min=0.65,
        v_max=1.10,
        gamma=2.45,
        flops_per_cycle=512.0,        # 256 CUDA cores x 2 (FMA)
        mem_bandwidth=59.7e9,
        c_eff=5.5e-9,
        stall_power_fraction=0.58,
        dram_energy_per_byte=4.7e-11,
        leak_w_per_v=0.95,
        board_power=1.1,
    )


def jetson_agx_xavier() -> PlatformSpec:
    """Jetson AGX Xavier preset: 512-core Volta GPU, LPDDR4x at ~137 GB/s.

    14 GPU DVFS levels from 114.75 MHz to 1377 MHz (section 3.1); MAXN
    power mode.  Steeper top-end voltage curve than the TX2.
    """
    return PlatformSpec(
        name="jetson_agx_xavier",
        gpu_freq_levels=AGX_GPU_FREQS,
        cpu=CpuSpec(freq_levels=AGX_CPU_FREQS, c_eff=5.0e-9),
        v_min=0.60,
        v_max=1.36,
        gamma=3.60,
        flops_per_cycle=1024.0,       # 512 CUDA cores x 2 (FMA)
        mem_bandwidth=137.0e9,
        c_eff=10.0e-9,
        stall_power_fraction=0.58,
        dram_energy_per_byte=3.8e-11,
        leak_w_per_v=1.7,
        board_power=1.9,
        intensity_caps={
            "conv": 4.2, "dwconv": 1.7, "linear": 3.7, "attention": 3.3,
            "norm": 1.0, "activation": 1.0, "pool": 1.0,
            "elementwise": 1.0, "reshape": 1.0, "io": 1.0,
        },
    )


PLATFORM_PRESETS: Dict[str, Callable[[], PlatformSpec]] = {
    "jetson_tx2": jetson_tx2,
    "tx2": jetson_tx2,
    "jetson_agx_xavier": jetson_agx_xavier,
    "agx": jetson_agx_xavier,
}


def get_platform(name: str) -> PlatformSpec:
    """Build a preset platform by name ('tx2' / 'agx' aliases allowed)."""
    key = name.lower()
    if key not in PLATFORM_PRESETS:
        raise KeyError(
            f"unknown platform {name!r}; presets: "
            f"{', '.join(sorted(set(PLATFORM_PRESETS)))}"
        )
    return PLATFORM_PRESETS[key]()

"""Execution traces, sampled telemetry and energy reports.

The simulator produces two related views of a run:

* an exact, piecewise-constant :class:`Trace` of (interval, frequency,
  power) segments from which energy is integrated with no sampling error;
* a stream of :class:`TelemetrySample` windows — what a real governor
  (or ``tegrastats``) would see — used by the reactive baselines and by
  :func:`format_tegrastats` for log-style output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple

#: Segment kinds recorded by the simulator.
KIND_GPU_OP = "gpu_op"
KIND_CPU = "cpu"
KIND_IDLE = "idle"
KIND_SWITCH = "switch"

#: Metric names for telemetry-window accounting (simulator hot path):
#: every delivered window counts once, plus once more when flagged
#: ``faulty``; a dropped window counts only as dropped.
METRIC_SAMPLES = "powerlens_telemetry_samples_total"
METRIC_SAMPLES_DROPPED = "powerlens_telemetry_samples_dropped_total"
METRIC_SAMPLES_FAULTY = "powerlens_telemetry_samples_faulty_total"


class TraceSegment(NamedTuple):
    """One piecewise-constant interval of the execution timeline.

    A ``NamedTuple`` rather than a frozen dataclass: the simulator builds
    one per segment, and a tuple is immutable, hashable and has the same
    ``repr`` at a fraction of the construction cost.
    """

    t_start: float
    t_end: float
    kind: str
    gpu_level: int
    gpu_power: float
    cpu_power: float
    board_power: float
    compute_util: float = 0.0
    memory_util: float = 0.0
    label: str = ""
    #: Canonical compute-node index the segment executes (``gpu_op``
    #: segments only; ``-1`` for CPU/idle/switch segments).  This is what
    #: lets :class:`repro.obs.ledger.EnergyLedger` attribute energy to
    #: power blocks exactly instead of guessing from labels.
    op_index: int = -1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def total_power(self) -> float:
        return self.gpu_power + self.cpu_power + self.board_power

    @property
    def energy(self) -> float:
        return self.total_power * self.duration


class TelemetrySample(NamedTuple):
    """Windowed telemetry a governor observes (one sampling period).

    All utilizations are window averages in [0, 1]; ``gpu_level`` is the
    level in force at the end of the window.  A ``NamedTuple`` for the
    same reason as :class:`TraceSegment`; derive a copy with
    ``sample._replace(...)``.
    """

    t: float
    period: float
    gpu_level: int
    gpu_busy: float
    compute_util: float
    memory_util: float
    gpu_power: float
    cpu_power: float
    total_power: float
    cpu_busy: float = 0.0
    cpu_level: int = 0
    #: True when a fault injector perturbed this window (stuck sensor or
    #: multiplicative noise).  Dropped windows are never delivered at
    #: all, so governors see gaps, not flagged samples.
    faulty: bool = False


@dataclass
class Trace:
    """Full execution record: exact segments plus derived accounting."""

    segments: List[TraceSegment] = field(default_factory=list)
    keep_segments: bool = True
    # Scalar accumulators (always maintained, even when segments are
    # dropped to bound memory on long task flows).
    total_time: float = 0.0
    gpu_energy: float = 0.0
    cpu_energy: float = 0.0
    board_energy: float = 0.0
    busy_gpu_time: float = 0.0
    switch_count: int = 0

    def append(self, seg: TraceSegment) -> None:
        t_end = seg.t_end
        dt = t_end - seg.t_start
        if dt < 0:
            raise ValueError(f"negative-duration segment: {seg}")
        self.total_time = t_end
        self.gpu_energy += seg.gpu_power * dt
        self.cpu_energy += seg.cpu_power * dt
        self.board_energy += seg.board_power * dt
        kind = seg.kind
        if kind == KIND_GPU_OP:
            self.busy_gpu_time += dt
        elif kind == KIND_SWITCH:
            self.switch_count += 1
        if self.keep_segments:
            self.segments.append(seg)

    @property
    def total_energy(self) -> float:
        return self.gpu_energy + self.cpu_energy + self.board_energy

    @property
    def average_power(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.total_energy / self.total_time

    def frequency_timeline(self) -> List[tuple]:
        """(t_start, t_end, gpu_level) runs — for Figure 1-style plots."""
        runs: List[tuple] = []
        for seg in self.segments:
            if runs and runs[-1][2] == seg.gpu_level and \
                    abs(runs[-1][1] - seg.t_start) < 1e-12:
                runs[-1] = (runs[-1][0], seg.t_end, seg.gpu_level)
            else:
                runs.append((seg.t_start, seg.t_end, seg.gpu_level))
        return runs

    def level_residency(self, n_levels: int) -> List[float]:
        """Fraction of wall-clock time spent at each DVFS level."""
        residency = [0.0] * n_levels
        for seg in self.segments:
            residency[seg.gpu_level] += seg.duration
        total = sum(residency)
        if total > 0:
            residency = [r / total for r in residency]
        return residency


@dataclass(frozen=True)
class EnergyReport:
    """Summary of a run in the paper's terms (equation 1).

    ``energy_efficiency`` is images per joule: EE = images / E =
    FPS / P-bar, the positive-is-better metric of section 3.1.
    """

    images: int
    total_time: float
    total_energy: float
    gpu_energy: float
    cpu_energy: float
    board_energy: float
    switch_count: int

    @property
    def fps(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.images / self.total_time

    @property
    def average_power(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.total_energy / self.total_time

    @property
    def energy_efficiency(self) -> float:
        if self.total_energy <= 0:
            return 0.0
        return self.images / self.total_energy

    @property
    def energy_per_image(self) -> float:
        if self.images <= 0:
            return 0.0
        return self.total_energy / self.images


def report_from_trace(trace: Trace, images: int) -> EnergyReport:
    """Condense a trace into an :class:`EnergyReport`."""
    return EnergyReport(
        images=images,
        total_time=trace.total_time,
        total_energy=trace.total_energy,
        gpu_energy=trace.gpu_energy,
        cpu_energy=trace.cpu_energy,
        board_energy=trace.board_energy,
        switch_count=trace.switch_count,
    )


def format_tegrastats(samples: Iterable[TelemetrySample],
                      platform_name: str = "jetson") -> str:
    """Render samples in a tegrastats-like line format.

    Example line::

        RAM 0/0MB ... GR3D_FREQ 87%@1122 VDD_GPU 6540/6540 VDD_CPU 812/812
    """
    lines = []
    for s in samples:
        gpu_pct = int(round(s.gpu_busy * 100))
        lines.append(
            f"[{platform_name} t={s.t:8.3f}s] "
            f"GR3D_FREQ {gpu_pct:3d}%@L{s.gpu_level:02d} "
            f"VDD_GPU {int(s.gpu_power * 1000):6d}mW "
            f"VDD_CPU {int(s.cpu_power * 1000):6d}mW "
            f"TOTAL {int(s.total_power * 1000):6d}mW"
            + (" [faulty]" if s.faulty else "")
        )
    return "\n".join(lines)

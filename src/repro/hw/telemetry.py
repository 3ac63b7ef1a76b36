"""Execution traces, sampled telemetry and energy reports.

The simulator produces two related views of a run:

* an exact, piecewise-constant :class:`Trace` of (interval, frequency,
  power) segments from which energy is integrated with no sampling error;
* a stream of :class:`TelemetrySample` windows — what a real governor
  (or ``tegrastats``) would see — used by the reactive baselines.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

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


#: A kept segment's fields as :class:`Trace` stores them: these as
#: doubles, then the :data:`INT_FIELDS` as C ints.
FLOAT_FIELDS = ("t_start", "t_end", "gpu_power", "cpu_power",
                "board_power", "compute_util", "memory_util")
#: ``kind`` and ``label`` are codes into :attr:`Trace.strings`.
INT_FIELDS = ("kind", "gpu_level", "op_index", "label")
_FLOATS = struct.Struct(f"{len(FLOAT_FIELDS)}d")
_INTS = struct.Struct(f"{len(INT_FIELDS)}i")


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


class SegmentView(Sequence):
    """Read-only, live sequence of a :class:`Trace`'s kept segments (an
    iteration covers those kept when it starts); it builds each
    :class:`TraceSegment` on access."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._ints) // len(INT_FIELDS)

    def __getitem__(self, index):
        indices = range(len(self))[index]
        if isinstance(index, slice):
            return [self[i] for i in indices]
        trace, n_f, n_i = self._trace, len(FLOAT_FIELDS), len(INT_FIELDS)
        t0, t1, gpu_p, cpu_p, board_p, cu, mu = \
            trace._floats[indices * n_f:(indices + 1) * n_f]
        kind, level, op_index, label = \
            trace._ints[indices * n_i:(indices + 1) * n_i]
        strings = trace.strings
        return TraceSegment(t0, t1, strings[kind], level, gpu_p, cpu_p,
                            board_p, cu, mu, strings[label], op_index)

    def __iter__(self) -> Iterator[TraceSegment]:
        strings = self._trace.strings
        for (t0, t1, kind, level, gpu_p, cpu_p, board_p, cu, mu, label,
             op_index) in zip(*map(self._trace.column,
                                   TraceSegment._fields)):
            yield TraceSegment(t0, t1, strings[kind], level, gpu_p, cpu_p,
                               board_p, cu, mu, strings[label], op_index)

    def __eq__(self, other: object) -> bool:
        return list(self) == (list(other) if isinstance(other, SegmentView)
                              else other)


class Trace:
    """Full execution record: exact segments plus derived accounting.

    Kept segments are columns, 72 B a segment: :data:`FLOAT_FIELDS` as
    doubles, :data:`INT_FIELDS` as C ints, kind and label as codes into
    :attr:`strings`.  ``segments`` is a read-only, live view that builds
    a tuple per segment on access, so whole-trace readers use
    :meth:`column` and :meth:`durations_energies` instead.
    """

    def __init__(self, keep_segments: bool = True) -> None:
        self.keep_segments = keep_segments
        # Scalar accumulators (always maintained, even when segments are
        # dropped to bound memory on long task flows).
        self.total_time = 0.0
        self.gpu_energy = 0.0
        self.cpu_energy = 0.0
        self.board_energy = 0.0
        self.busy_gpu_time = 0.0
        self.switch_count = 0
        self._codes: Dict[str, int] = {}
        self._floats = array("d")
        self._ints = array("i")

    @property
    def segments(self) -> SegmentView:
        return SegmentView(self)

    def add(self, t_start: float, t_end: float, kind: str, gpu_level: int,
            gpu_power: float, cpu_power: float, board_power: float,
            compute_util: float = 0.0, memory_util: float = 0.0,
            label: str = "", op_index: int = -1) -> None:
        """Account one segment (the :class:`TraceSegment` fields) and keep
        it if ``keep_segments``; a segment that raises changes nothing.

        The duration must be finite and non-negative: a NaN or infinite
        time gives a NaN or infinite duration, which is rejected.
        """
        dt = t_end - t_start
        if not 0.0 <= dt < math.inf:
            raise ValueError(f"negative or non-finite duration of {kind} "
                             f"segment {label!r}: {t_start!r} -> {t_end!r}")
        if self.keep_segments:
            self.keep(t_start, t_end, self.intern(kind), gpu_level,
                      gpu_power, cpu_power, board_power, compute_util,
                      memory_util, self.intern(label), op_index)
        self.total_time = t_end
        self.gpu_energy += gpu_power * dt
        self.cpu_energy += cpu_power * dt
        self.board_energy += board_power * dt
        if kind == KIND_GPU_OP:
            self.busy_gpu_time += dt
        elif kind == KIND_SWITCH:
            self.switch_count += 1

    def keep(self, t_start: float, t_end: float, kind: int, gpu_level: int,
             gpu_power: float, cpu_power: float, board_power: float,
             compute_util: float, memory_util: float, label: int,
             op_index: int) -> None:
        """Store a checked segment, ``kind`` and ``label`` as
        :meth:`intern` codes, and sum nothing.  Both halves are packed
        first, so a value that does not fit changes neither column."""
        ints = _INTS.pack(kind, gpu_level, op_index, label)
        floats = _FLOATS.pack(t_start, t_end, gpu_power, cpu_power,
                              board_power, compute_util, memory_util)
        self._ints.frombytes(ints)
        self._floats.frombytes(floats)

    def append(self, seg: TraceSegment) -> None:
        self.add(*seg)

    @property
    def strings(self) -> List[str]:
        """Kind and label strings of the kept segments, by code."""
        return list(self._codes)

    def code(self, string: str) -> int:
        """Code of ``string`` in :attr:`strings`, or -1."""
        return self._codes.get(string, -1)

    def intern(self, string: str) -> int:
        """Code of ``string`` in :attr:`strings`, given on first use."""
        codes = self._codes
        return codes.setdefault(string, len(codes))

    def column(self, name: str) -> array:
        """Field ``name`` of every kept segment, as a new typed array
        (``kind`` and ``label`` as codes into :attr:`strings`)."""
        if name in FLOAT_FIELDS:
            return self._floats[FLOAT_FIELDS.index(name)::len(FLOAT_FIELDS)]
        return self._ints[INT_FIELDS.index(name)::len(INT_FIELDS)]

    def durations_energies(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every kept segment's :attr:`TraceSegment.duration` and
        ``energy``, elementwise with the properties' exact arithmetic."""
        rows = np.frombuffer(self._floats).reshape(-1, len(FLOAT_FIELDS))
        durations = rows[:, 1] - rows[:, 0]
        return durations, (rows[:, 2] + rows[:, 3] + rows[:, 4]) * durations

    @property
    def total_energy(self) -> float:
        return self.gpu_energy + self.cpu_energy + self.board_energy

    def frequency_timeline(self) -> List[tuple]:
        """(t_start, t_end, gpu_level) runs — for Figure 1-style plots."""
        runs: List[tuple] = []
        for t_start, t_end, level in zip(*map(
                self.column, ("t_start", "t_end", "gpu_level"))):
            if runs and runs[-1][2] == level and \
                    abs(runs[-1][1] - t_start) < 1e-12:
                runs[-1] = (runs[-1][0], t_end, level)
            else:
                runs.append((t_start, t_end, level))
        return runs

    def level_residency(self, n_levels: int) -> List[float]:
        """Fraction of wall-clock time spent at each DVFS level."""
        residency = [0.0] * n_levels
        for t_start, t_end, level in zip(*map(
                self.column, ("t_start", "t_end", "gpu_level"))):
            residency[level] += t_end - t_start
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

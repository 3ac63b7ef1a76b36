"""Trace diagnostics: ping-pong and reactive-lag quantification.

Figure 1(A)'s criticism of history-driven governors, measured: how often
the frequency reverses direction, how long the GPU runs below the level
it eventually settles at after each burst begins (*lag*), and where the
time goes level-by-level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from repro.hw.telemetry import KIND_GPU_OP, KIND_SWITCH, Trace


class ReversalTracker:
    """Online direction-reversal counter over a sliding time window.

    The offline :func:`analyze_trace` quantifies ping-pong after the
    fact; this is the same reversal definition (up-then-down or
    down-then-up in the switch sequence) maintained incrementally so
    the anomaly detector (:mod:`repro.obs.anomaly`) can flag an
    oscillation while the run is still going.
    """

    def __init__(self, window_s: float = 0.5) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self._reversals: Deque[float] = deque()
        self._prev_dir = 0

    def reset(self) -> None:
        self._reversals.clear()
        self._prev_dir = 0

    def push(self, t: float, from_level: int, to_level: int) -> int:
        """Record one actuated switch; returns the number of direction
        reversals inside the trailing window ending at ``t``."""
        direction = (to_level > from_level) - (to_level < from_level)
        if direction != 0:
            if self._prev_dir != 0 and direction != self._prev_dir:
                self._reversals.append(t)
            self._prev_dir = direction
        horizon = t - self.window_s
        while self._reversals and self._reversals[0] <= horizon:
            self._reversals.popleft()
        return len(self._reversals)


@dataclass(frozen=True)
class LagEvent:
    """One burst start where the governor was still below its eventual
    in-burst level."""

    t_start: float
    lag_s: float
    start_level: int
    settled_level: int


@dataclass
class PingPongReport:
    """Quantified Figure-1 pathologies for one trace."""

    switch_count: int
    reversal_count: int
    total_time: float
    level_residency: List[float] = field(default_factory=list)
    lag_events: List[LagEvent] = field(default_factory=list)

    @property
    def reversal_rate_hz(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.reversal_count / self.total_time

    @property
    def total_lag_s(self) -> float:
        return sum(e.lag_s for e in self.lag_events)

    def format_table(self) -> str:
        lines = [
            f"switches {self.switch_count}, reversals "
            f"{self.reversal_count} "
            f"({self.reversal_rate_hz:.2f}/s)",
            f"lag: {len(self.lag_events)} events, "
            f"{self.total_lag_s * 1000:.0f} ms total",
        ]
        busiest = sorted(enumerate(self.level_residency),
                         key=lambda kv: -kv[1])[:3]
        lines.append("top residency: " + ", ".join(
            f"L{lvl} {share:.0%}" for lvl, share in busiest if share > 0))
        return "\n".join(lines)


def analyze_trace(trace: Trace, n_levels: int,
                  switch_count: int = 0,
                  reversal_count: int = 0) -> PingPongReport:
    """Build the report from a kept trace.

    Lag detection: for every maximal run of GPU-busy segments (a burst),
    the settled level is the level in force for the longest time within
    the burst; the lag is the time spent below it before first reaching
    it.
    """
    report = PingPongReport(
        switch_count=switch_count,
        reversal_count=reversal_count,
        total_time=trace.total_time,
        level_residency=trace.level_residency(n_levels),
    )
    # Split into bursts of consecutive GPU activity.  Switch stalls are
    # part of the burst (they happen *because* the governor reacts
    # mid-burst); only CPU/idle phases end one.  A burst is a list of
    # (t_start, gpu_level, duration) per GPU-op segment.
    gpu_op, switch = trace.code(KIND_GPU_OP), trace.code(KIND_SWITCH)
    bursts: List[List[tuple]] = [[]]
    for kind, level, t_start, t_end in zip(*map(
            trace.column, ("kind", "gpu_level", "t_start", "t_end"))):
        if kind == gpu_op:
            bursts[-1].append((t_start, level, t_end - t_start))
        elif kind != switch and bursts[-1]:
            bursts.append([])

    for burst in filter(None, bursts):
        residency: dict = {}
        for _t, level, duration in burst:
            residency[level] = residency.get(level, 0.0) + duration
        settled = max(residency, key=residency.get)
        lag = 0.0
        for _t, level, duration in burst:
            if level >= settled:
                break
            lag += duration
        if lag > 0:
            report.lag_events.append(LagEvent(
                t_start=burst[0][0],
                lag_s=lag,
                start_level=burst[0][1],
                settled_level=settled,
            ))
    return report

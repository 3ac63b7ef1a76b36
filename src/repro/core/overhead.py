"""Stage timers backing the offline-overhead analysis (Table 3).

The paper breaks PowerLens's offline cost into model-training time and
per-network workflow time (feature extraction, hyper-parameter
prediction, clustering, per-block decisions).  :class:`StageTimer`
accumulates wall-clock per named stage; :class:`OverheadReport` renders
the Table-3 layout.

Since the observability subsystem landed, stage timing is span-derived
rather than hand-timed: every ``stage()`` block is one span on a
private always-on aggregate-only :class:`~repro.obs.tracing.Tracer`
(so Table 3 works with observability off), *mirrored* into an optional
session tracer so the same intervals appear in exported traces.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.obs.tracing import NULL_TRACER, Tracer


class StageTimer:
    """Accumulates wall time per named stage (span-backed).

    ``tracer`` mirrors every stage into a session tracer for trace
    export; when omitted (or disabled) only the private aggregates are
    kept — exactly the pre-observability behaviour.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._agg = Tracer(keep_spans=False)
        self._mirror = tracer if tracer is not None else NULL_TRACER

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        with self._mirror.span(name), self._agg.span(name):
            yield

    def record(self, name: str, seconds: float) -> None:
        """Record an externally measured duration."""
        self._agg.record(name, seconds)
        self._mirror.record(name, seconds)

    def total(self, name: str) -> float:
        return self._agg.total(name)

    def mean(self, name: str) -> float:
        return self._agg.mean(name)


@dataclass
class OverheadReport:
    """Offline overhead in the Table-3 layout.

    ``training`` rows are (phase, seconds); ``workflow`` rows are
    (phase, mean seconds per network).
    """

    training: List[Tuple[str, float]] = field(default_factory=list)
    workflow: List[Tuple[str, float]] = field(default_factory=list)
    dvfs_switch_overhead_s: float = 0.0

    def format_table(self, platform_name: str = "") -> str:
        title = f"Offline overhead of PowerLens ({platform_name})" \
            if platform_name else "Offline overhead of PowerLens"
        lines = [title, "=" * len(title)]
        lines.append("Model Training:")
        for phase, seconds in self.training:
            lines.append(f"  {phase:<45s} {_fmt_duration(seconds)}")
        lines.append("Workflow (per network):")
        for phase, seconds in self.workflow:
            lines.append(f"  {phase:<45s} {_fmt_duration(seconds)}")
        lines.append(
            f"Runtime: mean DVFS switch overhead "
            f"{_fmt_duration(self.dvfs_switch_overhead_s)}")
        return "\n".join(lines)


def _fmt_duration(seconds: float) -> str:
    """Humanize a duration the way Table 3 does (h / s / ms)."""
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 1.0:
        return f"{seconds:.1f}s"
    return f"{seconds * 1000:.0f}ms"

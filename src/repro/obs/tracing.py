"""Span-based tracing for the offline pipeline and the runtime.

A :class:`Tracer` records *spans* — named wall-clock intervals opened
with the :meth:`Tracer.span` context manager.  Spans nest (the tracer
keeps an active-span stack, so a span opened inside another becomes its
child), carry arbitrary JSON-serializable attributes, and are timed with
a monotonic clock (:func:`time.perf_counter` by default; injectable for
tests).  Finished spans land in a bounded in-memory buffer — when the
buffer fills, the oldest-closed spans are *not* rotated out; new spans
are counted in :attr:`Tracer.dropped` instead, so span ids stay dense
and parent links stay resolvable — and per-name duration aggregates
(total / count) are always maintained, buffer or not.

Two properties make it safe to leave the instrumentation in the
production path:

* a **disabled tracer never perturbs the instrumented computation** —
  ``span()`` on a disabled tracer returns a shared no-op handle without
  reading the clock or allocating; the zero-rate equivalence suite in
  ``tests/test_obs_equivalence.py`` pins ``fit()`` outputs and governor
  decisions byte-identical with and without observability attached;
* spans only ever *observe* (timestamps, attributes) — no instrumented
  value flows back into the computation.

Export is JSON Lines: one object per finished span, optionally followed
by a single metrics-snapshot line (see :mod:`repro.obs.metrics`), so a
trace file is self-contained and streamable.  ``powerlens trace``
(:mod:`repro.obs.replay`) rebuilds the span tree from such a file.

Tracers are single-threaded by design: dataset-generation worker
processes each build their own private tracer (see
:mod:`repro.core.labeling`) rather than sharing one across processes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = ["Span", "Tracer", "NULL_TRACER", "DEFAULT_MAX_SPANS"]

#: Default bound on the finished-span buffer (per tracer).
DEFAULT_MAX_SPANS = 100_000


class Span:
    """One named interval.  Returned by :meth:`Tracer.span` so callers
    can attach attributes while the span is open::

        with tracer.span("cluster", scheme=3) as sp:
            blocks = ...
            sp.set(n_blocks=len(blocks))
    """

    __slots__ = ("span_id", "parent_id", "name", "t_start", "t_end",
                 "attributes")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 t_start: float,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t_start = t_start
        self.t_end = t_start
        self.attributes: Dict[str, Any] = dict(attributes or {})

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def to_record(self) -> Dict[str, Any]:
        """JSON-serializable form (one JSONL line of a trace file)."""
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "attrs": self.attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, dur={self.duration:.6f})")


class _NullSpan:
    """Shared no-op span handle: what a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens one real span on enter and finishes
    it on exit (records the end time, pops the stack, aggregates)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is not None:
            self._span.attributes.setdefault("error", repr(exc))
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Records nested spans against a monotonic clock.

    Parameters
    ----------
    enabled:
        ``False`` makes every operation a no-op (the production
        default); :data:`NULL_TRACER` is a shared disabled instance.
    max_spans:
        Bound on the finished-span buffer.  Spans finished beyond the
        bound are dropped (counted in :attr:`dropped`); aggregates keep
        accumulating.  ``0`` keeps aggregates only.
    keep_spans:
        ``False`` is shorthand for ``max_spans=0`` — aggregate-only
        tracers are what :class:`repro.core.overhead.StageTimer` and the
        labeling hot path use internally.
    clock:
        Monotonic time source; injectable so tests can pin timestamps.
    """

    def __init__(self, enabled: bool = True,
                 max_spans: int = DEFAULT_MAX_SPANS,
                 keep_spans: bool = True,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if max_spans < 0:
            raise ValueError("max_spans must be >= 0")
        self.enabled = enabled
        self.max_spans = max_spans if keep_spans else 0
        self._clock = clock
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1
        self.dropped = 0
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        """Open a span; use as a context manager.

        On a disabled tracer this returns a shared no-op handle without
        touching the clock — the cost of shipping instrumentation in the
        production path.
        """
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, parent, name, self._clock(),
                    attributes or None)
        self._next_id += 1
        self._stack.append(span.span_id)
        return _SpanContext(self, span)

    def record(self, name: str, seconds: float,
               **attributes: Any) -> None:
        """Record an externally measured duration as a finished span
        ending now (no nesting: the span parents under the currently
        open span, if any)."""
        if not self.enabled:
            return
        if seconds < 0:
            raise ValueError("duration must be non-negative")
        now = self._clock()
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, parent, name, now - seconds,
                    attributes or None)
        self._next_id += 1
        span.t_end = now
        self._store(span)

    def _finish(self, span: Span) -> None:
        span.t_end = self._clock()
        # Tolerate mis-nested exits (an inner span leaked past an outer
        # one): pop back to — and including — this span.
        if span.span_id in self._stack:
            while self._stack and self._stack.pop() != span.span_id:
                pass
        self._store(span)

    def _store(self, span: Span) -> None:
        self._totals[span.name] = (self._totals.get(span.name, 0.0)
                                   + span.duration)
        self._counts[span.name] = self._counts.get(span.name, 0) + 1
        if len(self._spans) < self.max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (bounded)."""
        return list(self._spans)

    def total(self, name: str) -> float:
        """Summed duration of every finished span named ``name``."""
        return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def mean(self, name: str) -> float:
        count = self._counts.get(name, 0)
        if count == 0:
            return 0.0
        return self._totals[name] / count

    def clear(self) -> None:
        """Drop buffered spans and aggregates (active stack survives)."""
        self._spans = []
        self.dropped = 0
        self._totals = {}
        self._counts = {}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        return [span.to_record() for span in self._spans]

    def export_jsonl(self, path: Union[str, Path],
                     metrics: Optional[Any] = None) -> Path:
        """Write the buffered spans as JSON Lines.

        ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`)
        appends one final ``{"type": "metrics", ...}`` snapshot line so
        the trace file carries the run's counters alongside its spans.
        A ``{"type": "meta", ...}`` header records drop accounting.
        """
        path = Path(path)
        lines = [json.dumps({"type": "meta", "format": "powerlens-trace",
                             "version": 1, "spans": len(self._spans),
                             "dropped": self.dropped}, sort_keys=True)]
        lines += [json.dumps(rec, sort_keys=True)
                  for rec in self.to_records()]
        if metrics is not None:
            lines.append(json.dumps(
                {"type": "metrics", "metrics": metrics.to_dict()},
                sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        return path


#: Shared disabled tracer — the default wherever instrumentation is
#: threaded through but the caller did not opt in.  Never mutates.
NULL_TRACER = Tracer(enabled=False, max_spans=0)

"""Multi-window SLO burn-rate monitoring over the serving event stream.

Implements the SRE-style error-budget burn alert: with an availability
objective ``o`` (say 0.99), the error budget is ``1 - o`` and the
*burn rate* of a window is ``bad_fraction / (1 - o)`` — burn 1.0
spends the budget exactly at the allowed pace, burn 10 spends it 10×
too fast.  A single window either alerts late (long window) or flaps
(short window); pairing a **fast** and a **slow** window and requiring
*both* to exceed the threshold gives quick detection with automatic
reset once the bad fraction subsides.

The monitor is a scheduler sink: called with every event-log record,
it folds the request-terminal ones in virtual time (completions carry
their SLO verdict, every drop counts as bad; ``observe(t, ok)`` feeds
a verdict directly).  It only reads records, so it cannot perturb the
run.  Alert episodes are recorded as ``slo_burn`` spans (start/end in
virtual time, peak burns as attributes); an episode still firing when
the stream stops closes at the last event's time.  The registry from
:meth:`BurnRateMonitor.metrics` exposes ``powerlens_slo_burn_fast``/
``_slow`` peak-burn gauges plus a ``powerlens_slo_burn_alerts_total``
counter.

Calibration contract (pinned in ``tests/test_obs_burnrate.py``): on a
clean, fault-free run of every governor×policy conformance cell the
monitor fires **zero** alerts, while an injected fault storm (tiny
SLOs or mass drops) is detected.  The ``min_events`` floor keeps a
single unlucky request at the start of a run from tripping the fast
window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["BurnRateConfig", "BurnAlert", "BurnRateMonitor"]


@dataclass(frozen=True)
class BurnRateConfig:
    """Knobs for :class:`BurnRateMonitor`.

    ``objective`` is the availability target (fraction of requests
    that must finish within their SLO); ``fast_window_s`` and
    ``slow_window_s`` are the paired lookback windows in virtual
    seconds; an alert requires the burn of *both* windows to reach
    ``threshold`` with at least ``min_events`` requests in the fast
    window.
    """

    objective: float = 0.99
    fast_window_s: float = 0.5
    slow_window_s: float = 2.0
    threshold: float = 4.0
    min_events: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ValueError("windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ValueError("fast window must not exceed slow window")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnAlert:
    """One closed alert episode (virtual time)."""

    t_start: float
    t_end: float
    peak_fast_burn: float
    peak_slow_burn: float
    events: int
    bad_events: int

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


class _Window:
    """Sliding event window over virtual time."""

    __slots__ = ("window_s", "events", "bad")

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self.events: Deque[Tuple[float, bool]] = deque()
        self.bad = 0

    def observe(self, t: float, ok: bool) -> None:
        self.events.append((t, ok))
        if not ok:
            self.bad += 1
        self.advance(t)

    def advance(self, t: float) -> None:
        cutoff = t - self.window_s
        events = self.events
        while events and events[0][0] <= cutoff:
            _, ok = events.popleft()
            if not ok:
                self.bad -= 1

    def bad_fraction(self) -> float:
        if not self.events:
            return 0.0
        return self.bad / len(self.events)


class BurnRateMonitor:
    """Fast/slow error-budget burn monitor (see module docstring)."""

    def __init__(self, config: Optional[BurnRateConfig] = None) -> None:
        self.config = config or BurnRateConfig()
        self._fast = _Window(self.config.fast_window_s)
        self._slow = _Window(self.config.slow_window_s)
        self.events = 0
        self.bad_events = 0
        self.peak_fast_burn = 0.0
        self.peak_slow_burn = 0.0
        self._closed: List[BurnAlert] = []
        self._episode: Optional[Dict[str, Any]] = None
        self._t_last = 0.0

    # ------------------------------------------------------------------
    def __call__(self, event: Dict[str, Any]) -> None:
        """Fold one serving event-log record (the sink interface)."""
        t = float(event["t"])
        kind = event["event"]
        if kind == "complete":
            self.observe(t, bool(event["slo_ok"]))
        elif kind == "drop":
            self.observe(t, False)
        else:
            self._t_last = t

    def observe(self, t: float, ok: bool) -> None:
        """Record one request-terminal event at virtual time ``t``
        (``ok`` is the SLO verdict; drops pass ``False``)."""
        self._t_last = t
        self.events += 1
        if not ok:
            self.bad_events += 1
        self._fast.observe(t, ok)
        self._slow.observe(t, ok)
        budget = self.config.budget
        fast = self._fast.bad_fraction() / budget
        slow = self._slow.bad_fraction() / budget
        self.peak_fast_burn = max(self.peak_fast_burn, fast)
        self.peak_slow_burn = max(self.peak_slow_burn, slow)
        firing = (fast >= self.config.threshold
                  and slow >= self.config.threshold
                  and len(self._fast.events) >= self.config.min_events)
        if firing and self._episode is None:
            self._episode = {"t_start": t, "peak_fast": fast,
                             "peak_slow": slow, "events": 1,
                             "bad": 0 if ok else 1}
        elif self._episode is not None:
            if firing:
                episode = self._episode
                episode["peak_fast"] = max(episode["peak_fast"], fast)
                episode["peak_slow"] = max(episode["peak_slow"], slow)
                episode["events"] += 1
                episode["bad"] += 0 if ok else 1
            else:
                self._closed.append(_alert(self._episode, t))
                self._episode = None

    # ------------------------------------------------------------------
    @property
    def alerts(self) -> List[BurnAlert]:
        """Alert episodes so far; one still firing ends at the last
        event's time."""
        if self._episode is None:
            return list(self._closed)
        return self._closed + [_alert(self._episode, self._t_last)]

    @property
    def alert_count(self) -> int:
        return len(self._closed) + (self._episode is not None)

    def span_rows(self) -> List[Tuple[str, float, float, Dict[str, Any]]]:
        """Alert episodes as ``(name, t_start, t_end, attrs)`` rows for
        span export (``slo_burn`` spans)."""
        rows: List[Tuple[str, float, float, Dict[str, Any]]] = []
        for alert in self.alerts:
            rows.append(("slo_burn", alert.t_start, alert.t_end, {
                "peak_fast_burn": alert.peak_fast_burn,
                "peak_slow_burn": alert.peak_slow_burn,
                "events": alert.events,
                "bad_events": alert.bad_events,
                "objective": self.config.objective,
                "threshold": self.config.threshold,
            }))
        return rows

    def metrics(self) -> MetricsRegistry:
        """Burn accounting as a mergeable registry
        (``powerlens_slo_burn_*``)."""
        registry = MetricsRegistry()
        registry.gauge(
            "powerlens_slo_burn_fast",
            help="Peak fast-window error-budget burn rate").set(
            self.peak_fast_burn)
        registry.gauge(
            "powerlens_slo_burn_slow",
            help="Peak slow-window error-budget burn rate").set(
            self.peak_slow_burn)
        registry.counter(
            "powerlens_slo_burn_alerts_total",
            help="Burn-rate alert episodes fired").inc(
            self.alert_count)
        registry.counter(
            "powerlens_slo_burn_events_total",
            help="Request-terminal events observed by the burn monitor"
        ).inc(self.events)
        registry.counter(
            "powerlens_slo_burn_bad_events_total",
            help="SLO-violating or dropped requests observed").inc(
            self.bad_events)
        return registry

    def summary(self) -> Dict[str, Any]:
        """Small JSON-friendly digest for CLI reporting."""
        alerts = self.alerts
        return {
            "objective": self.config.objective,
            "fast_window_s": self.config.fast_window_s,
            "slow_window_s": self.config.slow_window_s,
            "threshold": self.config.threshold,
            "events": self.events,
            "bad_events": self.bad_events,
            "peak_fast_burn": self.peak_fast_burn,
            "peak_slow_burn": self.peak_slow_burn,
            "alerts": len(alerts),
            "alert_spans": [
                {"t_start": a.t_start, "t_end": a.t_end,
                 "peak_fast_burn": a.peak_fast_burn,
                 "peak_slow_burn": a.peak_slow_burn}
                for a in alerts],
        }


def _alert(episode: Dict[str, Any], t_end: float) -> BurnAlert:
    return BurnAlert(
        t_start=episode["t_start"], t_end=t_end,
        peak_fast_burn=episode["peak_fast"],
        peak_slow_burn=episode["peak_slow"],
        events=episode["events"], bad_events=episode["bad"])

"""Metrics registry: counters, gauges and fixed-bucket histograms.

Design goals, in order:

* **zero cost when disabled** — a disabled registry hands out shared
  no-op metric objects, so call sites unconditionally ``inc()`` /
  ``observe()`` and the production path stays byte-identical (pinned by
  ``tests/test_obs_equivalence.py``);
* **mergeable** — :meth:`MetricsRegistry.merge` folds another
  registry's state in, so per-worker registries (e.g. one per
  ``ProcessPoolExecutor`` worker) can be combined into the coordinator's
  view.  Merge is associative and commutative: counters and histogram
  bucket counts add (exact integer arithmetic), histogram sums add,
  gauges take the maximum (a deterministic, order-free reduction —
  "high-water mark" semantics).  The hypothesis suite in
  ``tests/test_obs_metrics.py`` pins these laws and the
  N-shards-equal-serial property, mirroring the ``n_jobs`` byte-identity
  tests of the dataset generator;
* **two interchangeable exports** — a Prometheus-style text exposition
  (counters as ``*_total``, histograms as cumulative ``_bucket{le=...}``
  series) and a JSON snapshot; the snapshot round-trips losslessly
  through :meth:`MetricsRegistry.from_dict`, and the tests read the
  text back with a parser of their own.

Histograms use *fixed* bucket boundaries chosen at creation (upper
bounds, seconds-flavored default) so shard merges are well-defined;
merging histograms with different boundaries is an error, not a guess.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL_METRICS", "DEFAULT_BUCKETS", "SWITCH_LATENCY_BUCKETS",
    "nearest_rank_index",
]


def nearest_rank_index(n: int, q: float) -> int:
    """0-based index of the nearest-rank ``q``-quantile among ``n``
    sorted values: the rank-``max(1, ceil(q*n))`` order statistic.

    This is the single ranking convention shared by the SLO report's
    percentiles (``repro.serving.slo_report.nearest_rank``) and
    :meth:`Histogram.quantile`, so p50/p90/p99 can never disagree
    between the report and exported metrics (cross-checked in
    ``tests/test_obs_metrics.py``).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if n <= 0:
        raise ValueError("n must be positive")
    return max(1, math.ceil(q * n)) - 1

#: Default histogram boundaries (seconds): latency-flavored log ladder.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Boundaries sized for DVFS switch stalls (tens of µs to tens of ms).
SWITCH_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
)


class Counter:
    """Monotonically increasing integer count."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += int(n)

    def _merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help, "value": self.value}

    def _load(self, payload: Dict[str, Any]) -> None:
        self.value = int(payload["value"])


class Gauge:
    """Point-in-time value.  Merges by maximum (high-water mark), the
    only order-free reduction that keeps merge commutative."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "_set")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self._set = True

    def _merge(self, other: "Gauge") -> None:
        if other._set and (not self._set or other.value > self.value):
            self.value = other.value
            self._set = True

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help, "value": self.value,
                "set": self._set}

    def _load(self, payload: Dict[str, Any]) -> None:
        self.value = float(payload["value"])
        self._set = bool(payload.get("set", True))


class Histogram:
    """Fixed-boundary histogram (Prometheus ``le`` semantics: an
    observation lands in the first bucket whose upper bound is >= it;
    values above every bound land in the implicit +Inf bucket)."""

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "counts", "sum")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value

    @property
    def count(self) -> int:
        return sum(self.counts)

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts in exposition order (ending at the
        +Inf bucket, which equals :attr:`count`)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the fixed buckets.

        Uses the shared nearest-rank convention
        (:func:`nearest_rank_index`): find the bucket holding the
        rank-``max(1, ceil(q*n))`` observation and interpolate linearly
        inside it.  The first finite bucket's lower edge is 0 (our
        histograms hold non-negative durations/sizes); ranks landing in
        the +Inf bucket are clamped to the last finite bound — the
        estimate is then a lower bound, exactly as in Prometheus.
        Returns ``0.0`` for an empty histogram and for ``q == 0``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        total = self.count
        if total == 0 or q == 0.0:
            return 0.0
        rank = nearest_rank_index(total, q) + 1
        running = 0
        for i, c in enumerate(self.counts[:-1]):
            prev = running
            running += c
            if running >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                if c == 0:  # unreachable with integer ranks; keep safe
                    return lower
                frac = (rank - prev) / c
                return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
        return self.bounds[-1]

    def _merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"differ ({self.bounds} vs {other.bounds})")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.sum}

    def _load(self, payload: Dict[str, Any]) -> None:
        counts = [int(c) for c in payload["counts"]]
        if len(counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name!r}: {len(counts)} counts for "
                f"{len(self.bounds)} bounds")
        self.counts = counts
        self.sum = float(payload["sum"])


class _NullMetric:
    """Shared do-nothing metric a disabled registry hands out."""

    __slots__ = ()
    value = 0
    sum = 0.0
    count = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named metrics, create-on-first-use.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when the name is known (kind mismatches raise), so call sites can
    resolve metrics eagerly or lazily without coordination.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # create / fetch
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, **kwargs):
        if not self.enabled:
            return _NULL_METRIC
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s state into this registry (in place); returns
        ``self``.  Metrics unknown here are deep-copied in; same-named
        metrics must agree on kind (and histogram bounds)."""
        if not self.enabled:
            raise ValueError("cannot merge into a disabled registry")
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = Histogram(name, theirs.help,
                                     buckets=theirs.bounds)
                else:
                    mine = type(theirs)(name, theirs.help)
                self._metrics[name] = mine
            elif type(mine) is not type(theirs):
                raise ValueError(
                    f"metric {name!r}: kind mismatch on merge "
                    f"({mine.kind} vs {theirs.kind})")
            mine._merge(theirs)
        return self

    # ------------------------------------------------------------------
    # export / import
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-serializable snapshot."""
        return {name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls(enabled=True)
        for name, spec in payload.items():
            kind = spec.get("kind")
            if kind not in _KINDS:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
            if kind == "histogram":
                metric = Histogram(name, spec.get("help", ""),
                                   buckets=spec["bounds"])
            else:
                metric = _KINDS[kind](name, spec.get("help", ""))
            metric._load(spec)
            registry._metrics[name] = metric
        return registry

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition (version 0.0.4 style)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Counter):
                lines.append(f"{name} {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"{name} {_fmt_float(metric.value)}")
            else:
                cumulative = metric.cumulative()
                for bound, cum in zip(metric.bounds, cumulative):
                    lines.append(
                        f'{name}_bucket{{le="{_fmt_float(bound)}"}} {cum}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative[-1]}')
                lines.append(f"{name}_sum {_fmt_float(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_float(value: float) -> str:
    """Shortest exact float rendering (repr round-trips in Python 3)."""
    return repr(float(value))


#: Shared disabled registry — safe module singleton (hands out the
#: stateless null metric, never accumulates).
NULL_METRICS = MetricsRegistry(enabled=False)

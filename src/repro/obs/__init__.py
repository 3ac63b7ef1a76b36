"""Observability: span tracing and metrics for pipeline and runtime.

The subsystem's modules:

``tracing``
    :class:`Tracer` — nested wall-clock spans with per-span attributes,
    a bounded in-memory buffer, per-name aggregates and JSONL export.
``metrics``
    :class:`MetricsRegistry` — counters, gauges and fixed-bucket
    histograms with worker-merge support, Prometheus text exposition
    and a JSON snapshot format.
``replay``
    Trace-file parsing, span-tree reconstruction and the summary
    renderer behind ``powerlens trace <file>``.
``ledger``
    :class:`EnergyLedger` — post-hoc energy/time attribution of a
    simulated run to power blocks and operators, with an exact
    reconciliation invariant and misprediction flagging
    (``powerlens ledger``).
``anomaly``
    :class:`AnomalyDetector` — online power-spike / ping-pong /
    stall-budget detection over telemetry windows and switch results.
``burnrate`` / ``timeline``
    Projections of the serving event log: SLO burn-rate alerts and the
    per-request critical path with its Chrome trace export
    (``powerlens timeline``).

Runs export through files only: the CLI's ``--trace`` (JSONL spans
plus a metrics snapshot) and ``--metrics`` (Prometheus text), written
once as the command ends, also when it raises.

:class:`Observability` bundles one tracer and one registry so a single
handle threads through the stack (``PowerLens``, ``DatasetGenerator``,
``DatasetCache``, ``PresetGovernor``, ``InferenceSimulator``, the CLI).
The disabled bundle :data:`NULL_OBS` is the default everywhere: no-op,
allocation-free on the hot paths, and guaranteed not to perturb any
instrumented computation (``tests/test_obs_equivalence.py`` pins
``fit()`` outputs and governor decisions byte-identical with
observability on and off).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    SWITCH_LATENCY_BUCKETS,
    nearest_rank_index,
)
from repro.obs.replay import (
    SpanNode,
    TraceFile,
    read_trace,
    span_tree,
    summarize_trace,
)
from repro.obs.tracing import (
    DEFAULT_MAX_SPANS,
    NULL_TRACER,
    Span,
    Tracer,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "SWITCH_LATENCY_BUCKETS",
    "NULL_METRICS", "Span", "Tracer", "NULL_TRACER", "DEFAULT_MAX_SPANS",
    "Observability", "NULL_OBS",
    "SpanNode", "TraceFile", "read_trace", "span_tree",
    "summarize_trace",
    "EnergyLedger",
    "Anomaly", "AnomalyDetector",
    "BurnRateConfig", "BurnRateMonitor", "BurnAlert",
    "ServingTimeline", "validate_chrome_trace", "nearest_rank_index",
]

#: Lazily-imported members (PEP 562).  ``ledger`` needs
#: :mod:`repro.hw.telemetry` and ``anomaly`` needs
#: :mod:`repro.analysis`, both of which transitively import the
#: simulator — which imports *this* package.  Resolving them on first
#: attribute access instead of at import time keeps ``repro.obs``
#: import-order safe (and numpy-free for plain tracing/metrics use).
_LAZY_SUBMODULE = {
    "EnergyLedger": "ledger",
    "BlockLedgerRow": "ledger",
    "Reconciliation": "ledger",
    "Anomaly": "anomaly",
    "AnomalyDetector": "anomaly",
    "BurnRateConfig": "burnrate",
    "BurnRateMonitor": "burnrate",
    "BurnAlert": "burnrate",
    "ServingTimeline": "timeline",
    "validate_chrome_trace": "timeline",
}


def __getattr__(name: str):
    submodule = _LAZY_SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{submodule}")
    value = getattr(module, name)
    globals()[name] = value
    return value


@dataclass
class Observability:
    """One tracer + one metrics registry, threaded as a unit."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def enabled_bundle(cls, max_spans: int = DEFAULT_MAX_SPANS
                       ) -> "Observability":
        """Fresh fully-enabled bundle (what ``--trace`` builds)."""
        return cls(tracer=Tracer(max_spans=max_spans),
                   metrics=MetricsRegistry())


#: Shared disabled bundle — the default wherever ``obs`` is accepted.
#: Both members are inert singletons; never mutates.
NULL_OBS = Observability(tracer=NULL_TRACER, metrics=NULL_METRICS)

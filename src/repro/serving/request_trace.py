"""Request-lifecycle tracing for the fleet serving simulator.

The serving event log says *what* happened; this module says *where
each request's latency went*.  A :class:`RequestTracer` is a scheduler
sink: :class:`~repro.serving.scheduler.FleetScheduler` hands it every
event-log record, and it folds them with the
:class:`~repro.obs.timeline.ServingTimeline` reconstruction into one
span tree per request::

    request                          (admit .. terminal)
      queued                         (admit .. last co-batched arrival)
      batched                        (batch formed .. dispatch)
      dispatched                     (dispatch .. completion)

with attributes for the device id, queueing policy, sparsity bucket,
plan-family member (the executed plan's fingerprint), the device's
recovery state at dispatch, and the request's even share of the
dispatch :class:`~repro.obs.ledger.EnergyLedger` joules — all read off
the ``dispatch`` event.  Dropped requests carry a single ``queued``
child ending at the drop, and ``queue_full`` rejections are
zero-length roots.

A sink only reads records the scheduler already appended to its log,
so tracing cannot perturb the run; and because the tracer *is* the log
fold, a tracer rebuilt from a written event log
(:meth:`RequestTracer.from_file`) yields the same rows as the live one
(``tests/test_serving_request_trace.py`` pins both).

**Sampling** keeps million-request runs bounded.  Head sampling is a
pure function of ``(seed, request_id)`` (sha256, no shared RNG
streams), so the sampled set is identical on every replay; tail
sampling *always* keeps the interesting requests — SLO violations,
expirations, unserviceable/queue-full drops and requests whose job
raised anomalies — regardless of the head rate.

Export is the same JSONL span schema as :mod:`repro.obs.tracing`, so
``powerlens trace`` replays a request-trace file unchanged; span ids
are assigned densely in request-id order at export time, keeping the
file byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import OUTCOME_COMPLETED, RequestRow, ServingTimeline

__all__ = ["SamplingConfig", "RequestTracer", "head_sample_keep",
           "OUTCOME_COMPLETED"]


def head_sample_keep(seed: int, request_id: int, rate: float) -> bool:
    """Deterministic head-sampling decision for one request.

    A pure function of ``(seed, request_id)`` — sha256 bits mapped to
    [0, 1) and compared against ``rate`` — so the sampled set never
    depends on arrival order, scheduling, or any shared RNG stream.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    blob = f"{seed}/head-sample/{request_id}".encode()
    bits = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 11
    return bits / float(1 << 53) < rate


@dataclass(frozen=True)
class SamplingConfig:
    """Deterministic sampling knobs for :class:`RequestTracer`.

    ``head_rate`` is the fraction of requests kept unconditionally
    (seeded, per-request-id); the anomalous tail (drops, SLO
    violations, anomaly-flagged jobs) is always kept on top.
    """

    head_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.head_rate <= 1.0:
            raise ValueError("head_rate must be in [0, 1]")


def request_spans(row: RequestRow, policy: str,
                  next_id: int) -> List[Dict[str, Any]]:
    """One request's span tree as JSONL records (ids from ``next_id``
    up), compatible with :func:`repro.obs.replay.read_trace`."""
    root_attrs: Dict[str, Any] = {
        "request_id": row.request_id,
        "model": row.model,
        "images": row.images,
        "outcome": row.outcome,
        "policy": policy,
        "slo_ok": row.slo_ok,
    }
    if math.isfinite(row.slo_latency_s):
        root_attrs["slo_latency_s"] = row.slo_latency_s
    if row.sparsity > 0.0:
        root_attrs["sparsity"] = row.sparsity
    if row.cause:
        root_attrs["cause"] = row.cause
    if not row.sampled_head:
        root_attrs["tail_sampled"] = True
    root_id = next_id
    records = [_span(root_id, None, "request", row.t_arrival, row.t_end,
                     root_attrs)]
    if row.outcome == "queue_full":
        return records
    queued_attrs: Dict[str, Any] = {"queue_s": row.queue_s}
    if row.recovery_stall_s > 0.0:
        queued_attrs["recovery_stall_s"] = row.recovery_stall_s
    records.append(_span(root_id + 1, root_id, "queued", row.t_arrival,
                         row.t_batch_ready, queued_attrs))
    if not row.completed:
        return records
    records.append(_span(
        root_id + 2, root_id, "batched", row.t_batch_ready,
        row.t_dispatch,
        {"batch_s": row.batch_s,
         "n_requests": len(row.batch_request_ids),
         "request_ids": list(row.batch_request_ids)}))
    dispatched_attrs: Dict[str, Any] = {
        "service_s": row.service_s,
        "device": row.device,
        "dispatch_seq": row.dispatch_seq,
        "energy_j": row.energy_j,
        "ledger_energy_j": row.ledger_energy_j,
        "recovery_state": row.recovery_state,
    }
    if row.plan_fingerprint:
        dispatched_attrs["plan"] = row.plan_fingerprint
    if row.sparsity_bucket > 0.0:
        dispatched_attrs["sparsity_bucket"] = row.sparsity_bucket
    if row.new_anomalies:
        dispatched_attrs["new_anomalies"] = row.new_anomalies
    records.append(_span(root_id + 3, root_id, "dispatched",
                         row.t_dispatch, row.t_end, dispatched_attrs))
    return records


def _span(span_id: int, parent_id: Optional[int], name: str,
          t_start: float, t_end: float,
          attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "span", "span_id": span_id, "parent_id": parent_id,
            "name": name, "t_start": t_start, "t_end": t_end,
            "attrs": attrs}


class RequestTracer(ServingTimeline):
    """Sampled request-lifecycle recorder (see module docstring).

    A :class:`~repro.obs.timeline.ServingTimeline` whose terminal rows
    also pass through head/tail sampling.  Everything known before the
    run comes from the constructor: the queueing ``policy`` name, the
    ``requests`` table (per-request SLO and sparsity — pass the
    ``ArrivalTrace``'s requests) and the initial ``healthy_devices``
    count.
    """

    def __init__(self, sampling: Optional[SamplingConfig] = None,
                 requests: Iterable[Any] = (),
                 healthy_devices: Optional[int] = None,
                 policy: str = "") -> None:
        super().__init__(requests, healthy_devices)
        self.sampling = sampling or SamplingConfig()
        self.policy = policy
        self.sampled_head_count = 0
        self.sampled_tail_count = 0
        self._traces: List[RequestRow] = []

    def _finish(self, row: RequestRow) -> None:
        super()._finish(row)
        cfg = self.sampling
        if head_sample_keep(cfg.seed, row.request_id, cfg.head_rate):
            self.sampled_head_count += 1
        elif row.anomalous:
            row.sampled_head = False
            self.sampled_tail_count += 1
        else:
            return
        self._traces.append(row)

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    @property
    def requests_seen(self) -> int:
        """Requests admitted or rejected so far."""
        return len(self.requests) + len(self._pending)

    def traces(self) -> List[RequestRow]:
        """Sampled request rows in terminal-event order."""
        return list(self._traces)

    @property
    def sampled_count(self) -> int:
        return len(self._traces)

    def metrics(self) -> MetricsRegistry:
        """Sampling accounting as a mergeable registry."""
        registry = MetricsRegistry()
        registry.counter(
            "powerlens_request_trace_seen_total",
            help="Requests observed by the request tracer").inc(
            self.requests_seen)
        registry.counter(
            "powerlens_request_trace_sampled_total",
            help="Requests kept by head or tail sampling").inc(
            self.sampled_count)
        registry.counter(
            "powerlens_request_trace_tail_kept_total",
            help="Anomalous-tail requests kept beyond the head rate"
        ).inc(self.sampled_tail_count)
        return registry

    def span_records(self) -> List[Dict[str, Any]]:
        """Every sampled request's span tree, ids dense in request-id
        order (byte-stable across replays)."""
        records: List[Dict[str, Any]] = []
        for row in sorted(self._traces, key=lambda r: r.request_id):
            records.extend(request_spans(row, self.policy,
                                         len(records) + 1))
        return records

    def export_jsonl(self, path: Union[str, Path],
                     burn: Optional[Any] = None) -> Path:
        """Write the sampled span trees as a JSONL trace file
        (readable by ``powerlens trace``); a
        :class:`~repro.obs.burnrate.BurnRateMonitor` appends its
        ``slo_burn`` spans after the request spans."""
        path = Path(path)
        records = self.span_records()
        if burn is not None:
            for name, t_start, t_end, attrs in burn.span_rows():
                records.append(_span(len(records) + 1, None, name,
                                     t_start, t_end, attrs))
        meta = {"type": "meta", "format": "powerlens-request-trace",
                "version": 1,
                "requests_seen": self.requests_seen,
                "sampled": self.sampled_count,
                "tail_kept": self.sampled_tail_count,
                "head_rate": self.sampling.head_rate,
                "sampling_seed": self.sampling.seed,
                "policy": self.policy,
                "spans": len(records),
                "dropped": 0}
        lines = [json.dumps(meta, sort_keys=True)]
        lines += [json.dumps(rec, sort_keys=True) for rec in records]
        path.write_text("\n".join(lines) + "\n")
        return path

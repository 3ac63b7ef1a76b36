"""The fleet scheduler: a deterministic discrete-event serving loop.

:class:`FleetScheduler` consumes a pre-materialized
:class:`~repro.serving.arrivals.ArrivalTrace` and drives a
:class:`~repro.serving.fleet.Fleet` through virtual time:

* **admission** — an arriving request joins the waiting queue or is
  dropped (``queue_full``) when the queue is at capacity;
* **dispatch** — whenever a healthy idle device exists, the queueing
  policy picks the next batch (same model, same image count), the
  scheduler routes it to the cheapest device under the policy's cost
  axis (predicted joules for ``energy``, predicted seconds otherwise)
  and executes the coalesced :class:`~repro.hw.simulator.InferenceJob`
  through the full governor/simulator stack;
* **completion** — the job's simulated duration advances the clock via
  a completion event; per-request latency and an even energy share are
  logged, and the device's anomaly count is re-checked: reaching
  :data:`~repro.serving.fleet.UNHEALTHY_AFTER` drains the device;
* **recovery** — with :class:`~repro.serving.fleet.RecoveryConfig` a
  drain is not terminal: after an exponentially backed-off cooldown the
  scheduler dispatches a canonical *probe* job (sharing the dispatch
  sequence, so seeds stay deterministic); a clean probe re-admits the
  device on probation (any probation anomaly re-drains it), a failed
  probe re-enters cooldown with doubled backoff until ``max_attempts``
  makes the drain permanent;
* **expiry / drain** — requests whose SLO deadline passed before
  dispatch are dropped (``expired``); requests are dropped
  ``unserviceable`` the moment the fleet goes *dead* — every device
  drained and no probe pending (event ``cause="fleet_drained"``) —
  rather than sitting in the queue until trace end (``trace_end``).

Everything the loop does lands in an append-only **event log** whose
canonical JSONL serialization is byte-identical across repeated runs of
the same ``(trace, config)`` — the determinism property the hypothesis
suite pins.  The event heap orders ties by ``(t, priority, seq)`` with
completions (priority 0) ahead of arrivals (priority 1), so equal-time
ordering is explicit, never dict- or hash-dependent.

The log is also the only record of the run: the loop emits events and
keeps no tallies of its own.  The SLO report and the scheduler's
``powerlens_serving_*`` metrics are one fold of the finished log
(:meth:`~repro.serving.slo_report.SLOReport.from_run`), and ``sinks``
are called with each record as it is appended.  Request traces
(:class:`~repro.serving.request_trace.RequestTracer`), burn-rate alerts
(:class:`~repro.obs.burnrate.BurnRateMonitor`) and the timeline
(:class:`~repro.obs.timeline.ServingTimeline`) are such sinks, so they
cannot change what the loop does, and replaying a written log through
them (or through the report's fold) rebuilds what they saw live.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hw.simulator import InferenceJob
from repro.obs import Observability, NULL_OBS
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import RequestRow, ServingTimeline
from repro.serving.arrivals import ArrivalTrace, Request
from repro.serving.fleet import (
    DispatchRecord,
    Fleet,
    RecoveryConfig,
    SimulatedDevice,
)
from repro.serving.queueing import QueuePolicy, make_policy
from repro.serving.slo_report import (
    DROP_EXPIRED,
    DROP_QUEUE_FULL,
    DROP_UNSERVICEABLE,
    SLOReport,
)
from repro.workloads import make_request_job

__all__ = ["SchedulerConfig", "ServingResult", "FleetScheduler",
           "EventSink", "canonical_event_line", "DROP_QUEUE_FULL",
           "DROP_EXPIRED", "DROP_UNSERVICEABLE"]

#: A sink is called with every event record the moment it is appended
#: to the log; it may read the record but must not mutate it.
EventSink = Callable[[Dict[str, object]], None]

#: Heap priorities: completions free devices before same-time arrivals;
#: recovery probes run after both so they never shadow real traffic.
_PRIO_COMPLETE = 0
_PRIO_ARRIVAL = 1
_PRIO_PROBE = 2


def canonical_event_line(record: Dict[str, object]) -> str:
    """One event as canonical JSON: sorted keys, no whitespace — the
    unit of the byte-identity contract."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs (the fleet itself is built separately)."""

    policy: str = "fifo"
    max_batch: int = 4
    queue_capacity: int = 64
    cpu_work_per_image: float = 1.2e8
    #: Re-admit drained devices (None keeps drains permanent).
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if not (math.isfinite(self.cpu_work_per_image)
                and self.cpu_work_per_image >= 0):
            raise ValueError("cpu_work_per_image must be finite and >= 0")


@dataclass
class ServingResult:
    """Everything one :meth:`FleetScheduler.run` produced."""

    report: SLOReport
    events: List[Dict[str, object]]
    metrics: MetricsRegistry
    dispatches: List[DispatchRecord] = field(default_factory=list)

    @property
    def outcomes(self) -> List[RequestRow]:
        """The completed requests, rebuilt from the event log."""
        timeline = ServingTimeline.from_events(self.events)
        return [row for row in timeline.requests.values()
                if row.completed]

    def event_log(self) -> str:
        """Canonical JSONL event log (byte-identical across runs)."""
        return "".join(canonical_event_line(r) + "\n"
                       for r in self.events)


class FleetScheduler:
    """Admission + routing over one fleet (see module docstring)."""

    def __init__(self, fleet: Fleet,
                 config: Optional[SchedulerConfig] = None,
                 obs: Optional[Observability] = None,
                 sinks: Sequence[EventSink] = ()) -> None:
        self.fleet = fleet
        self.config = config or SchedulerConfig()
        self.policy: QueuePolicy = make_policy(self.config.policy)
        self.obs = obs if obs is not None else NULL_OBS
        # Request traces, burn-rate alerts and timelines are projections
        # of the event log: each sink sees exactly the records appended
        # to ``events``, in order, and nothing else of the run.
        self.sinks = tuple(sinks)

    # ------------------------------------------------------------------
    def run(self, trace: ArrivalTrace) -> ServingResult:
        """Serve ``trace`` to completion; returns the full outcome."""
        cfg = self.config
        fleet = self.fleet
        for device in fleet.devices:
            device.busy = False
        batch_sizes = sorted({r.images for r in trace.requests})
        if trace.requests:
            fleet.prewarm(trace.models, batch_sizes)

        events: List[Dict[str, object]] = []
        dispatches: List[DispatchRecord] = []
        queue: List[Request] = []
        dispatch_seq = 0
        event_seq = 0
        makespan = 0.0
        sinks = self.sinks

        def emit(t: float, kind: str, **fields: object) -> None:
            nonlocal event_seq
            record: Dict[str, object] = {"seq": event_seq, "t": t,
                                         "event": kind}
            record.update(fields)
            events.append(record)
            event_seq += 1
            for sink in sinks:
                sink(record)

        # (t, priority, tiebreak_seq, kind, payload)
        heap: List[Tuple[float, int, int, str, object]] = []
        for i, request in enumerate(trace.requests):
            heapq.heappush(heap, (request.t_arrival, _PRIO_ARRIVAL, i,
                                  "arrival", request))
        heap_seq = len(trace.requests)
        recovery = cfg.recovery
        pending_probes = 0
        arrivals_pending = len(trace.requests)
        # Probe jobs exercise the lexicographically first model at
        # batch 1 — a fixed, deterministic choice.
        probe_graph = (fleet.graph_for(sorted(trace.models)[0])
                       if trace.requests else None)

        def drop(t: float, request: Request, reason: str,
                 cause: Optional[str] = None) -> None:
            fields: Dict[str, object] = dict(
                request_id=request.request_id, model=request.model,
                reason=reason)
            if cause is not None:
                fields["cause"] = cause
            emit(t, "drop", **fields)

        def work_remains() -> bool:
            return bool(queue) or arrivals_pending > 0

        def fleet_dead() -> bool:
            return (pending_probes == 0
                    and all(d.drained for d in fleet.devices))

        def purge_if_dead(t: float) -> None:
            # Every device drained and no probe can revive one: the
            # queue can never drain, so account the requests now with
            # a distinct cause instead of holding them to trace end.
            if not queue or not fleet_dead():
                return
            for request in list(queue):
                drop(t, request, DROP_UNSERVICEABLE,
                     cause="fleet_drained")
            queue.clear()

        def schedule_probe(t: float, device: SimulatedDevice) -> None:
            nonlocal heap_seq, pending_probes
            if recovery is None:
                return
            if device.recovery_attempts >= recovery.max_attempts:
                emit(t, "recovery_exhausted", device=device.name,
                     attempts=device.recovery_attempts)
                return
            delay = recovery.cooldown_after(device.recovery_attempts)
            device.begin_cooldown()
            pending_probes += 1
            heapq.heappush(heap, (t + delay, _PRIO_PROBE, heap_seq,
                                  "probe", device))
            heap_seq += 1
            emit(t, "cooldown", device=device.name,
                 attempt=device.recovery_attempts, probe_at=t + delay)

        def purge_expired(t: float) -> None:
            # Runs before every dispatch attempt: scan without building
            # a list when (as usual) nothing has expired.
            if all(r.deadline >= t for r in queue):
                return
            expired = [r for r in queue if r.deadline < t]
            queue[:] = [r for r in queue if r.deadline >= t]
            for request in sorted(expired,
                                  key=lambda r: r.request_id):
                drop(t, request, DROP_EXPIRED)

        def pick_device(requests: Sequence[Request],
                        candidates: Sequence[Tuple[int, SimulatedDevice]]
                        ) -> SimulatedDevice:
            """Cheapest of the (fleet index, device) ``candidates``;
            ties go to the lower fleet index."""
            graph = fleet.graph_for(requests[0].model)
            n_batches = len(requests)

            def cost(item: Tuple[int, SimulatedDevice]
                     ) -> Tuple[float, int]:
                index, device = item
                time_s, energy_j = device.predict(
                    graph, requests[0].images)
                axis = energy_j if self.policy.name == "energy" \
                    else time_s
                return (axis * n_batches, index)

            return min(candidates, key=cost)[1]

        def try_dispatch(t: float) -> None:
            nonlocal dispatch_seq, heap_seq
            while True:
                purge_expired(t)
                if not queue:
                    return
                candidates = [(i, d) for i, d in enumerate(fleet.devices)
                              if not (d.drained or d.busy)]
                if not candidates:
                    return
                indices = self.policy.select_batch(queue, t,
                                                   cfg.max_batch)
                if not indices:
                    return
                batch = [queue[i] for i in indices]
                for i in sorted(indices, reverse=True):
                    del queue[i]
                device = pick_device(batch, candidates)
                graph = fleet.graph_for(batch[0].model)
                job = make_request_job(
                    graph, n_requests=len(batch),
                    images_per_request=batch[0].images,
                    cpu_work_per_image=cfg.cpu_work_per_image,
                    first_request_id=batch[0].request_id,
                    sparsity=batch[0].sparsity,
                )
                record = device.execute(job, dispatch_seq)
                device.busy = True
                dispatches.append(record)
                t_done = t + record.duration_s
                # Dense, fault-free dispatches omit the sparsity and
                # anomaly fields entirely (zero is the reader default).
                extra: Dict[str, object] = {}
                if batch[0].sparsity > 0.0:
                    extra["sparsity"] = batch[0].sparsity
                if record.sparsity_bucket > 0.0:
                    extra["sparsity_bucket"] = record.sparsity_bucket
                if record.new_anomalies:
                    extra["new_anomalies"] = record.new_anomalies
                emit(t, "dispatch", device=device.name,
                     model=batch[0].model, images=batch[0].images,
                     n_requests=len(batch),
                     request_ids=[r.request_id for r in batch],
                     predicted_done=t_done, plan=record.plan_fingerprint,
                     duration=record.duration_s, energy=record.energy_j,
                     ledger_energy=record.ledger_energy_j,
                     recovery_state=device.recovery_state, **extra)
                heapq.heappush(heap, (t_done, _PRIO_COMPLETE, heap_seq,
                                      "complete", (device, batch, record)))
                heap_seq += 1
                dispatch_seq += 1

        # -- the event loop ------------------------------------------------
        while heap:
            t, _prio, _seq, kind, payload = heapq.heappop(heap)
            if kind == "arrival":
                request = payload
                arrivals_pending -= 1
                if len(queue) >= cfg.queue_capacity:
                    drop(t, request, DROP_QUEUE_FULL)
                else:
                    queue.append(request)
                    emit(t, "admit", request_id=request.request_id,
                         model=request.model, images=request.images)
                    purge_if_dead(t)
            elif kind == "probe":
                device = payload
                pending_probes -= 1
                if not work_remains():
                    # Nothing left to serve: skip the probe so the
                    # event loop can terminate.
                    continue
                device.recovery_state = "probing"
                device.busy = True
                pending_probes += 1
                probe_job = InferenceJob(
                    graph=probe_graph, batch_size=1, n_batches=1,
                    cpu_work_per_image=cfg.cpu_work_per_image,
                    name=f"{probe_graph.name}_probe")
                record = device.execute(probe_job, dispatch_seq)
                dispatch_seq += 1
                emit(t, "probe", device=device.name,
                     attempt=device.recovery_attempts,
                     duration=record.duration_s, energy=record.energy_j,
                     ledger_energy=record.ledger_energy_j,
                     anomalies=record.new_anomalies)
                heapq.heappush(heap, (t + record.duration_s,
                                      _PRIO_COMPLETE, heap_seq,
                                      "probe_done", (device, record)))
                heap_seq += 1
            elif kind == "probe_done":
                device, record = payload
                device.busy = False
                pending_probes -= 1
                if record.new_anomalies > 0:
                    device.recovery_attempts += 1
                    device.recovery_state = "drained"
                    emit(t, "probe_fail", device=device.name,
                         attempts=device.recovery_attempts,
                         anomalies=record.new_anomalies)
                    schedule_probe(t, device)
                    purge_if_dead(t)
                else:
                    device.begin_probation(recovery.probation_jobs)
                    emit(t, "readmit", device=device.name,
                         probation_jobs=recovery.probation_jobs)
            else:  # complete
                device, batch, record = payload
                device.busy = False
                makespan = max(makespan, t)
                share = record.energy_j / len(batch)
                for request in batch:
                    latency = t - request.t_arrival
                    emit(t, "complete",
                         request_id=request.request_id,
                         device=device.name,
                         latency=latency,
                         energy=share,
                         slo_ok=latency <= request.slo_latency_s)
                if recovery is not None \
                        and device.recovery_state == "probation":
                    if record.new_anomalies > 0:
                        # Zero tolerance on probation: one anomaly
                        # sends the device straight back to cooldown.
                        device.recovery_attempts += 1
                        device.begin_drain()
                        emit(t, "redrain", device=device.name,
                             anomalies=device.anomaly_count)
                        schedule_probe(t, device)
                        purge_if_dead(t)
                    else:
                        device.probation_left -= 1
                        if device.probation_left <= 0:
                            device.complete_probation()
                            emit(t, "recover", device=device.name)
                elif not device.drained and device.over_anomaly_budget:
                    device.begin_drain()
                    emit(t, "drain", device=device.name,
                         anomalies=device.anomaly_count)
                    schedule_probe(t, device)
                    purge_if_dead(t)
            try_dispatch(t)

        # -- end of trace: account every request still waiting -------------
        t_end = max(makespan, trace.requests[-1].t_arrival
                    if trace.requests else 0.0)
        purge_expired(t_end)
        for request in queue:
            drop(t_end, request, DROP_UNSERVICEABLE, cause="trace_end")
        queue.clear()

        metrics = MetricsRegistry()
        report = SLOReport.from_run(events, policy=self.policy.name,
                                    trace=trace, devices=fleet.devices,
                                    metrics=metrics)
        if not report.conserved:
            raise RuntimeError("serving run lost requests: " + ", ".join(
                f"{name}={getattr(report, name)}" for name in (
                    "arrived", "admitted", "completed", "dropped_queue_full",
                    "dropped_expired", "dropped_unserviceable")))
        fleet_metrics = self.fleet.merged_metrics()
        fleet_metrics.merge(metrics)
        self._record_summary_metrics(fleet_metrics, report)
        if self.obs.metrics.enabled:
            self.obs.metrics.merge(fleet_metrics)
        return ServingResult(report=report, events=events,
                             metrics=fleet_metrics, dispatches=dispatches)

    # ------------------------------------------------------------------
    @staticmethod
    def _record_summary_metrics(metrics: MetricsRegistry,
                                report: SLOReport) -> None:
        metrics.gauge("powerlens_serving_fleet_energy_joules",
                      help="Total fleet energy of the run").set(
            report.fleet_energy_j)
        if report.completed:
            metrics.gauge("powerlens_serving_joules_per_request").set(
                report.joules_per_request)
            metrics.gauge("powerlens_serving_latency_p99_seconds").set(
                report.latency_p99_s)
        metrics.gauge("powerlens_serving_makespan_seconds").set(
            report.makespan_s)
        metrics.gauge(
            "powerlens_serving_drained_device_seconds",
            help="Total device-seconds spent drained").set(
            report.drained_device_seconds)

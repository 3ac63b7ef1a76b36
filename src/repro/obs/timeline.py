"""Timeline reconstruction and Chrome ``trace_event`` export for
serving event logs.

The canonical serving event log (``serve-sim --event-log``) is a
complete record of the run: every admit/dispatch/complete/drop plus
the recovery state machine's transitions, all in virtual time.  This
module turns that log back into structure:

* :class:`ServingTimeline` — per-request lifecycles (arrival → batch
  ready → dispatch → terminal), per-device busy/probe intervals, the
  queue-depth step function, and recovery transitions, reconstructed
  purely from the log (no simulator state needed).  The reconstruction
  is an incremental fold, one record at a time, so the same code runs
  live as a scheduler sink and post hoc over a written log — the
  request tracer (:mod:`repro.serving.request_trace`) is this fold
  plus sampling and span export;
* a **critical-path breakdown**: each completed request's latency is
  decomposed into ``queue`` (waiting while its batch accumulated),
  ``batch`` (formed batch waiting for a device) and ``service``
  (on-device execution); the three components are differences of the
  same timestamps, so they sum to the end-to-end latency exactly —
  the CLI table's invariant (≤1e-9, pinned in tests);
* a **Chrome/Perfetto ``trace_event`` JSON** export
  (:meth:`ServingTimeline.to_chrome_trace`): one process per device
  (complete ``X`` slices for jobs and probes, instant markers for
  drain/readmit/…), a scheduler process with the queue-depth counter
  and ``slo_burn`` alert slices, and one thread per sampled request
  showing its queued/batched/dispatched phases.  Load the file at
  ``chrome://tracing`` or https://ui.perfetto.dev.

Virtual seconds are scaled to microseconds (the ``ts`` unit Chrome
expects); everything is deterministic — same log in, same JSON out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import (Any, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.obs.metrics import nearest_rank_index

__all__ = ["RequestRow", "DeviceTrack", "ServingTimeline",
           "OUTCOME_COMPLETED", "read_event_log", "looks_like_event_log",
           "summarize_serving_events", "validate_chrome_trace"]

#: Virtual seconds → Chrome ``ts`` microseconds.
_US = 1e6

#: Event kinds rendered as instant markers on their device's track.
_DEVICE_MARKERS = ("drain", "redrain", "cooldown", "probe_fail",
                   "readmit", "recover", "recovery_exhausted")

#: Healthy-device count change carried by each fleet-health event.
_HEALTH_DELTA = {"drain": -1, "redrain": -1, "readmit": 1}

OUTCOME_COMPLETED = "completed"

#: Per-request defaults for ids missing from the timeline's request table.
_UNKNOWN_REQUEST = SimpleNamespace(images=0, sparsity=0.0,
                                   slo_latency_s=math.inf)


def read_event_log(path: Union[str, Path]
                   ) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a serving event log (tolerant JSONL).

    Returns ``(events, malformed_lines)``; a line counts as malformed
    when it is not a JSON object carrying both ``event`` and ``t``.
    """
    events: List[Dict[str, Any]] = []
    malformed = 0
    with open(path, "r") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if (isinstance(record, dict) and "event" in record
                    and "t" in record):
                events.append(record)
            else:
                malformed += 1
    return events, malformed


def looks_like_event_log(records: Iterable[Any]) -> bool:
    """True when ``records`` look like serving event-log lines
    (objects with ``seq``/``t``/``event`` keys) — the shape sniff
    ``powerlens trace`` uses to redirect to ``powerlens timeline``."""
    seen = False
    for record in records:
        if not (isinstance(record, dict) and "event" in record
                and "t" in record and "seq" in record):
            return False
        seen = True
    return seen


def summarize_serving_events(events: Sequence[Dict[str, Any]]) -> str:
    """One-paragraph digest of a serving event log (request outcomes
    and fleet health events), for ``powerlens trace``'s redirect."""
    counts: Dict[str, int] = {}
    drop_reasons: Dict[str, int] = {}
    t_max = 0.0
    for event in events:
        kind = str(event.get("event"))
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "drop":
            reason = str(event.get("reason", "unknown"))
            drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
        t_max = max(t_max, float(event.get("t", 0.0)))
    lines = [f"serving event log: {len(events)} events, "
             f"makespan {t_max:.3f} s"]
    lines.append(
        "requests: "
        f"{counts.get('admit', 0)} admitted, "
        f"{counts.get('complete', 0)} completed, "
        f"{counts.get('drop', 0)} dropped"
        + (" (" + ", ".join(f"{reason}={n}" for reason, n
                            in sorted(drop_reasons.items())) + ")"
           if drop_reasons else ""))
    fleet_bits = [f"{kind}={counts[kind]}"
                  for kind in ("dispatch", "probe") + _DEVICE_MARKERS
                  if counts.get(kind)]
    if fleet_bits:
        lines.append("fleet: " + ", ".join(fleet_bits))
    return "\n".join(lines)


@dataclass
class RequestRow:
    """One request's lifecycle reconstructed from the event log.

    ``queue_s + batch_s + service_s == latency_s`` exactly (each is a
    difference of the same four timestamps; drops put the whole wait
    in ``queue_s``).  ``sparsity``/``slo_latency_s`` come from the
    timeline's request table, the dispatch fields from the ``dispatch``
    event; ``recovery_stall_s`` is the queue residency spent with zero
    healthy devices.
    """

    request_id: int
    model: str
    images: int
    t_arrival: float
    t_batch_ready: float
    t_dispatch: float
    t_end: float
    outcome: str = ""
    device: str = ""
    slo_ok: bool = True
    energy_j: float = 0.0
    cause: str = ""
    sparsity: float = 0.0
    slo_latency_s: float = math.inf
    dispatch_seq: int = -1
    batch_request_ids: Tuple[int, ...] = ()
    ledger_energy_j: float = 0.0
    sparsity_bucket: float = 0.0
    plan_fingerprint: str = ""
    recovery_state: str = ""
    new_anomalies: int = 0
    recovery_stall_s: float = 0.0
    sampled_head: bool = True

    @property
    def latency_s(self) -> float:
        return self.t_end - self.t_arrival

    @property
    def queue_s(self) -> float:
        return self.t_batch_ready - self.t_arrival

    @property
    def batch_s(self) -> float:
        return self.t_dispatch - self.t_batch_ready

    @property
    def service_s(self) -> float:
        return self.t_end - self.t_dispatch

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED

    @property
    def anomalous(self) -> bool:
        """Dropped, SLO-violating, or served by an anomaly-flagged job."""
        return (self.outcome != OUTCOME_COMPLETED or not self.slo_ok
                or self.new_anomalies > 0)


@dataclass
class DeviceTrack:
    """Per-device occupancy reconstructed from the event log."""

    name: str
    jobs: List[Tuple[float, float, str]] = field(default_factory=list)
    probes: List[Tuple[float, float]] = field(default_factory=list)
    markers: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return (sum(end - start for start, end, _ in self.jobs)
                + sum(end - start for start, end in self.probes))


class ServingTimeline:
    """Structured view of one serving run (see module docstring).

    An incremental fold over the event log: calling the timeline with
    one record folds it in, so an instance can ride
    :class:`~repro.serving.scheduler.FleetScheduler` as a sink or
    replay a written log (:meth:`from_events`) with the same result.
    ``requests`` (anything with ``request_id``/``images``/``sparsity``/
    ``slo_latency_s``, e.g. an ``ArrivalTrace``'s requests) fills the
    per-request fields the log does not carry; ``healthy_devices`` is
    the fleet's healthy-device count at the start of the run, which
    enables ``recovery_stall_s`` (left at 0 when unknown).
    """

    def __init__(self, requests: Iterable[Any] = (),
                 healthy_devices: Optional[int] = None) -> None:
        self.requests: Dict[int, RequestRow] = {}
        self.devices: Dict[str, DeviceTrack] = {}
        self.queue_depth: List[Tuple[float, int]] = []
        self.burn_spans: List[Tuple[float, float, Dict[str, Any]]] = []
        self.makespan_s = 0.0
        self.n_events = 0
        self._specs = {r.request_id: r for r in requests}
        self._pending: Dict[int, RequestRow] = {}
        self._depth = 0
        self._dispatch_seq = 0
        self._healthy = healthy_devices
        self._dead: List[Tuple[float, float]] = []
        self._dead_since = 0.0 if healthy_devices == 0 else None

    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Dict[str, Any]],
                    **kwargs: Any) -> "ServingTimeline":
        """Rebuild the run's structure from its event log (``kwargs``
        go to the constructor)."""
        timeline = cls(**kwargs)
        for event in events:
            timeline(event)
        return timeline

    @classmethod
    def from_file(cls, path: Union[str, Path],
                  **kwargs: Any) -> "ServingTimeline":
        events, _ = read_event_log(path)
        return cls.from_events(events, **kwargs)

    # ------------------------------------------------------------------
    def __call__(self, event: Dict[str, Any]) -> None:
        """Fold one event-log record into the timeline."""
        kind = event["event"]
        t = float(event["t"])
        self.n_events += 1
        self.makespan_s = max(self.makespan_s, t)
        if kind == "admit":
            rid = int(event["request_id"])
            self._pending[rid] = self._new_row(rid, t, event)
            self._note_depth(t, 1)
        elif kind == "dispatch":
            self._fold_dispatch(t, event)
        elif kind == "complete":
            rid = int(event["request_id"])
            row = self._pending.pop(rid, None) \
                or self._new_row(rid, t, event)
            row.t_end = t
            row.outcome = OUTCOME_COMPLETED
            row.device = row.device or str(event.get("device", ""))
            row.slo_ok = bool(event.get("slo_ok", True))
            row.energy_j = float(event.get("energy", 0.0))
            row.recovery_stall_s = self._stall(row.t_arrival,
                                               row.t_dispatch)
            self._finish(row)
        elif kind == "drop":
            rid = int(event["request_id"])
            row = self._pending.pop(rid, None)
            if row is None:
                # ``queue_full`` rejections never entered the queue.
                row = self._new_row(rid, t, event)
            else:
                self._note_depth(t, -1)
                row.recovery_stall_s = self._stall(row.t_arrival, t)
            row.t_batch_ready = row.t_dispatch = row.t_end = t
            row.outcome = str(event.get("reason", "unknown"))
            row.slo_ok = False
            row.cause = str(event.get("cause", ""))
            self._finish(row)
        elif kind == "probe":
            self._dispatch_seq += 1
            duration = float(event.get("duration", 0.0))
            self._track(str(event["device"])).probes.append(
                (t, t + duration))
            self.makespan_s = max(self.makespan_s, t + duration)
        elif kind in _DEVICE_MARKERS:
            self._track(str(event["device"])).markers.append((t, kind))
            if self._healthy is not None and kind in _HEALTH_DELTA:
                self._note_health(t, _HEALTH_DELTA[kind])

    def _fold_dispatch(self, t: float, event: Dict[str, Any]) -> None:
        name = str(event["device"])
        ids = tuple(int(i) for i in event.get("request_ids", ()))
        rows = [self._pending[i] for i in ids if i in self._pending]
        t_ready = max((row.t_arrival for row in rows), default=t)
        ledger_share = (float(event.get("ledger_energy", 0.0)) / len(ids)
                        if ids else 0.0)
        for row in rows:
            row.t_batch_ready = t_ready
            row.t_dispatch = t
            row.device = name
            row.dispatch_seq = self._dispatch_seq
            row.batch_request_ids = ids
            row.ledger_energy_j = ledger_share
            row.sparsity_bucket = float(event.get("sparsity_bucket", 0.0))
            row.plan_fingerprint = str(event.get("plan", ""))
            row.recovery_state = str(event.get("recovery_state", ""))
            row.new_anomalies = int(event.get("new_anomalies", 0))
        self._dispatch_seq += 1
        label = (f"{event.get('model', 'job')}"
                 f"x{event.get('images', '?')}"
                 f" ({event.get('n_requests', len(ids))} req)")
        t_done = float(event.get("predicted_done", t))
        self._track(name).jobs.append((t, t_done, label))
        self._note_depth(t, -len(ids))

    def _new_row(self, rid: int, t: float,
                 event: Dict[str, Any]) -> RequestRow:
        spec = self._specs.get(rid, _UNKNOWN_REQUEST)
        return RequestRow(
            request_id=rid, model=str(event.get("model", "")),
            images=int(event.get("images", spec.images)),
            t_arrival=t, t_batch_ready=t, t_dispatch=t, t_end=t,
            sparsity=spec.sparsity, slo_latency_s=spec.slo_latency_s)

    def _finish(self, row: RequestRow) -> None:
        """A request reached its terminal event."""
        self.requests[row.request_id] = row

    def _track(self, name: str) -> DeviceTrack:
        track = self.devices.get(name)
        if track is None:
            track = self.devices[name] = DeviceTrack(name)
        return track

    def _note_depth(self, t: float, delta: int) -> None:
        self._depth += delta
        self.queue_depth.append((t, self._depth))

    def _note_health(self, t: float, delta: int) -> None:
        self._healthy += delta
        if self._healthy == 0:
            if self._dead_since is None:
                self._dead_since = t
        elif self._dead_since is not None:
            self._dead.append((self._dead_since, t))
            self._dead_since = None

    def _stall(self, t_from: float, t_to: float) -> float:
        """Overlap of ``[t_from, t_to]`` with zero-healthy intervals."""
        intervals = list(self._dead)
        if self._dead_since is not None:
            intervals.append((self._dead_since, t_to))
        total = 0.0
        for start, end in intervals:
            total += max(0.0, min(end, t_to) - max(start, t_from))
        return total

    # ------------------------------------------------------------------
    def add_burn_spans(
            self,
            rows: Sequence[Tuple[str, float, float, Dict[str, Any]]]
    ) -> None:
        """Attach ``slo_burn`` alert spans (from
        :meth:`~repro.obs.burnrate.BurnRateMonitor.span_rows`) to the
        scheduler track of the Chrome export."""
        for _name, t_start, t_end, attrs in rows:
            self.burn_spans.append((t_start, t_end, dict(attrs)))

    # ------------------------------------------------------------------
    # Chrome trace_event export
    # ------------------------------------------------------------------
    def to_chrome_trace(self, sampled_ids: Optional[Set[int]] = None,
                        max_request_tracks: int = 250
                        ) -> Dict[str, Any]:
        """Render the run as Chrome ``trace_event`` JSON.

        ``sampled_ids`` restricts the per-request tracks (e.g. to the
        request tracer's sampled set); device and scheduler tracks
        always cover the full log.  At most ``max_request_tracks``
        request rows are emitted (slowest first) so huge runs stay
        loadable; the cap is recorded in ``metadata.request_tracks``.
        """
        out: List[Dict[str, Any]] = []
        device_names = sorted(self.devices)
        pid_of = {name: i + 1 for i, name in enumerate(device_names)}
        requests_pid = len(device_names) + 1

        def meta(pid: int, name: str, tid: Optional[int] = None
                 ) -> None:
            record: Dict[str, Any] = {
                "ph": "M", "pid": pid,
                "name": ("thread_name" if tid is not None
                         else "process_name"),
                "args": {"name": name}}
            if tid is not None:
                record["tid"] = tid
            out.append(record)

        meta(0, "scheduler")
        meta(0, "queue", 0)
        meta(0, "slo_burn", 1)
        for name in device_names:
            meta(pid_of[name], f"device {name}")
            meta(pid_of[name], "jobs", 0)
            meta(pid_of[name], "probes", 1)
        meta(requests_pid, "requests")

        for t, depth in self.queue_depth:
            out.append({"ph": "C", "pid": 0, "tid": 0,
                        "name": "queue_depth", "ts": t * _US,
                        "args": {"depth": depth}})
        for t_start, t_end, attrs in self.burn_spans:
            out.append({"ph": "X", "pid": 0, "tid": 1,
                        "name": "slo_burn", "cat": "slo",
                        "ts": t_start * _US,
                        "dur": max(0.0, (t_end - t_start) * _US),
                        "args": attrs})

        for name in device_names:
            track = self.devices[name]
            pid = pid_of[name]
            for t_start, t_end, label in track.jobs:
                out.append({"ph": "X", "pid": pid, "tid": 0,
                            "name": label, "cat": "dispatch",
                            "ts": t_start * _US,
                            "dur": max(0.0, (t_end - t_start) * _US),
                            "args": {}})
            for t_start, t_end in track.probes:
                out.append({"ph": "X", "pid": pid, "tid": 1,
                            "name": "probe", "cat": "recovery",
                            "ts": t_start * _US,
                            "dur": max(0.0, (t_end - t_start) * _US),
                            "args": {}})
            for t, kind in track.markers:
                out.append({"ph": "i", "pid": pid, "tid": 0,
                            "name": kind, "cat": "recovery",
                            "ts": t * _US, "s": "t"})

        rows = [row for row in self.requests.values()
                if sampled_ids is None
                or row.request_id in sampled_ids]
        rows.sort(key=lambda r: (-r.latency_s, r.request_id))
        shown = rows[:max_request_tracks]
        for row in shown:
            tid = row.request_id
            base = {"pid": requests_pid, "tid": tid, "cat": "request"}
            if row.queue_s > 0.0 or row.completed:
                out.append({**base, "ph": "X", "name": "queued",
                            "ts": row.t_arrival * _US,
                            "dur": max(0.0, row.queue_s * _US),
                            "args": {"request_id": row.request_id,
                                     "model": row.model}})
            if row.completed:
                out.append({**base, "ph": "X", "name": "batched",
                            "ts": row.t_batch_ready * _US,
                            "dur": max(0.0, row.batch_s * _US),
                            "args": {}})
                out.append({**base, "ph": "X", "name": "dispatched",
                            "ts": row.t_dispatch * _US,
                            "dur": max(0.0, row.service_s * _US),
                            "args": {"device": row.device,
                                     "energy_j": row.energy_j,
                                     "slo_ok": row.slo_ok}})
            else:
                out.append({**base, "ph": "i", "name": row.outcome,
                            "ts": row.t_end * _US, "s": "t",
                            "args": ({"cause": row.cause}
                                     if row.cause else {})})
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "metadata": {
                "format": "powerlens-serving-timeline",
                "events": self.n_events,
                "requests": len(self.requests),
                "request_tracks": len(shown),
                "request_tracks_dropped": len(rows) - len(shown),
                "makespan_s": self.makespan_s,
            },
        }

    # ------------------------------------------------------------------
    # critical-path analysis
    # ------------------------------------------------------------------
    def critical_path_rows(self) -> List[RequestRow]:
        """Completed requests, slowest first (ties by id)."""
        rows = [r for r in self.requests.values() if r.completed]
        rows.sort(key=lambda r: (-r.latency_s, r.request_id))
        return rows

    def format_report(self, top_k: int = 10) -> str:
        """Human-readable critical-path breakdown, per-device
        occupancy, and the top-``top_k`` slowest requests."""
        lines: List[str] = [
            f"timeline: {self.n_events} events, "
            f"{len(self.requests)} requests "
            f"({sum(1 for r in self.requests.values() if r.completed)}"
            f" completed), makespan {self.makespan_s:.3f} s"]
        rows = self.critical_path_rows()
        if rows:
            lines.append("")
            lines.append("critical path (completed requests, ms):")
            header = (f"{'component':>10s} {'p50':>9s} {'p90':>9s} "
                      f"{'p99':>9s} {'mean':>9s} {'share':>7s}")
            lines.append(header)
            lines.append("-" * len(header))
            total_mean = _mean([r.latency_s for r in rows])
            for label, values in (
                    ("queue", [r.queue_s for r in rows]),
                    ("batch", [r.batch_s for r in rows]),
                    ("service", [r.service_s for r in rows]),
                    ("total", [r.latency_s for r in rows])):
                ordered = sorted(values)
                mean = _mean(values)
                share = mean / total_mean if total_mean else 0.0
                lines.append(
                    f"{label:>10s}"
                    f" {_q(ordered, 0.50) * 1e3:>9.2f}"
                    f" {_q(ordered, 0.90) * 1e3:>9.2f}"
                    f" {_q(ordered, 0.99) * 1e3:>9.2f}"
                    f" {mean * 1e3:>9.2f}"
                    f" {share * 100:>6.1f}%")
        if self.devices:
            lines.append("")
            lines.append("per-device occupancy:")
            header = (f"{'device':>10s} {'jobs':>5s} {'probes':>6s} "
                      f"{'busy':>9s} {'occupancy':>9s}")
            lines.append(header)
            lines.append("-" * len(header))
            for name in sorted(self.devices):
                track = self.devices[name]
                occ = (track.busy_s / self.makespan_s
                       if self.makespan_s else 0.0)
                lines.append(
                    f"{name:>10s} {len(track.jobs):>5d} "
                    f"{len(track.probes):>6d} {track.busy_s:>7.3f} s "
                    f"{occ * 100:>8.1f}%")
        if rows and top_k > 0:
            lines.append("")
            lines.append(f"top {min(top_k, len(rows))} slowest "
                         f"requests (ms):")
            header = (f"{'request':>8s} {'model':>12s} {'total':>8s} "
                      f"{'queue':>8s} {'batch':>8s} {'service':>8s} "
                      f"{'device':>10s}  slo")
            lines.append(header)
            lines.append("-" * len(header))
            for row in rows[:top_k]:
                lines.append(
                    f"{row.request_id:>8d} {row.model:>12s} "
                    f"{row.latency_s * 1e3:>8.2f} "
                    f"{row.queue_s * 1e3:>8.2f} "
                    f"{row.batch_s * 1e3:>8.2f} "
                    f"{row.service_s * 1e3:>8.2f} "
                    f"{row.device:>10s}  "
                    f"{'ok' if row.slo_ok else 'VIOLATED'}")
        return "\n".join(lines)


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def _q(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of pre-sorted values (shared ranking)."""
    if not ordered:
        return 0.0
    return ordered[nearest_rank_index(len(ordered), q)]


# ----------------------------------------------------------------------
# schema validation (used by tests and the CI smoke)
# ----------------------------------------------------------------------
def validate_chrome_trace(payload: Any) -> None:
    """Raise ``ValueError`` unless ``payload`` is structurally valid
    Chrome ``trace_event`` JSON (object format, the subset we emit)."""
    if not isinstance(payload, dict):
        raise ValueError("trace must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        ph = event.get("ph")
        if ph not in ("X", "C", "M", "i"):
            raise ValueError(f"{where}: unknown ph {ph!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            raise ValueError(f"{where}: missing pid")
        if ph == "M":
            if event["name"] not in ("process_name", "thread_name"):
                raise ValueError(f"{where}: bad metadata {event['name']!r}")
            args = event.get("args")
            if not (isinstance(args, dict)
                    and isinstance(args.get("name"), str)):
                raise ValueError(f"{where}: metadata needs args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts):
            raise ValueError(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if (not isinstance(dur, (int, float))
                    or not math.isfinite(dur) or dur < 0):
                raise ValueError(f"{where}: bad dur {dur!r}")
        if ph == "C" and not isinstance(event.get("args"), dict):
            raise ValueError(f"{where}: counter needs args")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"{where}: instant needs scope s")

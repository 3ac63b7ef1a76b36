"""Fleet SLO accounting: latency percentiles, joules/request, drops.

The :class:`SLOReport` is the serving simulator's headline artifact —
the table ``powerlens serve-sim`` prints and the object pinned by the
golden fixture ``tests/goldens/serving_slo.json`` (via
:func:`repro.experiments.export.canonical_json`).  It is a fold of the
scheduler's event log (:meth:`SLOReport.from_run`), so a report rebuilt
from a written log equals the live one; the same pass fills the
scheduler's ``powerlens_serving_*`` counters and latency histogram.

Percentiles use the **nearest-rank** definition (the smallest observed
latency with at least ``q`` of the sample at or below it) — exact,
deterministic, and free of interpolation-order surprises.  A run that
completed no request has no latency and no joules per request: those
fields are ``None`` and print as ``n/a (n=0)``.

Energy is reported twice and reconciled: ``fleet_energy_j`` sums the
simulator trace totals of every job (requests and recovery probes),
``ledger_energy_j`` sums the per-job
:class:`~repro.obs.ledger.EnergyLedger` attributions; both use
:func:`math.fsum` (per device, then over devices) and must agree within
:data:`~repro.obs.ledger.RECONCILIATION_TOLERANCE` (the conformance
suite asserts it).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping,
                    Optional, Sequence)

from repro.obs.ledger import RECONCILIATION_TOLERANCE
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, \
    nearest_rank_index

if TYPE_CHECKING:
    from repro.serving.arrivals import ArrivalTrace
    from repro.serving.fleet import SimulatedDevice

__all__ = ["DeviceSummary", "SLOReport", "nearest_rank"]

DROP_QUEUE_FULL = "queue_full"
DROP_EXPIRED = "expired"
DROP_UNSERVICEABLE = "unserviceable"

#: How the table shows a latency or per-request rate of an empty set.
_NONE_COMPLETED = "n/a (n=0)"


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (0 for an empty set).

    Ranking delegates to the shared
    :func:`repro.obs.metrics.nearest_rank_index` so the SLO report and
    the metrics histograms can never disagree on p50/p90/p99.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[nearest_rank_index(len(ordered), q)]


def _quantile(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`nearest_rank`, but an empty set has no quantile."""
    return nearest_rank(values, q) if values else None


def _record_counters(metrics: MetricsRegistry, counts: Dict[str, int],
                     drops: Dict[str, int],
                     latencies: Sequence[float]) -> None:
    """The scheduler's counters and latency histogram, from the fold."""
    def count(name: str, value: int, help: str = "") -> None:
        metrics.counter(f"powerlens_serving_{name}_total", help).inc(value)

    count("requests", counts.get("admit", 0) + drops[DROP_QUEUE_FULL],
          help="Requests presented to the fleet")
    count("admitted", counts.get("admit", 0))
    count("completed", len(latencies))
    count("jobs", counts.get("dispatch", 0))
    count("drains", counts.get("drain", 0) + counts.get("redrain", 0))
    count("probes", counts.get("probe", 0))
    count("readmissions", counts.get("readmit", 0))
    count("redrains", counts.get("redrain", 0))
    for reason, n in drops.items():
        count(f"dropped_{reason}", n)
    histogram = metrics.histogram(
        "powerlens_serving_request_latency_seconds",
        help="Arrival-to-completion latency", buckets=DEFAULT_BUCKETS)
    for latency in latencies:
        histogram.observe(latency)


class _DeviceFold:
    """What the event log says one device did."""

    def __init__(self) -> None:
        self.jobs = self.requests = self.readmissions = 0
        self.busy_s = self.drained_s = 0.0
        self.energies: List[float] = []
        self.ledger: List[float] = []
        self.drain_start: Optional[float] = None

    def close_drain(self, t: float) -> None:
        if self.drain_start is not None:
            self.drained_s += max(0.0, t - self.drain_start)
            self.drain_start = None


@dataclass(frozen=True)
class DeviceSummary:
    """Per-device slice of the fleet run."""

    name: str
    platform: str
    jobs: int
    requests: int
    busy_time_s: float
    energy_j: float
    ledger_energy_j: float
    anomalies: int
    drained: bool
    plan_cache_hits: int
    plan_cache_misses: int
    drained_seconds: float = 0.0   # device-seconds spent drained
    readmissions: int = 0          # successful probe re-admissions
    recovery_state: str = "active"


@dataclass
class SLOReport:
    """Fleet-wide serving outcome (see module docstring)."""

    policy: str
    governor: str
    arrival_kind: str
    seed: int
    duration_s: float
    # -- request conservation ------------------------------------------
    arrived: int
    admitted: int
    completed: int
    dropped_queue_full: int
    dropped_expired: int
    dropped_unserviceable: int
    slo_violations: int
    # -- latency (None when no request completed) ------------------------
    latency_p50_s: Optional[float]
    latency_p90_s: Optional[float]
    latency_p99_s: Optional[float]
    latency_mean_s: Optional[float]
    latency_max_s: Optional[float]
    # -- energy ---------------------------------------------------------
    fleet_energy_j: float
    ledger_energy_j: float
    joules_per_request: Optional[float]
    # -- fleet ----------------------------------------------------------
    makespan_s: float
    drained_device_seconds: float = 0.0
    devices: List[DeviceSummary] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_run(cls, events: Iterable[Mapping[str, Any]], *,
                 policy: str, trace: "ArrivalTrace",
                 devices: Sequence["SimulatedDevice"],
                 metrics: MetricsRegistry) -> "SLOReport":
        """Fold a run's event log into its report.

        Only what the log does not carry comes from outside it:
        ``trace`` gives the arrival kind, seed, horizon and size
        (``arrived`` is ``len(trace)``, so :attr:`conserved` checks the
        log against the trace); ``devices`` (the fleet, in order) give
        each device's platform, governor, plan-cache counts and final
        health.  The same pass registers the scheduler's counters (zeros
        included) and latency histogram in ``metrics``.
        """
        folds = {d.name: _DeviceFold() for d in devices}
        counts: Dict[str, int] = {}
        drops = {DROP_QUEUE_FULL: 0, DROP_EXPIRED: 0,
                 DROP_UNSERVICEABLE: 0}
        latencies: List[float] = []
        violations = 0
        makespan = last_arrival = 0.0
        for event in events:
            kind = event["event"]
            if kind == "complete":
                latencies.append(event["latency"])
                if not event["slo_ok"]:
                    violations += 1
                if event["t"] > makespan:
                    makespan = event["t"]
                continue
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "admit":
                last_arrival = event["t"]
            elif kind == "dispatch" or kind == "probe":
                fold = folds[event["device"]]
                fold.jobs += 1
                fold.requests += event.get("n_requests", 0)
                fold.busy_s += event["duration"]
                fold.energies.append(event["energy"])
                fold.ledger.append(event["ledger_energy"])
            elif kind == "drop":
                drops[event["reason"]] += 1
                if event["reason"] == DROP_QUEUE_FULL:
                    last_arrival = event["t"]
            elif kind == "drain" or kind == "redrain":
                fold = folds[event["device"]]
                if fold.drain_start is None:
                    fold.drain_start = event["t"]
            elif kind == "readmit":
                fold = folds[event["device"]]
                fold.readmissions += 1
                fold.close_drain(event["t"])
        # A device still drained when the run ends is drained until the
        # last completion or arrival, whichever is later.
        t_end = max(makespan, last_arrival)
        summaries = []
        for device in devices:
            fold = folds[device.name]
            fold.close_drain(t_end)
            summaries.append(DeviceSummary(
                name=device.name,
                platform=device.platform.name,
                jobs=fold.jobs,
                requests=fold.requests,
                busy_time_s=fold.busy_s,
                energy_j=math.fsum(fold.energies),
                ledger_energy_j=math.fsum(fold.ledger),
                anomalies=device.anomaly_count,
                drained=device.drained,
                plan_cache_hits=device.plan_cache.hits,
                plan_cache_misses=device.plan_cache.misses,
                drained_seconds=fold.drained_s,
                readmissions=fold.readmissions,
                recovery_state=device.recovery_state,
            ))
        _record_counters(metrics, counts, drops, latencies)
        governors = {d.governor_name for d in devices}
        completed = len(latencies)
        fleet_e = math.fsum(d.energy_j for d in summaries)
        return cls(
            policy=policy,
            governor=governors.pop() if len(governors) == 1 else "mixed",
            arrival_kind=trace.kind,
            seed=trace.seed,
            duration_s=trace.duration_s,
            arrived=len(trace),
            admitted=completed + drops[DROP_EXPIRED]
            + drops[DROP_UNSERVICEABLE],
            completed=completed,
            dropped_queue_full=drops[DROP_QUEUE_FULL],
            dropped_expired=drops[DROP_EXPIRED],
            dropped_unserviceable=drops[DROP_UNSERVICEABLE],
            slo_violations=violations,
            latency_p50_s=_quantile(latencies, 0.50),
            latency_p90_s=_quantile(latencies, 0.90),
            latency_p99_s=_quantile(latencies, 0.99),
            latency_mean_s=(math.fsum(latencies) / completed
                            if completed else None),
            latency_max_s=max(latencies) if latencies else None,
            fleet_energy_j=fleet_e,
            ledger_energy_j=math.fsum(d.ledger_energy_j
                                      for d in summaries),
            joules_per_request=fleet_e / completed if completed else None,
            makespan_s=makespan,
            drained_device_seconds=math.fsum(
                d.drained_seconds for d in summaries),
            devices=summaries,
        )

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        return (self.dropped_queue_full + self.dropped_expired
                + self.dropped_unserviceable)

    @property
    def conserved(self) -> bool:
        """admitted-at-the-door = completed + post-admission drops, and
        every arrival is accounted exactly once."""
        return (self.arrived == self.admitted + self.dropped_queue_full
                and self.admitted == (self.completed
                                      + self.dropped_expired
                                      + self.dropped_unserviceable))

    @property
    def energy_rel_err(self) -> float:
        scale = max(abs(self.fleet_energy_j), 1e-300)
        return abs(self.fleet_energy_j - self.ledger_energy_j) / scale

    @property
    def energy_reconciled(self) -> bool:
        return self.energy_rel_err <= RECONCILIATION_TOLERANCE

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (``--json``); a device's ledger
        joules and recovery state stay out of it."""
        out = asdict(self)
        for device in out["devices"]:
            del device["ledger_energy_j"], device["recovery_state"]
        out.update(conserved=self.conserved,
                   energy_rel_err=self.energy_rel_err)
        return out

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """Human-readable SLO report (``powerlens serve-sim``)."""
        lines: List[str] = []
        lines.append(
            f"serving: {self.arrival_kind} arrivals, policy "
            f"{self.policy}, governor {self.governor}, seed {self.seed}")
        lines.append(
            f"requests: {self.arrived} arrived, {self.admitted} "
            f"admitted, {self.completed} completed, "
            f"{self.dropped} dropped "
            f"(queue_full={self.dropped_queue_full}, "
            f"expired={self.dropped_expired}, "
            f"unserviceable={self.dropped_unserviceable})"
            + ("" if self.conserved else "  CONSERVATION VIOLATED"))
        if self.completed:
            lines.append(
                f"latency: p50 {self.latency_p50_s * 1000:.1f} ms, "
                f"p90 {self.latency_p90_s * 1000:.1f} ms, "
                f"p99 {self.latency_p99_s * 1000:.1f} ms, "
                f"mean {self.latency_mean_s * 1000:.1f} ms, "
                f"slo violations {self.slo_violations}")
            per_request = f"{self.joules_per_request:.4f} J/request"
        else:
            lines.append(f"latency: {_NONE_COMPLETED}, slo violations "
                         f"{self.slo_violations}")
            per_request = f"J/request {_NONE_COMPLETED}"
        lines.append(
            f"energy: {self.fleet_energy_j:.3f} J fleet, {per_request}, "
            f"ledger rel err {self.energy_rel_err:.2e} "
            f"({'ok' if self.energy_reconciled else 'FAILED'})")
        lines.append(f"makespan: {self.makespan_s:.3f} s "
                     f"(trace horizon {self.duration_s:.3f} s)"
                     + (f", drained device-seconds "
                        f"{self.drained_device_seconds:.3f}"
                        if self.drained_device_seconds else ""))
        header = (f"{'device':>10s} {'platform':>18s} {'jobs':>5s} "
                  f"{'reqs':>5s} {'busy':>9s} {'energy':>10s} "
                  f"{'anom':>5s} {'plan$':>8s}  state")
        lines.append("")
        lines.append(header)
        lines.append("-" * len(header))
        for d in self.devices:
            cache = f"{d.plan_cache_hits}/{d.plan_cache_misses}"
            if d.recovery_state not in ("", "active"):
                state = d.recovery_state
            else:
                state = "drained" if d.drained else "healthy"
            lines.append(
                f"{d.name:>10s} {d.platform:>18s} {d.jobs:>5d} "
                f"{d.requests:>5d} {d.busy_time_s:>7.3f} s "
                f"{d.energy_j:>8.3f} J {d.anomalies:>5d} "
                f"{cache:>8s}  {state}")
        return "\n".join(lines)

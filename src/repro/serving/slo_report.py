"""Fleet SLO accounting: latency percentiles, joules/request, drops.

The :class:`SLOReport` is the serving simulator's headline artifact —
the table ``powerlens serve-sim`` prints and the object pinned by the
golden fixture ``tests/goldens/serving_slo.json`` (via
:func:`repro.experiments.export.canonical_json`).

Percentiles use the **nearest-rank** definition (the smallest observed
latency with at least ``q`` of the sample at or below it) — exact,
deterministic, and free of interpolation-order surprises.

Energy is reported twice and reconciled: ``fleet_energy_j`` sums the
simulator trace totals of every completed job, ``ledger_energy_j``
sums the per-job :class:`~repro.obs.ledger.EnergyLedger` attributions;
both use :func:`math.fsum` and must agree within
:data:`~repro.obs.ledger.RECONCILIATION_TOLERANCE` (the conformance
suite asserts it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.obs.ledger import RECONCILIATION_TOLERANCE
from repro.obs.metrics import nearest_rank_index

__all__ = ["RequestOutcome", "DeviceSummary", "SLOReport",
           "nearest_rank"]


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


@dataclass(frozen=True)
class RequestOutcome:
    """Completion record for one admitted-and-served request."""

    request_id: int
    model: str
    images: int
    device: str
    t_arrival: float
    t_dispatch: float
    t_complete: float
    energy_j: float                # even share of its job's energy
    slo_latency_s: float = math.inf

    @property
    def latency_s(self) -> float:
        return self.t_complete - self.t_arrival

    @property
    def queue_delay_s(self) -> float:
        return self.t_dispatch - self.t_arrival

    @property
    def slo_ok(self) -> bool:
        return self.latency_s <= self.slo_latency_s


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
    # -- latency --------------------------------------------------------
    latency_p50_s: float
    latency_p90_s: float
    latency_p99_s: float
    latency_mean_s: float
    latency_max_s: float
    # -- energy ---------------------------------------------------------
    fleet_energy_j: float
    ledger_energy_j: float
    joules_per_request: float
    # -- fleet ----------------------------------------------------------
    makespan_s: float
    drained_device_seconds: float = 0.0
    devices: List[DeviceSummary] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_run(cls, *, policy: str, governor: str, arrival_kind: str,
                 seed: int, duration_s: float, arrived: int,
                 dropped_queue_full: int, dropped_expired: int,
                 dropped_unserviceable: int,
                 outcomes: Sequence[RequestOutcome],
                 devices: Sequence[DeviceSummary],
                 makespan_s: float) -> "SLOReport":
        latencies = [o.latency_s for o in outcomes]
        completed = len(outcomes)
        admitted = completed + dropped_expired + dropped_unserviceable
        fleet_e = math.fsum(d.energy_j for d in devices)
        ledger_e = math.fsum(d.ledger_energy_j for d in devices)
        return cls(
            policy=policy,
            governor=governor,
            arrival_kind=arrival_kind,
            seed=seed,
            duration_s=duration_s,
            arrived=arrived,
            admitted=admitted,
            completed=completed,
            dropped_queue_full=dropped_queue_full,
            dropped_expired=dropped_expired,
            dropped_unserviceable=dropped_unserviceable,
            slo_violations=sum(1 for o in outcomes if not o.slo_ok),
            latency_p50_s=nearest_rank(latencies, 0.50),
            latency_p90_s=nearest_rank(latencies, 0.90),
            latency_p99_s=nearest_rank(latencies, 0.99),
            latency_mean_s=(math.fsum(latencies) / completed
                            if completed else 0.0),
            latency_max_s=max(latencies) if latencies else 0.0,
            fleet_energy_j=fleet_e,
            ledger_energy_j=ledger_e,
            joules_per_request=(fleet_e / completed if completed
                                else 0.0),
            makespan_s=makespan_s,
            drained_device_seconds=math.fsum(
                d.drained_seconds for d in devices),
            devices=list(devices),
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
        """JSON-serializable snapshot (``--json``)."""
        return {
            "policy": self.policy,
            "governor": self.governor,
            "arrival_kind": self.arrival_kind,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "completed": self.completed,
            "dropped_queue_full": self.dropped_queue_full,
            "dropped_expired": self.dropped_expired,
            "dropped_unserviceable": self.dropped_unserviceable,
            "slo_violations": self.slo_violations,
            "conserved": self.conserved,
            "latency_p50_s": self.latency_p50_s,
            "latency_p90_s": self.latency_p90_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_max_s": self.latency_max_s,
            "fleet_energy_j": self.fleet_energy_j,
            "ledger_energy_j": self.ledger_energy_j,
            "energy_rel_err": self.energy_rel_err,
            "joules_per_request": self.joules_per_request,
            "makespan_s": self.makespan_s,
            "drained_device_seconds": self.drained_device_seconds,
            "devices": [
                {
                    "name": d.name,
                    "platform": d.platform,
                    "jobs": d.jobs,
                    "requests": d.requests,
                    "busy_time_s": d.busy_time_s,
                    "energy_j": d.energy_j,
                    "anomalies": d.anomalies,
                    "drained": d.drained,
                    "drained_seconds": d.drained_seconds,
                    "readmissions": d.readmissions,
                    "plan_cache_hits": d.plan_cache_hits,
                    "plan_cache_misses": d.plan_cache_misses,
                }
                for d in self.devices
            ],
        }

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
        lines.append(
            f"latency: p50 {self.latency_p50_s * 1000:.1f} ms, "
            f"p90 {self.latency_p90_s * 1000:.1f} ms, "
            f"p99 {self.latency_p99_s * 1000:.1f} ms, "
            f"mean {self.latency_mean_s * 1000:.1f} ms, "
            f"slo violations {self.slo_violations}")
        lines.append(
            f"energy: {self.fleet_energy_j:.3f} J fleet, "
            f"{self.joules_per_request:.4f} J/request, "
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

"""Simulated device fleet: heterogeneous boards behind one scheduler.

Each :class:`SimulatedDevice` wraps one :class:`~repro.hw.platform.\
PlatformSpec` (TX2, AGX, ...) plus everything the serving layer needs
to treat it as an independent worker:

* a **plan cache** — per-device frequency plans built analytically
  (NeuralPower-style closed-form oracle, no fitted lens required) and
  keyed by a content hash exactly like
  :func:`repro.core.persistence.dataset_cache_key`: any change to the
  platform's power model, the graph, the batch size or the planner
  parameters yields a new key;
* a **dispatch-time cost model** — predicted wall time and joules of a
  job on this device from the same
  :class:`~repro.hw.analytic.ProfileTable`, which is what lets the
  scheduler route latency-critical work to the fast board and
  energy-sensitive work to the frugal one (SparseDVFS's batch-aware
  admission: predictions are per ``(graph, batch_size)``);
* a **health ledger** — an :class:`~repro.obs.anomaly.AnomalyDetector`
  rides along on every run; once a device has accumulated
  ``unhealthy_after`` anomalies it is *drained* and the scheduler stops
  routing to it.  With a :class:`RecoveryConfig` the drain is no longer
  terminal: the device walks a deterministic recovery state machine
  (drained → cooldown with exponential backoff → probe dispatch →
  probation → re-admitted, back to drained on probe failure or a
  probation anomaly) driven by the scheduler's event loop;
* per-device **observability** — an enabled
  :class:`~repro.obs.metrics.MetricsRegistry` the fleet later merges
  into the single scheduler-wide registry.

Everything is deterministic: per-job simulator and fault seeds are
derived with sha256 from ``(fleet seed, device name, dispatch seq)``,
never from wall clock or ``hash()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph import Graph
from repro.governors import (
    GOVERNOR_REGISTRY,
    AdaptivePresetGovernor,
    FrequencyPlan,
    PresetGovernor,
    make_governor,
)
from repro.governors.family import analytic_plan, floor_bucket
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.faults import FaultProfile
from repro.hw.platform import PlatformSpec, get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.obs import Observability, NULL_TRACER
from repro.obs.anomaly import AnomalyConfig, AnomalyDetector
from repro.obs.ledger import EnergyLedger
from repro.obs.metrics import MetricsRegistry

__all__ = ["PLAN_CACHE_VERSION", "plan_cache_key", "analytic_plan",
           "PlanCache", "DeviceConfig", "DispatchRecord",
           "RecoveryConfig", "SimulatedDevice", "Fleet", "derive_seed",
           "SERVING_GOVERNORS", "FAMILY_GOVERNORS"]

#: Bump when the analytic planner's semantics change (invalidates keys).
#: v2: plan keys carry the activation-sparsity bucket the plan was
#: built for (0.0 plans are numerically unchanged from v1).
PLAN_CACHE_VERSION = 2

#: Governor names the serving layer accepts: every registry governor
#: plus the preset PowerLens runtime fed by the analytic planner, its
#: self-healing variant (ledger-driven replanning between jobs), and
#: the input-aware family variants (per-device plan selection keyed by
#: batch and activation-sparsity bucket).
SERVING_GOVERNORS = tuple(sorted(GOVERNOR_REGISTRY)) \
    + ("powerlens", "powerlens-adaptive",
       "powerlens-family", "powerlens-family-adaptive")

#: Serving governors that bucket jobs by activation sparsity.
FAMILY_GOVERNORS = ("powerlens-family", "powerlens-family-adaptive")


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary identity parts (sha256, never
    ``hash()`` — the latter is salted per process)."""
    blob = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def plan_cache_key(platform: PlatformSpec, graph: Graph,
                   batch_size: int, latency_slack: float,
                   block_size: int, sparsity: float = 0.0) -> str:
    """Content hash of everything a device's frequency plan depends on
    (same recipe as :func:`repro.core.persistence.dataset_cache_key`)."""
    payload = {
        "version": PLAN_CACHE_VERSION,
        "platform": dataclasses.asdict(platform),
        "graph_fingerprint": graph.fingerprint(),
        "batch_size": int(batch_size),
        "latency_slack": latency_slack,
        "block_size": int(block_size),
        "sparsity": float(sparsity),
    }
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# ``analytic_plan`` (the closed-form per-block planner) lives with the
# plan-family machinery in :mod:`repro.governors.family` — it is the
# family member builder — and is re-exported here (``__all__``) because
# the serving layer is its historical home.


class PlanCache:
    """Per-device plan store, keyed by :func:`plan_cache_key`.

    Thread-safe under one device-level lock so the scheduler can
    pre-warm many devices' caches in parallel (``n_jobs``) while each
    device's underlying :class:`AnalyticEvaluator` LRU stays
    single-threaded.
    """

    def __init__(self, evaluator: AnalyticEvaluator,
                 latency_slack: float = 0.25,
                 block_size: int = 8) -> None:
        self.evaluator = evaluator
        self.latency_slack = latency_slack
        self.block_size = block_size
        self.hits = 0
        self.misses = 0
        self._plans: Dict[str, FrequencyPlan] = {}
        self._lock = threading.Lock()

    def key_for(self, graph: Graph, batch_size: int,
                sparsity: float = 0.0) -> str:
        return plan_cache_key(self.evaluator.platform, graph, batch_size,
                              self.latency_slack, self.block_size,
                              sparsity)

    def get_or_build(self, graph: Graph, batch_size: int,
                     sparsity: float = 0.0) -> FrequencyPlan:
        key = self.key_for(graph, batch_size, sparsity)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                return plan
            self.misses += 1
            plan = analytic_plan(self.evaluator, graph, batch_size,
                                 self.latency_slack, self.block_size,
                                 sparsity=sparsity)
            self._plans[key] = plan
            return plan

    def __len__(self) -> int:
        return len(self._plans)


@dataclass(frozen=True)
class DeviceConfig:
    """One fleet member: a platform preset plus simulator knobs."""

    name: str                     # unique fleet id, e.g. "tx2-0"
    platform: str = "tx2"         # preset key for hw.platform.get_platform
    sample_period: float = 0.02
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name required")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the drained-device recovery state machine.

    A drained device waits out a cooldown (``cooldown_s`` doubled —
    ``backoff_factor`` — per consecutive failed recovery, capped at
    ``max_cooldown_s``), then runs one canonical *probe* job.  A clean
    probe re-admits the device on **probation**: it serves real traffic
    again, but any anomaly within its next ``probation_jobs`` jobs
    re-drains it immediately (the regular ``unhealthy_after`` budget
    only applies after probation).  ``max_attempts`` failed probes /
    probation re-drains in a row make the drain permanent, which also
    bounds the event loop.
    """

    cooldown_s: float = 0.5
    backoff_factor: float = 2.0
    max_cooldown_s: float = 8.0
    probation_jobs: int = 2
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_cooldown_s < self.cooldown_s:
            raise ValueError("max_cooldown_s must be >= cooldown_s")
        if self.probation_jobs < 1:
            raise ValueError("probation_jobs must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def cooldown_after(self, attempts: int) -> float:
        """Backoff before probe attempt number ``attempts`` (0-based)."""
        return min(self.max_cooldown_s,
                   self.cooldown_s * self.backoff_factor ** attempts)


@dataclass
class DispatchRecord:
    """Outcome of one job executed on one device."""

    device: str
    job_name: str
    duration_s: float
    energy_j: float                # simulator trace total
    ledger_energy_j: float         # attributed (EnergyLedger) total
    ledger_ok: bool                # reconciliation within 1e-9
    switch_count: int
    new_anomalies: int
    replan_action: str = ""        # adaptive governor's observe verdict
    plan_fingerprint: str = ""     # executed plan-family member ("" =
                                   # registry governor, no preset plan)
    sparsity_bucket: float = 0.0   # bucket the plan was selected for


class SimulatedDevice:
    """One board of the fleet (see module docstring)."""

    def __init__(self, config: DeviceConfig, governor: str = "powerlens",
                 fleet_seed: int = 0,
                 faults: Optional[FaultProfile] = None,
                 anomaly_config: Optional[AnomalyConfig] = None,
                 latency_slack: float = 0.25, block_size: int = 8,
                 unhealthy_after: int = 1,
                 sparsity_edges: Sequence[float] = (0.0,)) -> None:
        if governor not in SERVING_GOVERNORS:
            raise KeyError(
                f"unknown serving governor {governor!r}; choose from "
                f"{', '.join(SERVING_GOVERNORS)}")
        if unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        self.config = config
        self.name = config.name
        self.platform = get_platform(config.platform)
        self.governor_name = governor
        self.fleet_seed = fleet_seed
        self.faults = faults if faults is not None and not faults.is_zero \
            else None
        self.unhealthy_after = unhealthy_after
        # Family mode: plans are additionally keyed by the activation
        # sparsity *bucket* of each job.  ``sparsity_edges`` are the
        # bucket lower edges (sorted, each edge doubling as the
        # representative sparsity its plans are built at); non-family
        # governors keep the single dense bucket so every key, plan and
        # event they produce stays byte-identical to the pre-family
        # serving layer.
        self.family_enabled = governor in FAMILY_GOVERNORS
        edges = tuple(sorted({float(s) for s in sparsity_edges}))
        if not edges:
            raise ValueError("at least one sparsity edge required")
        if not all(0.0 <= s < 1.0 for s in edges):
            raise ValueError("sparsity edges must be in [0, 1)")
        if edges[0] != 0.0:
            # Totality: jobs below the first edge must land somewhere.
            edges = (0.0,) + edges
        self.sparsity_edges = edges if self.family_enabled else (0.0,)
        self.evaluator = AnalyticEvaluator(self.platform)
        self.plan_cache = PlanCache(self.evaluator, latency_slack,
                                    block_size)
        # Per-device metrics, merged fleet-wide after the run; the
        # tracer stays off (span timing would not be deterministic).
        self.obs = Observability(tracer=NULL_TRACER,
                                 metrics=MetricsRegistry())
        self.anomaly = AnomalyDetector(config=anomaly_config,
                                       obs=self.obs)
        # Shared across dispatches: the simulator's static fast path
        # memoizes per-(fingerprint, batch, level) op rows here, so a
        # device serving the same models repeatedly never re-derives
        # their timing/power tables (values are byte-identical either
        # way; see repro.hw.analytic.simulator_op_rows).
        self._op_row_cache: dict = {}
        if governor in ("powerlens", "powerlens-family"):
            # Family mode reuses the preset runtime: the per-dispatch
            # plan *selection* below (plan cache + overlay keyed by
            # sparsity bucket) is the family; the runtime only ever
            # sees the selected member.
            self._governor = PresetGovernor([], name=governor,
                                            metrics=self.obs.metrics)
        elif governor in ("powerlens-adaptive",
                          "powerlens-family-adaptive"):
            self._governor = AdaptivePresetGovernor(
                [], self.evaluator, latency_slack=latency_slack,
                obs=self.obs, name=governor)
        else:
            self._governor = make_governor(governor)
        # Adopted corrections per (graph fingerprint, batch, sparsity
        # bucket): the adaptive loop's plans survive across dispatches
        # without polluting the content-hash plan cache, and nudges
        # never leak across family members.
        self._plan_overlay: Dict[Tuple[str, int, float],
                                 FrequencyPlan] = {}
        # -- scheduler-visible state --------------------------------------
        self.busy = False
        self.drained = False
        self.jobs_done = 0
        self.requests_served = 0
        self.busy_time_s = 0.0
        self.energies_j: List[float] = []
        self.ledger_energies_j: List[float] = []
        self.anomaly_count = 0
        self.records: List[DispatchRecord] = []
        self._predictions: Dict[Tuple[str, int], Tuple[float, float]] = {}
        # -- recovery state machine (driven by the scheduler) --------------
        self.recovery_state = "active"
        self.drain_count = 0
        self.recovery_attempts = 0
        self.readmissions = 0
        self.probation_left = 0
        self.anomaly_floor = 0
        self.drained_since: Optional[float] = None
        self.drained_seconds = 0.0

    # ------------------------------------------------------------------
    # planning / prediction
    # ------------------------------------------------------------------
    def sparsity_bucket(self, sparsity: float) -> float:
        """Representative sparsity the plans for ``sparsity`` are built
        at: the largest configured edge not exceeding it (the
        :class:`~repro.governors.family.FeatureBuckets` floor rule;
        always 0.0 for non-family governors)."""
        edges = self.sparsity_edges
        return edges[floor_bucket(edges, float(sparsity))]

    def plan_for(self, graph: Graph, batch_size: int,
                 sparsity: float = 0.0) -> FrequencyPlan:
        return self.plan_cache.get_or_build(
            graph, batch_size, self.sparsity_bucket(sparsity))

    def prewarm(self, graphs: Sequence[Graph], batch_sizes:
                Sequence[int]) -> None:
        """Build every plan this device could need (pure, idempotent —
        safe to run from a thread pool)."""
        for graph in graphs:
            for batch in batch_sizes:
                for edge in self.sparsity_edges:
                    self.plan_cache.get_or_build(graph, batch, edge)
                self.predict(graph, batch)

    def predict(self, graph: Graph,
                batch_size: int) -> Tuple[float, float]:
        """(seconds, joules) for ONE batch of ``graph`` on this device,
        from the analytic plan — the scheduler's routing cost model.

        Deliberately dense (sparsity 0.0) even in family mode: routing
        compares devices against each other, and the dense table ranks
        them the same while keeping predictions — and therefore routing
        and the event log — independent of the configured bucket grid."""
        key = (graph.fingerprint(), int(batch_size))
        cached = self._predictions.get(key)
        if cached is not None:
            return cached
        plan = self.plan_cache.get_or_build(graph, batch_size)
        table = self.evaluator.profile_table(graph, batch_size)
        starts = [s.op_index for s in plan.steps] + [table.n_ops]
        blocks = [list(range(starts[i], starts[i + 1]))
                  for i in range(len(plan.steps))]
        energy, time = table.plan_energy_time(
            blocks, [s.level for s in plan.steps])
        self._predictions[key] = (time, energy)
        return time, energy

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return not self.drained

    @property
    def idle(self) -> bool:
        return not self.busy

    @property
    def fresh_anomalies(self) -> int:
        """Anomalies accumulated since the last re-admission — the
        count the ``unhealthy_after`` drain budget applies to."""
        return self.anomaly_count - self.anomaly_floor

    # ------------------------------------------------------------------
    # recovery state machine (transitions invoked by the scheduler;
    # timing — cooldown scheduling, probe dispatch — lives in the
    # scheduler's event loop so virtual time stays in one place)
    # ------------------------------------------------------------------
    def begin_drain(self, t: float) -> None:
        """active/probation → drained at virtual time ``t``."""
        self.drained = True
        self.recovery_state = "drained"
        self.drain_count += 1
        if self.drained_since is None:
            self.drained_since = t

    def begin_cooldown(self) -> None:
        """drained → cooldown (a probe has been scheduled)."""
        self.recovery_state = "cooldown"

    def begin_probation(self, t: float, probation_jobs: int) -> None:
        """cooldown → probation: the probe ran clean, serve real
        traffic again under a zero-tolerance anomaly budget."""
        self.drained = False
        self.recovery_state = "probation"
        self.probation_left = probation_jobs
        self.readmissions += 1
        self.anomaly_floor = self.anomaly_count
        if self.drained_since is not None:
            self.drained_seconds += max(0.0, t - self.drained_since)
            self.drained_since = None

    def complete_probation(self) -> None:
        """probation → active: the device survived its probation jobs;
        the backoff ladder resets."""
        self.recovery_state = "active"
        self.probation_left = 0
        self.recovery_attempts = 0

    def finalize_drain_accounting(self, t_end: float) -> None:
        """Close the drained-seconds interval of a still-drained device
        at the end of the trace."""
        if self.drained_since is not None:
            self.drained_seconds += max(0.0, t_end - self.drained_since)
            self.drained_since = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, job: InferenceJob,
                dispatch_seq: int) -> DispatchRecord:
        """Run ``job`` through the full governor/simulator stack.

        Virtual-time execution: the simulation happens synchronously
        here and the *scheduler* advances its clock by the returned
        duration.  Seeds are derived per dispatch so repeated runs of
        the same trace replay the same noise and faults.
        """
        seed = derive_seed(self.fleet_seed, self.name, dispatch_seq)
        faults = None
        if self.faults is not None:
            faults = replace(self.faults, seed=derive_seed(
                self.fleet_seed, self.name, dispatch_seq, "faults"))
        plan = None
        sbucket = self.sparsity_bucket(job.sparsity)
        overlay_key = (job.graph.fingerprint(), int(job.batch_size),
                       sbucket)
        executed_plan = None
        if isinstance(self._governor, PresetGovernor):
            plan = self._plan_overlay.get(overlay_key)
            if plan is None:
                plan = self.plan_for(job.graph, job.batch_size,
                                     sbucket)
            self._governor.add_plan(plan)
            executed_plan = plan
        sim = InferenceSimulator(
            self.platform,
            sample_period=self.config.sample_period,
            noise_std=self.config.noise_std,
            seed=seed,
            keep_trace=True,
            keep_samples=False,
            faults=faults,
            obs=self.obs,
            anomaly=self.anomaly,
            op_row_cache=self._op_row_cache,
        )
        anomalies_before = len(self.anomaly.anomalies)
        result = sim.run([job], self._governor)
        new_anomalies = len(self.anomaly.anomalies) - anomalies_before
        replan_action = ""
        if isinstance(self._governor, AdaptivePresetGovernor):
            # The adaptive loop needs misprediction flags, so this
            # ledger carries the evaluator; the static path stays
            # byte-identical to its pre-adaptive form.
            ledger = EnergyLedger.from_result(
                result, plan=plan, graph=job.graph,
                evaluator=self.evaluator,
                batch_size=job.batch_size,
                latency_slack=self.plan_cache.latency_slack,
                sparsity=job.sparsity)
            replan_action = self._governor.observe_job(
                job.graph, job.batch_size, ledger,
                new_anomalies=new_anomalies,
                sparsity=job.sparsity)
            current = self._governor.plan_for(job.graph.name)
            if current is not None and current is not plan:
                self._plan_overlay[overlay_key] = current
        else:
            ledger = EnergyLedger.from_result(result, plan=plan,
                                              graph=job.graph)
        record = DispatchRecord(
            device=self.name,
            job_name=job.label(),
            duration_s=result.report.total_time,
            energy_j=result.trace.total_energy,
            ledger_energy_j=ledger.total_energy_j,
            ledger_ok=ledger.reconciliation.ok,
            switch_count=result.switch_count,
            new_anomalies=new_anomalies,
            replan_action=replan_action,
            plan_fingerprint=(executed_plan.fingerprint()
                              if executed_plan is not None else ""),
            sparsity_bucket=sbucket,
        )
        self.jobs_done += 1
        self.busy_time_s += record.duration_s
        self.energies_j.append(record.energy_j)
        self.ledger_energies_j.append(record.ledger_energy_j)
        self.anomaly_count += new_anomalies
        self.records.append(record)
        return record


class Fleet:
    """The device pool plus the shared model-graph store."""

    def __init__(self, devices: Sequence[SimulatedDevice]) -> None:
        if not devices:
            raise ValueError("a fleet needs at least one device")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ValueError("device names must be unique")
        self.devices = list(devices)
        self.graphs: Dict[str, Graph] = {}

    @classmethod
    def build(cls, configs: Sequence[DeviceConfig], governor: str,
              fleet_seed: int = 0,
              faults: Optional[FaultProfile] = None,
              anomaly_config: Optional[AnomalyConfig] = None,
              latency_slack: float = 0.25, block_size: int = 8,
              unhealthy_after: int = 1,
              sparsity_edges: Sequence[float] = (0.0,)) -> "Fleet":
        return cls([
            SimulatedDevice(cfg, governor, fleet_seed, faults,
                            anomaly_config, latency_slack, block_size,
                            unhealthy_after, sparsity_edges)
            for cfg in configs
        ])

    def __len__(self) -> int:
        return len(self.devices)

    def graph_for(self, model: str) -> Graph:
        graph = self.graphs.get(model)
        if graph is None:
            from repro.models import build_model

            graph = self.graphs[model] = build_model(model)
        return graph

    def add_graph(self, graph: Graph) -> None:
        """Register a pre-built graph (tests use tiny synthetic CNNs
        instead of the Table-1 zoo)."""
        self.graphs[graph.name] = graph

    def healthy_idle(self) -> List[SimulatedDevice]:
        """Dispatch candidates in fixed device order (deterministic)."""
        return [d for d in self.devices if d.healthy and d.idle]

    def prewarm(self, models: Sequence[str], batch_sizes: Sequence[int],
                n_jobs: int = 1) -> None:
        """Build all plan caches up front.

        ``n_jobs > 1`` parallelizes across devices with threads; plans
        are pure functions of (platform, graph, batch), so the results
        — and everything downstream — are byte-identical at any
        ``n_jobs`` (the determinism suite pins this).
        """
        graphs = [self.graph_for(m) for m in models]
        if n_jobs <= 1 or len(self.devices) == 1:
            for device in self.devices:
                device.prewarm(graphs, batch_sizes)
            return
        from concurrent.futures import ThreadPoolExecutor

        workers = min(n_jobs, len(self.devices))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(d.prewarm, graphs, batch_sizes)
                       for d in self.devices]
            for future in futures:
                future.result()

    def merged_metrics(self) -> MetricsRegistry:
        """Fold every device's registry into one fleet-wide registry."""
        merged = MetricsRegistry()
        for device in self.devices:
            merged.merge(device.obs.metrics)
        return merged

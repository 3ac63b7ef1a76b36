"""Simulated device fleet: heterogeneous boards behind one scheduler.

Each :class:`SimulatedDevice` wraps one :class:`~repro.hw.platform.\
PlatformSpec` (TX2, AGX, ...) plus everything the serving layer needs
to treat it as an independent worker:

* a **plan store** — the device's
  :class:`~repro.governors.family.PlanCache`: frequency plans built
  analytically (NeuralPower-style closed-form oracle, no fitted lens
  required), one per graph, batch size and sparsity bucket, plus the
  corrections the adaptive governors adopt per member;
* a **dispatch-time cost model** — predicted wall time and joules of a
  job on this device from the same
  :class:`~repro.hw.analytic.ProfileTable`, which is what lets the
  scheduler route latency-critical work to the fast board and
  energy-sensitive work to the frugal one (SparseDVFS's batch-aware
  admission: predictions are per ``(graph, batch_size)``);
* a **health ledger** — an :class:`~repro.obs.anomaly.AnomalyDetector`
  rides along on every run; once a device has accumulated
  :data:`UNHEALTHY_AFTER` anomalies it is *drained* and the scheduler stops
  routing to it.  With a :class:`RecoveryConfig` the drain is no longer
  terminal: the device walks a deterministic recovery state machine
  (drained → cooldown with exponential backoff → probe dispatch →
  probation → re-admitted, back to drained on probe failure or a
  probation anomaly) driven by the scheduler's event loop;
* per-device **observability** — an enabled
  :class:`~repro.obs.metrics.MetricsRegistry` the fleet later merges
  into the single scheduler-wide registry;
* a **dispatch memo** — on a *static* device (no noise, no faults, a
  non-adaptive governor) a dispatch's outcome is a pure function of the
  job and the selected plan, so the first full run of each
  ``(graph, batch, n_batches, sparsity, cpu work, plan)`` key is
  recorded and later dispatches of that key replay it: the same
  :class:`DispatchRecord` numbers and the same metric effects, without
  the simulator or the ledger (DESIGN.md §5l).

Everything is deterministic: per-job simulator and fault seeds are
derived with sha256 from ``(fleet seed, device name, dispatch seq)``,
never from wall clock or ``hash()``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph import Graph
from repro.governors import (
    GOVERNOR_REGISTRY,
    AdaptivePresetGovernor,
    PresetGovernor,
    make_governor,
)
from repro.governors.family import PlanCache
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.faults import FaultProfile
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator, SimCosts
from repro.obs import Observability, NULL_TRACER
from repro.obs.anomaly import AnomalyDetector
from repro.obs.ledger import EnergyLedger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)

__all__ = ["DeviceConfig", "DispatchRecord",
           "RecoveryConfig", "SimulatedDevice", "Fleet", "derive_seed",
           "SERVING_GOVERNORS", "FAMILY_GOVERNORS"]

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

#: Anomalies since the last re-admission that drain a device.
UNHEALTHY_AFTER = 1


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary identity parts (sha256, never
    ``hash()`` — the latter is salted per process)."""
    blob = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


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
    re-drains it immediately (the regular :data:`UNHEALTHY_AFTER` budget
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
        if not all(map(math.isfinite, (self.cooldown_s, self.backoff_factor,
                                       self.max_cooldown_s))):
            raise ValueError("recovery timings must be finite")
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


class _Taped:
    """A device counter or histogram that also records every increment
    (summed per counter) or observation (in order) on a tape."""

    __slots__ = ("metric", "tape")

    def __init__(self, metric, tape: "_MetricTape") -> None:
        self.metric = metric
        self.tape = tape

    def inc(self, n: int = 1) -> None:
        self.metric.inc(n)
        incs = self.tape.incs
        incs[self.metric] = incs.get(self.metric, 0) + int(n)

    def observe(self, value: float) -> None:
        self.metric.observe(value)
        self.tape.observed.append((self.metric, value))


class _MetricTape:
    """Registry view for one memo-miss simulator run: metrics resolve
    to the device registry's own objects, and every counter increment
    and histogram observation the simulator makes is also recorded, so
    a memo hit can replay the run's metric effects exactly (only the
    counter/histogram surface the simulator uses)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.incs: Dict[Counter, int] = {}
        self.observed: List[Tuple[Histogram, float]] = []

    def counter(self, name: str, help: str = "") -> _Taped:
        return _Taped(self.registry.counter(name, help), self)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> _Taped:
        return _Taped(self.registry.histogram(name, help, buckets), self)

    def explains(self, before: Dict[str, object],
                 after: Dict[str, object]) -> bool:
        """True when the tape accounts for every change between two
        :func:`_metric_state` snapshots of the device registry — i.e.
        nothing outside the simulator (a governor counter, an anomaly)
        touched the registry during the run."""
        expected = dict(before)
        for metric, n in self.incs.items():
            expected[metric.name] = expected.get(metric.name, 0) + n
        for metric, _value in self.observed:
            expected[metric.name] = expected.get(metric.name, 0) + 1
        return expected == after

    def replay(self) -> None:
        """Apply the recorded effects again: counter increments, then
        histogram observations in their original order (so float sums
        stay byte-identical)."""
        for metric, n in self.incs.items():
            metric.inc(n)
        for metric, value in self.observed:
            metric.observe(value)


def _metric_state(registry: MetricsRegistry) -> Dict[str, object]:
    """Comparable snapshot: counter values, histogram observation
    counts, and the full state of anything else (gauges)."""
    state: Dict[str, object] = {}
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Counter):
            state[name] = metric.value
        elif isinstance(metric, Histogram):
            state[name] = metric.count
        else:
            state[name] = metric.to_dict()
    return state


class SimulatedDevice:
    """One board of the fleet (see module docstring)."""

    def __init__(self, config: DeviceConfig, governor: str = "powerlens",
                 fleet_seed: int = 0,
                 faults: Optional[FaultProfile] = None,
                 sparsity_edges: Sequence[float] = (0.0,)) -> None:
        if governor not in SERVING_GOVERNORS:
            raise KeyError(
                f"unknown serving governor {governor!r}; choose from "
                f"{', '.join(SERVING_GOVERNORS)}")
        self.config = config
        self.name = config.name
        self.platform = get_platform(config.platform)
        self.governor_name = governor
        self.fleet_seed = fleet_seed
        self.faults = faults if faults is not None and not faults.is_zero \
            else None
        self.evaluator = AnalyticEvaluator(self.platform)
        # One set of simulator cost tables for every dispatch on this
        # board; graph work is shared with the evaluator.
        self.sim_costs = SimCosts(self.platform,
                                  latency=self.evaluator.latency)
        # Family mode: plans are additionally keyed by the activation
        # sparsity *bucket* of each job.  Non-family governors keep the
        # single dense bucket (after the edges are validated) so every
        # key, plan and event they produce stays byte-identical to the
        # pre-family serving layer.
        self.plan_cache = PlanCache(self.evaluator,
                                    sparsity_edges=sparsity_edges)
        if governor not in FAMILY_GOVERNORS:
            self.plan_cache.sparsity_edges = (0.0,)
        # Per-device metrics, merged fleet-wide after the run; the
        # tracer stays off (span timing would not be deterministic).
        self.obs = Observability(tracer=NULL_TRACER,
                                 metrics=MetricsRegistry())
        self.anomaly = AnomalyDetector(obs=self.obs)
        if governor in ("powerlens", "powerlens-family"):
            # Family mode reuses the preset runtime: the per-dispatch
            # plan *selection* below (the plan store, keyed by sparsity
            # bucket) is the family; the runtime only ever sees the
            # selected member.
            self._governor = PresetGovernor([], name=governor,
                                            metrics=self.obs.metrics)
        elif governor in ("powerlens-adaptive",
                          "powerlens-family-adaptive"):
            self._governor = AdaptivePresetGovernor(
                [], self.evaluator,
                latency_slack=self.plan_cache.latency_slack,
                obs=self.obs, name=governor)
        else:
            self._governor = make_governor(governor)
        # Dispatch memo: key -> (record of the full run, its metric
        # tape); None when a dispatch is not a pure function of its key.
        # Hit/miss counts are for tests and benches only.
        self._memo: Optional[Dict[tuple, Tuple[DispatchRecord,
                                               _MetricTape]]] = \
            {} if self._dispatch_is_static() else None
        self.memo_hits = 0
        self.memo_misses = 0
        # -- scheduler-visible state (what a device did is on the event
        # log; only what the loop acts on lives here) ----------------------
        self.busy = False
        self.anomaly_count = 0
        self._predictions: Dict[Tuple[str, int], Tuple[float, float]] = {}
        # -- recovery state machine (driven by the scheduler) --------------
        self.recovery_state = "active"
        self.recovery_attempts = 0
        self.probation_left = 0
        self.anomaly_floor = 0

    # ------------------------------------------------------------------
    # planning / prediction
    # ------------------------------------------------------------------
    def prewarm(self, graphs: Sequence[Graph], batch_sizes:
                Sequence[int]) -> None:
        """Build every plan and prediction this device could need
        (pure and idempotent)."""
        for graph in graphs:
            for batch in batch_sizes:
                for edge in self.plan_cache.sparsity_edges:
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
        energy, time = table.plan_energy_time(
            plan.spans(table.n_ops), [s.level for s in plan.steps])
        self._predictions[key] = (time, energy)
        return time, energy

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        """Out of routing: drained, cooling down or running its probe."""
        return self.recovery_state in ("drained", "cooldown", "probing")

    @property
    def over_anomaly_budget(self) -> bool:
        """True once the anomalies accumulated since the last
        re-admission reach :data:`UNHEALTHY_AFTER`."""
        return self.anomaly_count - self.anomaly_floor >= UNHEALTHY_AFTER

    # ------------------------------------------------------------------
    # recovery state machine (transitions invoked by the scheduler;
    # timing — cooldown scheduling, probe dispatch — lives in the
    # scheduler's event loop so virtual time stays in one place)
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """active/probation → drained."""
        self.recovery_state = "drained"

    def begin_cooldown(self) -> None:
        """drained → cooldown (a probe has been scheduled)."""
        self.recovery_state = "cooldown"

    def begin_probation(self, probation_jobs: int) -> None:
        """cooldown → probation: the probe ran clean, serve real
        traffic again under a zero-tolerance anomaly budget."""
        self.recovery_state = "probation"
        self.probation_left = probation_jobs
        self.anomaly_floor = self.anomaly_count

    def complete_probation(self) -> None:
        """probation → active: the device survived its probation jobs;
        the backoff ladder resets."""
        self.recovery_state = "active"
        self.probation_left = 0
        self.recovery_attempts = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _dispatch_is_static(self) -> bool:
        """True when every dispatch on this device is a pure function
        of its memo key: no duration noise, no fault injection, and a
        governor whose ``reset()`` clears all per-run state (the
        adaptive governors carry replan state across jobs)."""
        return (self.config.noise_std == 0
                and self.faults is None
                and not isinstance(self._governor, AdaptivePresetGovernor))

    def execute(self, job: InferenceJob,
                dispatch_seq: int) -> DispatchRecord:
        """Run ``job`` through the full governor/simulator stack, or
        replay it from the dispatch memo on a static device.

        Virtual-time execution: the simulation happens synchronously
        here and the *scheduler* advances its clock by the returned
        duration.  Seeds are derived per dispatch so repeated runs of
        the same trace replay the same noise and faults.
        """
        plan, sbucket, plan_fingerprint = None, 0.0, ""
        if isinstance(self._governor, PresetGovernor):
            plan, sbucket = self.plan_cache.select(
                job.graph, job.batch_size, job.sparsity)
            self._governor.add_plan(plan)
            plan_fingerprint = plan.fingerprint()
        memo = self._memo
        if memo is not None:
            # The graph name joins the key because the preset governor
            # looks plans up by name, not fingerprint.
            memo_key = (job.graph.name, job.graph.fingerprint(),
                        int(job.batch_size), job.n_batches, job.sparsity,
                        job.cpu_work_per_image, plan_fingerprint)
            entry = memo.get(memo_key)
            if entry is not None:
                self.memo_hits += 1
                record, tape = entry
                tape.replay()
                return replace(record, job_name=job.label())
            self.memo_misses += 1
        seed = derive_seed(self.fleet_seed, self.name, dispatch_seq)
        faults = None
        if self.faults is not None:
            faults = replace(self.faults, seed=derive_seed(
                self.fleet_seed, self.name, dispatch_seq, "faults"))
        tape = sim_obs = None
        if memo is not None:
            tape = _MetricTape(self.obs.metrics)
            sim_obs = Observability(tracer=NULL_TRACER, metrics=tape)
        sim = InferenceSimulator(
            self.platform,
            sample_period=self.config.sample_period,
            noise_std=self.config.noise_std,
            seed=seed,
            keep_trace=True,
            keep_samples=False,
            faults=faults,
            obs=sim_obs or self.obs,
            anomaly=self.anomaly,
            costs=self.sim_costs,
        )
        # The simulator registered its metrics above, so the snapshot
        # sees them and only the run's own effects differ afterwards.
        metrics_before = (_metric_state(self.obs.metrics)
                          if tape is not None else None)
        anomalies_before = self.anomaly.emitted
        result = sim.run([job], self._governor)
        # Recorded + dropped: ``anomalies`` stops growing at max_records.
        new_anomalies = self.anomaly.emitted - anomalies_before
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
                self.plan_cache.adopt(job.graph, job.batch_size, sbucket,
                                      current)
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
            plan_fingerprint=plan_fingerprint,
            sparsity_bucket=sbucket,
        )
        if tape is not None and new_anomalies == 0 and tape.explains(
                metrics_before, _metric_state(self.obs.metrics)):
            # An anomalous run moves device health, and an effect
            # outside the tape (a governor counter) may not repeat.
            memo[memo_key] = (record, tape)
        self.anomaly_count += new_anomalies
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
              sparsity_edges: Sequence[float] = (0.0,)) -> "Fleet":
        return cls([
            SimulatedDevice(cfg, governor, fleet_seed, faults,
                            sparsity_edges)
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

    def prewarm(self, models: Sequence[str],
                batch_sizes: Sequence[int]) -> None:
        """Build every device's plans and predictions up front."""
        graphs = [self.graph_for(m) for m in models]
        for device in self.devices:
            device.prewarm(graphs, batch_sizes)

    def merged_metrics(self) -> MetricsRegistry:
        """Fold every device's registry into one fleet-wide registry."""
        merged = MetricsRegistry()
        for device in self.devices:
            merged.merge(device.obs.metrics)
        return merged

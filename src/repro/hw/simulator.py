"""Discrete-event inference simulator with pluggable DVFS governors.

The simulator executes inference jobs the way the paper's testbed does:
each batch is a CPU preprocessing stage (image decode/resize) followed by
the GPU operator sequence of the network.  Execution is piecewise
constant in (frequency, power); reactive governors observe sampled
telemetry windows and may retarget the GPU level at window boundaries,
while PowerLens-style governors retarget at operator boundaries
(instrumentation points).  Energy is integrated exactly over segments.

DVFS actuation cost model (see :mod:`repro.hw.dvfs`): the GPU stalls for
``dvfs_stall_s`` and the host CPU stays busy for ``dvfs_latency_s`` after
each switch; during that window CPU power is charged at its busy level.

Fault injection (see :mod:`repro.hw.faults`): construct the simulator
with a ``faults`` profile and every actuation flows through
:meth:`~repro.hw.dvfs.DVFSController.actuate` under a per-run
:class:`~repro.hw.faults.FaultInjector` — switches can drop, land short
or stall longer; external cap windows clamp the achievable level; and
telemetry windows can be dropped, stuck or noisy before a governor sees
them.  Governors that implement ``on_switch_result`` (the resilient
preset runtime) are told each command's achieved level and may answer
with a bounded number of immediate retry targets.  With no profile (or
an all-zero one) the fault layer is bypassed entirely, keeping traces,
telemetry and energy byte-identical to the pre-fault simulator.

Per-segment costs are table lookups, each filled once by the scalar
power and latency models, so every value is the float they return.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.graph import Graph
from repro.hw.dvfs import DVFSController, SwitchResult
from repro.hw.faults import (
    OUTCOME_DROPPED,
    FaultInjector,
    FaultProfile,
    FaultStats,
)
from repro.hw.perf import LatencyModel, OpWork, sparse_works
from repro.hw.platform import PlatformSpec
from repro.hw.power import PowerModel
from repro.hw.thermal import ThermalConfig, ThermalState
from repro.hw.telemetry import (
    KIND_CPU,
    KIND_GPU_OP,
    KIND_SWITCH,
    METRIC_SAMPLES,
    METRIC_SAMPLES_DROPPED,
    METRIC_SAMPLES_FAULTY,
    EnergyReport,
    TelemetrySample,
    Trace,
    report_from_trace,
)
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import SWITCH_LATENCY_BUCKETS

#: Hard bound on actuation attempts per decision point — a backstop so a
#: governor retry loop can never hang the simulator even at 100 % fault
#: rates (governors bound their own retries well below this).
MAX_ACTUATIONS_PER_POINT = 8

#: Bounded size of the per-(graph, batch, sparsity) operator-cost LRU.
OP_TABLE_CACHE_SIZE = 64

#: (nominal duration, GPU busy power, compute util, memory util).
OpCost = Tuple[float, float, float, float]


@dataclass(frozen=True)
class InferenceJob:
    """One inference task: ``n_batches`` batches of ``batch_size`` images
    through ``graph``, each preceded by CPU preprocessing.

    ``sparsity`` is the job's activation-sparsity fraction; sparsity-
    sensitive operators shrink per :func:`repro.hw.perf.sparse_works`.
    The default ``0.0`` leaves every workload byte-identical to the
    pre-sparsity simulator.
    """

    graph: Graph
    batch_size: int = 16
    n_batches: int = 1
    cpu_work_per_image: float = 1.2e8
    name: str = ""
    sparsity: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.n_batches < 0:
            raise ValueError("n_batches must be non-negative")
        if not (math.isfinite(self.cpu_work_per_image)
                and self.cpu_work_per_image >= 0):
            raise ValueError("cpu_work_per_image must be finite and "
                             "non-negative")

    @property
    def images(self) -> int:
        return self.batch_size * self.n_batches

    def label(self) -> str:
        return self.name or self.graph.name


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    report: EnergyReport
    trace: Trace
    samples: List[TelemetrySample]
    switch_count: int
    reversal_count: int
    per_job: List[EnergyReport] = field(default_factory=list)
    peak_temperature: float = 0.0
    throttle_time: float = 0.0
    #: Fault-injection accounting for the run (None without a profile).
    fault_stats: Optional[FaultStats] = None

    @property
    def energy_efficiency(self) -> float:
        return self.report.energy_efficiency


class SimCosts:
    """A platform's per-level constants (indexed by GPU / CPU ladder
    level) and a bounded LRU of per-op rows keyed like
    :class:`~repro.hw.analytic.ProfileTable`.

    Nothing here depends on a run's seed, noise, faults or governor, so
    one instance may serve every run on its board; it is not
    thread-safe.  ``latency`` (a model of the same platform) shares an
    existing graph-work cache.
    """

    def __init__(self, platform: PlatformSpec,
                 latency: Optional[LatencyModel] = None) -> None:
        self.platform = platform
        self.latency = latency or LatencyModel(platform)
        self.power = power = PowerModel(platform)
        gpu_freqs = platform.gpu_freq_levels
        cpu = platform.cpu
        self.gpu_idle = [power.gpu_idle(f) for f in gpu_freqs]
        self.gpu_static = [power.gpu_static(f) for f in gpu_freqs]
        self.cpu_busy = [power.cpu_busy(f) for f in cpu.freq_levels]
        self.cpu_idle = [power.cpu_idle(f) for f in cpu.freq_levels]
        self.cpu_rate = [cpu.ops_per_cycle * f for f in cpu.freq_levels]
        # (fingerprint, batch, sparsity) -> (sparse works, per-op rows of
        # per-level costs, each slot filled the first time it is read).
        self._op_tables: "OrderedDict[tuple, tuple]" = OrderedDict()

    def op_table(self, job: InferenceJob) -> Tuple[
            Sequence[OpWork], List[List[Optional[OpCost]]]]:
        """The job's op works and per-op rows of per-level costs."""
        key = (job.graph.fingerprint(), job.batch_size, job.sparsity)
        table = self._op_tables.get(key)
        if table is not None:
            self._op_tables.move_to_end(key)
            return table
        works = sparse_works(self.latency.graph_work(job.graph),
                             job.sparsity)
        n_levels = self.platform.n_levels
        table = works, [[None] * n_levels for _ in works]
        self._op_tables[key] = table
        while len(self._op_tables) > OP_TABLE_CACHE_SIZE:
            self._op_tables.popitem(last=False)
        return table

    def op_cost(self, work: OpWork, level: int,
                batch_size: int) -> OpCost:
        freq = self.platform.gpu_freq_levels[level]
        timing = self.latency.time_of(work, freq, batch_size)
        return (timing.duration, self.power.gpu_busy(freq, timing),
                timing.compute_utilization, timing.memory_utilization)


class _SampleWindow:
    """Window statistics between sampling boundaries (fed by ``_emit``)."""

    __slots__ = ("busy_gpu", "busy_cpu", "cu", "mu", "gpu_e", "cpu_e",
                 "total_e", "start")

    def __init__(self, start: float) -> None:
        self.start = start
        self.busy_gpu = 0.0
        self.busy_cpu = 0.0
        self.cu = 0.0
        self.mu = 0.0
        self.gpu_e = 0.0
        self.cpu_e = 0.0
        self.total_e = 0.0


class InferenceSimulator:
    """Runs inference jobs on a platform under a governor.

    Parameters
    ----------
    platform:
        Hardware model to execute on.
    sample_period:
        Telemetry window length in seconds (what reactive governors see).
    noise_std:
        Multiplicative lognormal-ish noise on operator durations,
        modelling run-to-run variation of the testbed ("each energy
        efficiency test is run 50 times on randomized inputs").
    keep_trace / keep_samples:
        Retain full segment/sample lists (disable for long task flows).
    faults:
        Optional :class:`~repro.hw.faults.FaultProfile`; a fresh
        injector is built per :meth:`run`, so repeated runs see the same
        deterministic fault sequence.  ``None`` (or a zero profile)
        bypasses the fault layer completely.
    anomaly:
        Optional online detector (duck-typed to
        :class:`repro.obs.anomaly.AnomalyDetector`): sees every
        delivered telemetry window and every actuation result,
        strictly observe-only — nothing it computes flows back into the
        run (pinned by ``tests/test_obs_anomaly.py``).
    costs:
        Optional :class:`SimCosts` of ``platform``, shared by the
        simulators of one board (a serving device); ``None`` builds a
        private one.
    """

    def __init__(self, platform: PlatformSpec, sample_period: float = 0.02,
                 noise_std: float = 0.0, seed: int = 0,
                 keep_trace: bool = True, keep_samples: bool = True,
                 thermal: Optional[ThermalConfig] = None,
                 faults: Optional[FaultProfile] = None,
                 obs: Optional[Observability] = None,
                 anomaly: Optional[object] = None,
                 costs: Optional[SimCosts] = None) -> None:
        if sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if not (math.isfinite(noise_std) and noise_std >= 0):
            raise ValueError("noise_std must be finite and non-negative")
        self.platform = platform
        self._board_power = platform.board_power
        self.sample_period = sample_period
        self.noise_std = noise_std
        self.keep_trace = keep_trace
        self.keep_samples = keep_samples
        self.thermal_config = thermal
        self.faults = faults
        if costs is None:
            costs = SimCosts(platform)
        elif costs.platform is not platform:
            raise ValueError("costs were built for another platform")
        self.costs = costs
        self._rng = random.Random(seed)
        self.anomaly = anomaly
        # Observe-only.  Metric handles are resolved once here (not per
        # actuation/window) so the enabled path stays cheap and the
        # disabled path is a shared no-op object.
        self.obs = obs if obs is not None else NULL_OBS
        self._m_switch_stall = self.obs.metrics.histogram(
            "powerlens_dvfs_switch_stall_seconds",
            help="GPU stall charged per successful DVFS actuation",
            buckets=SWITCH_LATENCY_BUCKETS)
        self._m_switches = self.obs.metrics.counter(
            "powerlens_dvfs_switches_total")
        self._m_dropped_cmds = self.obs.metrics.counter(
            "powerlens_dvfs_commands_dropped_total")
        # Registered up front (like the handles above) so every run
        # exposes the same metric set, whether or not it samples.  The
        # dropped / faulty counters register on first use, so they only
        # appear in the exposition of runs that drop or perturb windows.
        self._m_samples = self.obs.metrics.counter(METRIC_SAMPLES)

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[InferenceJob], governor) -> SimulationResult:
        """Execute ``jobs`` sequentially under ``governor``."""
        platform = self.platform
        self._governor = governor
        governor.reset(platform)
        if self.anomaly is not None:
            self.anomaly.reset(platform)
        dvfs = DVFSController(platform,
                              level=governor.initial_gpu_level())
        cpu_policy = getattr(governor, "cpu_policy", "ondemand")
        cpu_level = self._initial_cpu_level(cpu_policy)

        state = _RunState(
            trace=Trace(keep_segments=self.keep_trace),
            dvfs=dvfs,
            cpu_level=cpu_level,
            cpu_policy=cpu_policy,
            window=_SampleWindow(0.0),
            next_sample=self.sample_period,
            thermal=(ThermalState.initial(self.thermal_config)
                     if self.thermal_config else None),
            injector=FaultInjector.maybe(self.faults),
        )
        samples: List[TelemetrySample] = []
        per_job: List[EnergyReport] = []

        for job_idx, job in enumerate(jobs):
            e0, t0 = state.trace.total_energy, state.trace.total_time
            level = governor.on_job_start(job_idx, job)
            if level is not None:
                self._apply_switch(state, level)
            works, rows = self.costs.op_table(job)
            cpu_label = f"{job.label()}:cpu"
            for _batch in range(job.n_batches):
                self._run_cpu_phase(state, governor, job, cpu_label,
                                    samples)
                self._run_gpu_phase(state, governor, job, job_idx,
                                    works, rows, samples)
            per_job.append(EnergyReport(
                images=job.images,
                total_time=state.trace.total_time - t0,
                total_energy=state.trace.total_energy - e0,
                gpu_energy=0.0, cpu_energy=0.0, board_energy=0.0,
                switch_count=0,
            ))

        images = sum(j.images for j in jobs)
        report = report_from_trace(state.trace, images)
        return SimulationResult(
            report=report,
            trace=state.trace,
            samples=samples,
            switch_count=dvfs.switch_count(),
            reversal_count=dvfs.reversal_count(),
            per_job=per_job,
            peak_temperature=(state.thermal.peak_temperature
                              if state.thermal else 0.0),
            throttle_time=(state.thermal.throttle_time
                           if state.thermal else 0.0),
            fault_stats=(state.injector.stats
                         if state.injector is not None else None),
        )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _run_cpu_phase(self, state: "_RunState", governor,
                       job: InferenceJob, label: str,
                       samples: List[TelemetrySample]) -> None:
        """CPU preprocessing for one batch; GPU idles."""
        costs = self.costs
        cpu_ops = job.cpu_work_per_image * job.batch_size
        remaining = cpu_ops
        while remaining > 1e-9:
            rate = costs.cpu_rate[state.cpu_level]
            t_rem = remaining / rate
            dt = min(t_rem, state.next_sample - state.t)
            dt = max(dt, 1e-12)
            self._emit(state, dt, KIND_CPU, costs.gpu_idle[state.dvfs.level],
                       costs.cpu_busy[state.cpu_level], 0.0, 0.0, label)
            remaining -= rate * dt
            if state.t >= state.next_sample - 1e-12:
                self._close_window(state, governor, samples)

    def _run_gpu_phase(self, state: "_RunState", governor,
                       job: InferenceJob, job_idx: int,
                       works: Sequence[OpWork],
                       rows: List[List[Optional[OpCost]]],
                       samples: List[TelemetrySample]) -> None:
        """GPU operator sequence for one batch.

        The per-segment lookups are bound once per batch (``state.dvfs``
        is fixed for the run).
        """
        costs = self.costs
        cpu_busy, cpu_idle = costs.cpu_busy, costs.cpu_idle
        dvfs = state.dvfs
        emit = self._emit
        on_op_start = governor.on_op_start
        gauss = self._rng.gauss
        noise_std = self.noise_std
        batch_size = job.batch_size
        for op_idx, work in enumerate(works):
            level = on_op_start(job_idx, op_idx, work)
            if level is not None:
                self._apply_switch(state, level)
            # Run-to-run duration noise; a noiseless run draws nothing.
            noise = max(0.5, gauss(1.0, noise_std)) if noise_std else 1.0
            row = rows[op_idx]
            name = work.name
            remaining = 1.0  # fraction of the op still to execute
            while remaining > 1e-12:
                gpu_level = dvfs.level
                cost = row[gpu_level]
                if cost is None:
                    cost = row[gpu_level] = costs.op_cost(
                        work, gpu_level, batch_size)
                nominal, gpu_p, cu, mu = cost
                duration = nominal * noise
                t_rem = remaining * duration
                t = state.t
                # min(t_rem, to_boundary) then max(dt, 1e-12), as
                # comparisons: the same floats without two builtin calls.
                to_boundary = state.next_sample - t
                dt = to_boundary if to_boundary < t_rem else t_rem
                if dt < 1e-12:
                    dt = 1e-12
                cpu_p = (cpu_busy if t < state.cpu_busy_until
                         else cpu_idle)[state.cpu_level]
                emit(state, dt, KIND_GPU_OP, gpu_p, cpu_p, cu, mu, name,
                     op_idx)
                remaining -= dt / duration
                # A level change at the window boundary re-times the
                # remaining fraction of the op on the next pass.
                if state.t >= state.next_sample - 1e-12:
                    self._close_window(state, governor, samples)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _emit(self, state: "_RunState", dt: float, kind: str,
              gpu_p: float, cpu_p: float, cu: float, mu: float,
              label: str = "", op_index: int = -1) -> None:
        board_p = self._board_power
        level = state.dvfs.level
        thermal = state.thermal
        if thermal is not None:
            # Temperature-dependent leakage rides on top of the nominal
            # static power; integrate the die forward over this segment.
            mult = thermal.leakage_multiplier()
            extra = self.costs.gpu_static[level] * (mult - 1.0)
            gpu_p += extra
            thermal.advance(gpu_p + cpu_p + board_p, dt)
        t = state.t
        t_end = t + dt
        state.trace.add(t, t_end, kind, level, gpu_p, cpu_p, board_p,
                        cu, mu, label, op_index)
        # The segment's own duration, not ``dt``: (t + dt) - t rounds.
        d = t_end - t
        w = state.window
        if kind == KIND_GPU_OP:
            w.busy_gpu += d
        elif kind == KIND_CPU:
            w.busy_cpu += d
        w.cu += cu * d
        w.mu += mu * d
        w.gpu_e += gpu_p * d
        w.cpu_e += cpu_p * d
        w.total_e += (gpu_p + cpu_p + board_p) * d
        state.t = t_end

    def _close_window(self, state: "_RunState", governor,
                      samples: List[TelemetrySample]) -> None:
        """Close the telemetry window at its boundary (the caller checks
        ``state.t`` reached it); let the governor react."""
        w = state.window
        period = state.t - w.start
        if period <= 0:
            period = self.sample_period
        sample = TelemetrySample(
            t=state.t,
            period=period,
            gpu_level=state.dvfs.level,
            gpu_busy=min(1.0, w.busy_gpu / period),
            compute_util=min(1.0, w.cu / period),
            memory_util=min(1.0, w.mu / period),
            gpu_power=w.gpu_e / period,
            cpu_power=w.cpu_e / period,
            total_power=w.total_e / period,
            cpu_busy=min(1.0, w.busy_cpu / period),
            cpu_level=state.cpu_level,
        )
        delivered: Optional[TelemetrySample] = sample
        if state.injector is not None:
            delivered = state.injector.deliver_sample(sample)
        if delivered is None:
            self.obs.metrics.counter(METRIC_SAMPLES_DROPPED).inc()
        else:
            self._m_samples.inc()
            if delivered.faulty:
                self.obs.metrics.counter(METRIC_SAMPLES_FAULTY).inc()
        if self.anomaly is not None and delivered is not None:
            self.anomaly.on_sample(delivered)
        if delivered is not None:
            if self.keep_samples:
                samples.append(delivered)
            self._update_cpu_policy(state, delivered)
            level = governor.on_sample(delivered)
        else:
            # Dropped window: the governor never hears about it and
            # holds its last action; the host policy holds too.
            level = None
        state.window = _SampleWindow(state.t)
        state.next_sample = state.t + self.sample_period
        if state.thermal is not None and state.thermal.update_throttle():
            # Thermal governor overrides everyone while engaged.
            cap = self.platform.clamp_level(
                state.thermal.config.throttle_level)
            target = min(level, cap) if level is not None else cap
            if target != state.dvfs.level or state.dvfs.level > cap:
                self._apply_switch(state, min(target, cap))
            return
        if state.injector is not None and level is None:
            # External cap enforcement: when a cap window is active and
            # the GPU sits above it, the outside agent forces the clock
            # down even though the governor stayed silent.  Requesting
            # the *current* level routes the clamp through ``actuate``
            # so it is counted (and observed) as a capped command.
            cap = state.injector.active_cap(state.t)
            if cap is not None and \
                    state.dvfs.level > self.platform.clamp_level(cap):
                level = state.dvfs.level
        if level is not None:
            self._apply_switch(state, level)

    def _apply_switch(self, state: "_RunState", level: int) -> None:
        """Actuate a GPU level change; let a verifying governor retry.

        The governor's ``on_switch_result`` (when defined) sees every
        outcome — including clean ones — and may answer a failed command
        with a new target, bounded by :data:`MAX_ACTUATIONS_PER_POINT`.
        """
        self._actuate_once(state, level)
        notify = getattr(self._governor, "on_switch_result", None)
        if notify is None:
            return
        attempts = 0
        while attempts < MAX_ACTUATIONS_PER_POINT:
            retry = notify(state.last_switch_result)
            if retry is None:
                break
            attempts += 1
            self._actuate_once(state, retry)

    def _actuate_once(self, state: "_RunState", level: int) -> None:
        """One actuation attempt, charging stall + CPU command cost."""
        result = state.dvfs.actuate(state.t, level,
                                    injector=state.injector)
        state.last_switch_result = result
        switch = result.switch
        if self.anomaly is not None:
            stall = 0.0 if switch is None else \
                self.platform.dvfs_stall_s + result.extra_stall_s
            self.anomaly.on_switch_result(result, stall)
        if switch is None:
            if result.outcome == OUTCOME_DROPPED:
                self._m_dropped_cmds.inc()
                # The lost command still occupied the host.
                state.cpu_busy_until = max(
                    state.cpu_busy_until,
                    state.t + self.platform.dvfs_cpu_busy_s,
                )
            return
        stall = self.platform.dvfs_stall_s + result.extra_stall_s
        self._m_switches.inc()
        self._m_switch_stall.observe(stall)
        if stall > 0:
            self._emit(state, stall, KIND_SWITCH,
                       self.costs.gpu_idle[state.dvfs.level],
                       self.costs.cpu_busy[state.cpu_level], 0.0, 0.0,
                       f"dvfs:{switch.from_level}->{switch.to_level}")
        # Host stays busy issuing the command for dvfs_cpu_busy_s.
        state.cpu_busy_until = max(
            state.cpu_busy_until,
            state.t + self.platform.dvfs_cpu_busy_s,
        )

    def _initial_cpu_level(self, policy: str) -> int:
        ladder = self.platform.cpu.freq_levels
        if policy == "efficient":
            return max(0, int(round(0.7 * (len(ladder) - 1))))
        # 'max' pins the top; ondemand starts high under load; 'plan' is
        # replaced at the first sample.
        return len(ladder) - 1

    def _update_cpu_policy(self, state: "_RunState",
                           sample: TelemetrySample) -> None:
        """Host cluster governor: ondemand ramps with utilization; the
        'efficient' policy (FPG-C+G) pins a mid-ladder level."""
        n = len(self.platform.cpu.freq_levels)
        if state.cpu_policy == "plan":
            planned = getattr(self._governor, "planned_cpu_level", None)
            if planned is not None:
                state.cpu_level = max(0, min(n - 1, planned))
            return
        if state.cpu_policy == "ondemand":
            if sample.cpu_busy > 0.6:
                state.cpu_level = n - 1
            elif sample.cpu_busy < 0.1:
                state.cpu_level = max(0, state.cpu_level - 2)
        elif state.cpu_policy == "efficient":
            state.cpu_level = max(0, int(round(0.7 * (n - 1))))
        elif state.cpu_policy == "max":
            state.cpu_level = n - 1


@dataclass
class _RunState:
    trace: Trace
    dvfs: DVFSController
    cpu_level: int
    cpu_policy: str
    window: _SampleWindow
    next_sample: float
    t: float = 0.0
    cpu_busy_until: float = 0.0
    thermal: Optional[ThermalState] = None
    injector: Optional[FaultInjector] = None
    last_switch_result: Optional["SwitchResult"] = None

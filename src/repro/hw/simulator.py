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
power and latency models, so every value is the float they return.  The
GPU segment loop holds the clock, the trace totals and the window sums
in locals between call-outs and adds in ``Trace.add``'s order; closing a
window zeroes its sums in place.
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
    one instance may serve every run on its board.  ``latency`` (a model
    of the same platform) shares an existing graph-work cache.
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
        if not 0.0 < timing.duration < math.inf:
            raise ValueError(f"operator {work.name!r} takes "
                             f"{timing.duration!r} s at GPU level {level}")
        return (timing.duration, self.power.gpu_busy(freq, timing),
                timing.compute_utilization, timing.memory_utilization)


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
        self._n_cpu_levels = len(platform.cpu.freq_levels)
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

        thermal = (ThermalState.initial(self.thermal_config)
                   if self.thermal_config else None)
        state = _RunState(
            trace=Trace(keep_segments=self.keep_trace), dvfs=dvfs,
            cpu_level=cpu_level, cpu_policy=cpu_policy,
            next_sample=self.sample_period, thermal=thermal,
            injector=FaultInjector.maybe(self.faults))
        samples: List[TelemetrySample] = []
        per_job: List[EnergyReport] = []

        for job_idx, job in enumerate(jobs):
            e0, t0 = state.trace.total_energy, state.trace.total_time
            level = governor.on_job_start(job_idx, job)
            if level is not None:
                self._apply_switch(state, level)
            works, rows = self.costs.op_table(job)
            cpu_label = f"{job.label()}:cpu"
            labels: List[Optional[int]] = [None] * len(works)
            for _batch in range(job.n_batches):
                self._run_cpu_phase(state, governor, job, cpu_label,
                                    samples)
                self._run_gpu_phase(state, governor, job, job_idx,
                                    works, rows, labels, samples)
            per_job.append(EnergyReport(
                images=job.images, total_time=state.trace.total_time - t0,
                total_energy=state.trace.total_energy - e0, gpu_energy=0.0,
                cpu_energy=0.0, board_energy=0.0, switch_count=0))

        return SimulationResult(
            report=report_from_trace(state.trace,
                                     sum(j.images for j in jobs)),
            trace=state.trace, samples=samples,
            switch_count=dvfs.switch_count(),
            reversal_count=dvfs.reversal_count(), per_job=per_job,
            peak_temperature=thermal.peak_temperature if thermal else 0.0,
            throttle_time=thermal.throttle_time if thermal else 0.0,
            fault_stats=(state.injector.stats
                         if state.injector is not None else None))

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
                       costs.cpu_busy[state.cpu_level], label)
            remaining -= rate * dt
            if state.t >= state.next_sample - 1e-12:
                self._close_window(state, governor, samples)

    def _run_gpu_phase(self, state: "_RunState", governor,
                       job: InferenceJob, job_idx: int,
                       works: Sequence[OpWork],
                       rows: List[List[Optional[OpCost]]],
                       labels: List[Optional[int]],
                       samples: List[TelemetrySample]) -> None:
        """GPU operator sequence for one batch (``labels``: the job's op
        label codes, each interned when its op first runs, so codes are
        handed out in ``Trace.add``'s first-use order).

        What a segment reads and sums is held in locals, stored back
        before :meth:`_apply_switch` or :meth:`_close_window` and loaded
        again after; each sum takes the terms ``_emit`` and ``Trace.add``
        take, in the same order.
        """
        costs = self.costs
        op_cost, gpu_static = costs.op_cost, costs.gpu_static
        trace, thermal, board_p = state.trace, state.thermal, self._board_power
        keep = trace.keep if trace.keep_segments else None
        kind = trace.code(KIND_GPU_OP)
        on_op_start, gauss = governor.on_op_start, self._rng.gauss
        noise_std, batch_size = self.noise_std, job.batch_size
        (t, next_sample, busy_until, level, cpu_busy_p, cpu_idle_p, e_gpu,
         e_cpu, e_board, busy, w_busy, w_cu, w_mu, w_gpu, w_cpu,
         w_total) = self._load(state)
        for op_idx, work in enumerate(works):
            switch_to = on_op_start(job_idx, op_idx, work)
            if switch_to is not None:
                self._store(state, t, e_gpu, e_cpu, e_board, busy, w_busy,
                            w_cu, w_mu, w_gpu, w_cpu, w_total)
                self._apply_switch(state, switch_to)
                (t, next_sample, busy_until, level, cpu_busy_p, cpu_idle_p,
                 e_gpu, e_cpu, e_board, busy, w_busy, w_cu, w_mu, w_gpu,
                 w_cpu, w_total) = self._load(state)
            # Run-to-run duration noise; a noiseless run draws nothing.
            noise = max(0.5, gauss(1.0, noise_std)) if noise_std else 1.0
            row, label = rows[op_idx], labels[op_idx]
            if label is None and keep is not None:
                kind = trace.intern(KIND_GPU_OP)
                label = labels[op_idx] = trace.intern(work.name)
            remaining = 1.0  # fraction of the op still to execute
            while remaining > 1e-12:
                cost = row[level]
                if cost is None:
                    cost = row[level] = op_cost(work, level, batch_size)
                nominal, gpu_p, cu, mu = cost
                duration = nominal * noise
                t_rem = remaining * duration
                # min(t_rem, to_boundary) then max(dt, 1e-12), as
                # comparisons: the same floats without two builtin calls.
                to_boundary = next_sample - t
                dt = to_boundary if to_boundary < t_rem else t_rem
                if dt < 1e-12:
                    dt = 1e-12
                cpu_p = cpu_busy_p if t < busy_until else cpu_idle_p
                if thermal is not None:
                    gpu_p = thermal.leak(gpu_p, gpu_static[level], cpu_p,
                                         board_p, dt)
                t_end = t + dt
                # Finite and non-negative, as ``Trace.add`` requires:
                # ``op_cost`` admits only finite positive durations.
                d = t_end - t
                if keep is not None:
                    keep(t, t_end, kind, level, gpu_p, cpu_p, board_p, cu,
                         mu, label, op_idx)
                e = gpu_p * d
                e_gpu, w_gpu = e_gpu + e, w_gpu + e
                e = cpu_p * d
                e_cpu, w_cpu = e_cpu + e, w_cpu + e
                e_board += board_p * d
                busy, w_busy = busy + d, w_busy + d
                w_cu += cu * d
                w_mu += mu * d
                w_total += (gpu_p + cpu_p + board_p) * d
                t = t_end
                remaining -= dt / duration
                # A level change at the window boundary re-times the
                # remaining fraction of the op on the next pass.
                if t >= next_sample - 1e-12:
                    self._store(state, t, e_gpu, e_cpu, e_board, busy,
                                w_busy, w_cu, w_mu, w_gpu, w_cpu, w_total)
                    self._close_window(state, governor, samples)
                    (t, next_sample, busy_until, level, cpu_busy_p,
                     cpu_idle_p, e_gpu, e_cpu, e_board, busy, w_busy, w_cu,
                     w_mu, w_gpu, w_cpu, w_total) = self._load(state)
        self._store(state, t, e_gpu, e_cpu, e_board, busy, w_busy, w_cu,
                    w_mu, w_gpu, w_cpu, w_total)

    def _load(self, state: "_RunState") -> tuple:
        """The state ``_run_gpu_phase`` holds in locals, in its order."""
        trace, cpu_level = state.trace, state.cpu_level
        return (state.t, state.next_sample, state.cpu_busy_until,
                state.dvfs.level, self.costs.cpu_busy[cpu_level],
                self.costs.cpu_idle[cpu_level], trace.gpu_energy,
                trace.cpu_energy, trace.board_energy, trace.busy_gpu_time,
                state.w_busy_gpu, state.w_cu, state.w_mu, state.w_gpu_e,
                state.w_cpu_e, state.w_total_e)

    @staticmethod
    def _store(state: "_RunState", t: float, *sums: float) -> None:
        """Write back what ``_run_gpu_phase`` changes, in ``_load`` order."""
        trace = state.trace
        state.t = trace.total_time = t
        (trace.gpu_energy, trace.cpu_energy, trace.board_energy,
         trace.busy_gpu_time, state.w_busy_gpu, state.w_cu, state.w_mu,
         state.w_gpu_e, state.w_cpu_e, state.w_total_e) = sums

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _emit(self, state: "_RunState", dt: float, kind: str,
              gpu_p: float, cpu_p: float, label: str) -> None:
        """Account one CPU or switch segment (``_run_gpu_phase`` writes
        the GPU segments)."""
        board_p = self._board_power
        level = state.dvfs.level
        if state.thermal is not None:
            gpu_p = state.thermal.leak(gpu_p, self.costs.gpu_static[level],
                                       cpu_p, board_p, dt)
        t = state.t
        t_end = t + dt
        state.trace.add(t, t_end, kind, level, gpu_p, cpu_p, board_p,
                        label=label)
        # The segment's own duration, not ``dt``: (t + dt) - t rounds.
        d = t_end - t
        if kind == KIND_CPU:
            state.w_busy_cpu += d
        state.w_gpu_e += gpu_p * d
        state.w_cpu_e += cpu_p * d
        state.w_total_e += (gpu_p + cpu_p + board_p) * d
        state.t = t_end

    def _close_window(self, state: "_RunState", governor,
                      samples: List[TelemetrySample]) -> None:
        """Close the telemetry window at its boundary (the caller checks
        ``state.t`` reached it); let the governor react."""
        t = state.t
        period = t - state.w_start
        if period <= 0:
            period = self.sample_period
        # ``x if x < 1.0 else 1.0`` is ``min(1.0, x)`` for every float,
        # NaN and -0.0 included, without the builtin call.
        gpu_busy = state.w_busy_gpu / period
        cu = state.w_cu / period
        mu = state.w_mu / period
        cpu_busy = state.w_busy_cpu / period
        sample = TelemetrySample(
            t, period, state.dvfs.level,
            gpu_busy if gpu_busy < 1.0 else 1.0, cu if cu < 1.0 else 1.0,
            mu if mu < 1.0 else 1.0, state.w_gpu_e / period,
            state.w_cpu_e / period, state.w_total_e / period,
            cpu_busy if cpu_busy < 1.0 else 1.0, state.cpu_level)
        delivered: Optional[TelemetrySample] = sample
        if state.injector is not None:
            delivered = state.injector.deliver_sample(sample)
        level = None
        if delivered is None:
            # Dropped window: the governor never hears about it and
            # holds its last action; the host policy holds too.
            self.obs.metrics.counter(METRIC_SAMPLES_DROPPED).inc()
        else:
            self._m_samples.inc()
            if delivered.faulty:
                self.obs.metrics.counter(METRIC_SAMPLES_FAULTY).inc()
            if self.anomaly is not None:
                self.anomaly.on_sample(delivered)
            if self.keep_samples:
                samples.append(delivered)
            self._update_cpu_policy(state, delivered)
            level = governor.on_sample(delivered)
        state.w_start = t
        state.w_busy_gpu = state.w_busy_cpu = state.w_cu = state.w_mu = 0.0
        state.w_gpu_e = state.w_cpu_e = state.w_total_e = 0.0
        state.next_sample = t + self.sample_period
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
                       self.costs.cpu_busy[state.cpu_level],
                       f"dvfs:{switch.from_level}->{switch.to_level}")
        # Host stays busy issuing the command for dvfs_cpu_busy_s.
        state.cpu_busy_until = max(
            state.cpu_busy_until,
            state.t + self.platform.dvfs_cpu_busy_s,
        )

    def _initial_cpu_level(self, policy: str) -> int:
        n = self._n_cpu_levels
        if policy == "efficient":
            return max(0, int(round(0.7 * (n - 1))))
        # 'max' pins the top; ondemand starts high under load; 'plan' is
        # replaced at the first sample.
        return n - 1

    def _update_cpu_policy(self, state: "_RunState",
                           sample: TelemetrySample) -> None:
        """Host cluster governor: ondemand ramps with utilization; the
        'efficient' policy (FPG-C+G) pins a mid-ladder level."""
        n = self._n_cpu_levels
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


@dataclass(slots=True)
class _RunState:
    """A run's mutable state; ``w_*`` sum the window opened at ``w_start``."""

    trace: Trace
    dvfs: DVFSController
    cpu_level: int
    cpu_policy: str
    next_sample: float
    t: float = 0.0
    cpu_busy_until: float = 0.0
    thermal: Optional[ThermalState] = None
    injector: Optional[FaultInjector] = None
    last_switch_result: Optional["SwitchResult"] = None
    w_start: float = 0.0
    w_busy_gpu: float = 0.0
    w_busy_cpu: float = 0.0
    w_cu: float = 0.0
    w_mu: float = 0.0
    w_gpu_e: float = 0.0
    w_cpu_e: float = 0.0
    w_total_e: float = 0.0

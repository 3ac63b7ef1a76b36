"""Online telemetry anomaly detection.

A small, observe-only detector the simulator feeds as the run unfolds:
every delivered telemetry window goes through :meth:`AnomalyDetector.\
on_sample` and every DVFS actuation through
:meth:`AnomalyDetector.on_switch_result`.  Three pathologies — exactly
the ones :mod:`repro.hw.faults` can inject — are flagged as structured
:class:`Anomaly` records:

``power_spike``
    A window's total power is a z-score outlier against the EWMA
    mean/variance of *its own operating regime*.  Regimes are keyed by
    (GPU busy vs. idle, DVFS level) so the perfectly normal 3 W -> 10 W
    swing between CPU preprocessing and a GPU burst — or between
    frequency levels under a reactive governor — never trips the
    detector; a multiplicative telemetry-noise fault inside an
    otherwise steady regime does.
``pingpong``
    The governor reverses frequency direction more than
    :data:`REVERSAL_THRESHOLD` times inside a sliding window (the online
    twin of :func:`repro.analysis.pingpong.analyze_trace`, via
    :class:`~repro.analysis.pingpong.ReversalTracker`).
``stall_budget``
    Actuation stalls (switch latency plus fault-injected delay)
    consume more than :data:`STALL_BUDGET_FRAC` of wall time over a
    sliding window — the "DVFS overhead ate the savings" failure mode.

A fourth kind, ``telemetry_invalid``, covers objectively broken
windows (non-finite or negative power, utilizations outside [0, 1]).

Every anomaly increments ``powerlens_anomaly_total`` plus a per-kind
``powerlens_anomaly_<kind>_total`` counter and is recorded as a
zero-duration ``anomaly`` span on the tracer, so it lands in trace
files and Prometheus text alike.

The detector is strictly observe-only: it never touches governor or
simulator state, and with the default :data:`~repro.obs.NULL_OBS`
bundle its only footprint is the in-memory ``anomalies`` list
(bounded).  Thresholds are deliberately conservative — the acceptance
tests pin **zero false positives** across clean (fault-free) runs of
every governor, while still catching injected noise and ping-pong
faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.obs import NULL_OBS, Observability

__all__ = ["Anomaly", "AnomalyDetector",
           "METRIC_ANOMALIES", "ANOMALY_KINDS"]

#: Total-anomaly counter name (per-kind counters append ``_<kind>``).
METRIC_ANOMALIES = "powerlens_anomaly_total"

KIND_POWER_SPIKE = "power_spike"
KIND_PINGPONG = "pingpong"
KIND_STALL_BUDGET = "stall_budget"
KIND_TELEMETRY_INVALID = "telemetry_invalid"

ANOMALY_KINDS = (KIND_POWER_SPIKE, KIND_PINGPONG, KIND_STALL_BUDGET,
                 KIND_TELEMETRY_INVALID)


@dataclass(frozen=True)
class Anomaly:
    """One detected pathology."""

    t: float
    kind: str
    value: float
    threshold: float
    detail: str = ""


# Detector thresholds, tuned against the simulator's clean-run behavior
# (``tests/test_obs_anomaly.py`` sweeps every governor on zero-fault runs
# and asserts silence): Z_THRESHOLD/STD_FLOOR_FRAC sit above
# sampling-window quantization jitter inside one power regime,
# REVERSAL_THRESHOLD above the ondemand governor's natural reversal
# rate, and STALL_BUDGET_FRAC above the preset governor's per-block
# actuation overhead.

# power_spike ------------------------------------------------------------
EWMA_ALPHA = 0.25
#: Windows a regime must accumulate before z-testing starts.
WARMUP_SAMPLES = 8
Z_THRESHOLD = 8.0
#: Std floor as a fraction of the regime's EWMA mean — keeps the z-score
#: finite in perfectly steady (zero-variance) regimes.
STD_FLOOR_FRAC = 0.05
#: A spike must also exceed the regime mean by this ratio.
SPIKE_MIN_RATIO = 1.6
#: gpu_busy above this counts as the "busy" regime.
BUSY_THRESHOLD = 0.5
#: Headroom over the platform's physically-achievable maximum draw before
#: a window is declared a spike outright (no warmup needed — the
#: simulator cannot legitimately exceed the bound, so this path is
#: false-positive-free by construction).
BOUND_MARGIN = 1.15
# pingpong ---------------------------------------------------------------
REVERSAL_WINDOW_S = 0.5
REVERSAL_THRESHOLD = 10
# stall_budget -----------------------------------------------------------
STALL_WINDOW_S = 1.0
STALL_BUDGET_FRAC = 0.10
# bookkeeping ------------------------------------------------------------
#: Minimum spacing between emissions of the same kind (anti-flood).
COOLDOWN_S = 0.25
#: Bound on the retained ``anomalies`` list.
MAX_RECORDS = 1000


def _max_platform_power(platform) -> float:
    """Physically-achievable maximum instantaneous platform draw.

    Upper-bounds every window the simulator can legitimately produce:
    GPU at full compute activity plus DRAM traffic at the
    frequency-derated peak bandwidth, CPU cluster flat out, plus board
    overhead.  Anything (meaningfully) above this is sensor garbage.
    """
    # Local import: repro.hw's package __init__ imports the simulator,
    # which imports repro.obs — resolve at call time, never at import.
    from repro.hw.power import PowerModel

    model = PowerModel(platform)
    max_gpu = 0.0
    for freq in platform.gpu_freq_levels:
        v = platform.voltage(freq)
        dynamic = v * v * freq * platform.c_eff
        dram = platform.dram_energy_per_byte * platform.bandwidth_at(freq)
        max_gpu = max(max_gpu, model.gpu_static(freq) + dynamic + dram)
    max_cpu = model.cpu_busy(platform.cpu.f_max)
    return max_gpu + max_cpu + platform.board_power


class _RegimeStats:
    """EWMA mean/variance for one (busy, level) power regime."""

    __slots__ = ("mean", "var", "n")

    def __init__(self) -> None:
        self.mean = 0.0
        self.var = 0.0
        self.n = 0

    def update(self, x: float, alpha: float) -> None:
        if self.n == 0:
            self.mean = x
            self.var = 0.0
        else:
            delta = x - self.mean
            self.mean += alpha * delta
            # EWMA variance (West 1979 incremental form).
            self.var = (1.0 - alpha) * (self.var + alpha * delta * delta)
        self.n += 1


class AnomalyDetector:
    """Streaming detector over telemetry windows and switch results.

    Pass one to :class:`~repro.hw.simulator.InferenceSimulator`
    (``anomaly=``); the simulator calls :meth:`reset` at the start of
    each run and feeds it afterwards.  Detected anomalies accumulate in
    :attr:`anomalies` (bounded by :data:`MAX_RECORDS`) and flow into
    the ``obs`` bundle's tracer and metrics.
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        # Local import: repro.analysis pulls in the repro.hw package,
        # whose __init__ imports the simulator, which imports repro.obs
        # — importing it lazily keeps repro.obs.anomaly safe to load
        # from any direction.
        from repro.analysis.pingpong import ReversalTracker

        self.obs = obs if obs is not None else NULL_OBS
        self.anomalies: List[Anomaly] = []
        self.dropped = 0
        self._regimes: Dict[Tuple[bool, int], _RegimeStats] = {}
        self._reversals = ReversalTracker(REVERSAL_WINDOW_S)
        self._stalls: Deque[Tuple[float, float]] = deque()
        self._stall_sum = 0.0
        self._last_emit: Dict[str, float] = {}
        self._platform = None
        self._power_bound = 0.0

    # ------------------------------------------------------------------
    # feed points (called by the simulator)
    # ------------------------------------------------------------------
    def reset(self, platform) -> None:
        """Start of a run: clear all sliding state.  The power bound is
        recomputed only for a different platform object."""
        if platform is not self._platform:
            self._platform = platform
            self._power_bound = _max_platform_power(platform)
        self._regimes.clear()
        self._reversals.reset()
        self._stalls.clear()
        self._stall_sum = 0.0
        self._last_emit.clear()

    def on_sample(self, sample) -> None:
        """One delivered :class:`~repro.hw.telemetry.TelemetrySample`."""
        power = sample.total_power
        if not self._sample_valid(sample):
            self._emit(sample.t, KIND_TELEMETRY_INVALID, power, 0.0,
                       detail="non-finite or out-of-range window")
            return
        if self._power_bound > 0 and \
                power > self._power_bound * BOUND_MARGIN:
            self._emit(sample.t, KIND_POWER_SPIKE,
                       power / self._power_bound, BOUND_MARGIN,
                       detail=f"{power:.2f} W exceeds platform maximum "
                              f"{self._power_bound:.2f} W")
            return
        busy = sample.gpu_busy >= BUSY_THRESHOLD
        key = (busy, sample.gpu_level)
        stats = self._regimes.get(key)
        if stats is None:
            stats = self._regimes[key] = _RegimeStats()
        if stats.n >= WARMUP_SAMPLES:
            mean = stats.mean
            std = math.sqrt(stats.var)
            floor = STD_FLOOR_FRAC * max(abs(mean), 1e-9)
            std = max(std, floor)
            z = abs(power - mean) / std
            if z > Z_THRESHOLD and power > mean * SPIKE_MIN_RATIO:
                self._emit(sample.t, KIND_POWER_SPIKE, z, Z_THRESHOLD,
                           detail=f"{power:.2f} W vs regime mean "
                                  f"{mean:.2f} W "
                                  f"(busy={busy}, L{sample.gpu_level})")
                # Outliers do not poison the regime estimate.
                return
        stats.update(power, EWMA_ALPHA)

    def on_switch_result(self, result, stall_s: float) -> None:
        """One actuation outcome (:class:`~repro.hw.dvfs.SwitchResult`)
        plus the wall-clock stall it cost."""
        t = result.t
        switch = result.switch
        if switch is not None and switch.from_level != switch.to_level:
            count = self._reversals.push(t, switch.from_level,
                                         switch.to_level)
            if count >= REVERSAL_THRESHOLD:
                self._emit(t, KIND_PINGPONG, float(count),
                           float(REVERSAL_THRESHOLD),
                           detail=f"{count} reversals in "
                                  f"{REVERSAL_WINDOW_S:g}s")
        if stall_s > 0:
            self._stalls.append((t, stall_s))
            self._stall_sum += stall_s
            horizon = t - STALL_WINDOW_S
            while self._stalls and self._stalls[0][0] <= horizon:
                self._stall_sum -= self._stalls[0][1]
                self._stalls.popleft()
            budget = STALL_BUDGET_FRAC * STALL_WINDOW_S
            if self._stall_sum > budget:
                self._emit(t, KIND_STALL_BUDGET, self._stall_sum, budget,
                           detail=f"{self._stall_sum * 1000:.1f} ms "
                                  f"stalled in {STALL_WINDOW_S:g}s")

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def emitted(self) -> int:
        """Anomalies emitted so far, retained or dropped past
        :data:`MAX_RECORDS` (the count health decisions must use)."""
        return len(self.anomalies) + self.dropped

    def counts(self) -> Dict[str, int]:
        """Anomaly totals by kind (retained records only)."""
        out: Dict[str, int] = {}
        for a in self.anomalies:
            out[a.kind] = out.get(a.kind, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        if not counts and not self.dropped:
            return "no anomalies"
        parts = [f"{k}={counts[k]}" for k in ANOMALY_KINDS if k in counts]
        if self.dropped:
            parts.append(f"dropped={self.dropped}")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _sample_valid(sample) -> bool:
        for v in (sample.gpu_power, sample.cpu_power, sample.total_power):
            if not math.isfinite(v) or v < 0:
                return False
        for v in (sample.gpu_busy, sample.compute_util,
                  sample.memory_util):
            if not math.isfinite(v) or v < -1e-9 or v > 1.0 + 1e-9:
                return False
        return True

    def _emit(self, t: float, kind: str, value: float,
              threshold: float, detail: str = "") -> None:
        last = self._last_emit.get(kind)
        if last is not None and t - last < COOLDOWN_S:
            return
        self._last_emit[kind] = t
        if len(self.anomalies) < MAX_RECORDS:
            self.anomalies.append(Anomaly(
                t=t, kind=kind, value=value, threshold=threshold,
                detail=detail))
        else:
            self.dropped += 1
        self.obs.metrics.counter(METRIC_ANOMALIES).inc()
        self.obs.metrics.counter(f"powerlens_anomaly_{kind}_total").inc()
        self.obs.tracer.record(
            "anomaly", 0.0, kind=kind, t=t, value=value,
            threshold=threshold, detail=detail)

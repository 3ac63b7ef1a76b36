"""Deterministic fault injection for the platform simulator.

Real Jetson deployments do not get the clean actuation and telemetry
the paper's evaluation assumes: ``nvpmodel``/sysfs writes fail or land
on a neighboring frequency, the thermal governor silently clamps the
clock over whole time windows, ``tegrastats`` drops or repeats sampling
windows, and long offline labeling runs hit transient worker crashes.
This module models all four as a composable, *seedable* fault layer:

* **DVFS command faults** — a requested level change is dropped (the
  write never lands), partial (the actuator stops one level short of
  the target) or delayed (the transition succeeds but stalls the GPU
  for longer than the nominal switch cost);
* **external frequency caps** — :class:`CapWindow` intervals during
  which an outside agent (thermal governor, power budget daemon) clamps
  the achievable level, overriding every request;
* **telemetry faults** — sampling windows are dropped, stuck (the
  previous window's measurements are reported again) or perturbed with
  multiplicative noise;
* **offline worker faults** — per-network labeling tasks raise
  transiently (:func:`worker_fault` is a pure function of the profile
  and the task identity, so process-pool scheduling cannot change which
  tasks fail).

Determinism contract: a :class:`FaultInjector` draws from dedicated
:class:`random.Random` streams per fault category, seeded from
``FaultProfile.seed``, and the simulator consumes events in a fixed
order — so a given ``(profile, workload)`` pair always produces the
same fault sequence, and enabling one fault category never re-rolls
another's dice.  A profile whose :attr:`FaultProfile.is_zero` is true
injects *nothing*: :meth:`FaultInjector.maybe` returns ``None`` and
every consumer keeps its pre-fault code path, which is what guarantees
byte-identical traces, telemetry and datasets at zero fault rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

from repro.hw.telemetry import TelemetrySample

#: Switch-outcome labels reported by :meth:`FaultInjector.switch_outcome`
#: and :meth:`repro.hw.dvfs.DVFSController.actuate`.
OUTCOME_NOOP = "noop"          # already at the requested level
OUTCOME_APPLIED = "applied"    # clean transition to the requested level
OUTCOME_DROPPED = "dropped"    # command lost; level unchanged
OUTCOME_PARTIAL = "partial"    # actuator stopped short of the target
OUTCOME_CAPPED = "capped"      # an external cap truncated the request
OUTCOME_DELAYED = "delayed"    # applied, but with extra stall time


@dataclass(frozen=True)
class CapWindow:
    """One external frequency-cap interval: while ``t_start <= t <
    t_end`` no level above ``max_level`` is achievable."""

    t_start: float
    t_end: float
    max_level: int

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError("cap window must have positive duration")
        if self.t_start < 0:
            raise ValueError("cap window cannot start before t=0")
        if self.max_level < 0:
            raise ValueError("cap level must be >= 0")

    def active_at(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class FaultProfile:
    """Seedable description of every injectable fault rate.

    All ``*_rate`` fields are per-event probabilities in ``[0, 1]``:
    switch rates are drawn once per actuation request, telemetry rates
    once per sampling window, ``worker_failure_rate`` once per labeling
    attempt.  ``switch_delay_s`` is the extra GPU stall charged to a
    delayed transition; ``telemetry_noise_std`` is the standard
    deviation of the multiplicative gaussian applied to a noisy
    window's power and utilization readings.
    """

    seed: int = 0
    # --- DVFS command faults -----------------------------------------
    switch_drop_rate: float = 0.0
    switch_partial_rate: float = 0.0
    switch_delay_rate: float = 0.0
    switch_delay_s: float = 0.050
    # --- external frequency caps -------------------------------------
    cap_windows: Tuple[CapWindow, ...] = ()
    # --- telemetry faults --------------------------------------------
    telemetry_drop_rate: float = 0.0
    telemetry_stuck_rate: float = 0.0
    telemetry_noise_std: float = 0.0
    # --- offline labeling faults -------------------------------------
    worker_failure_rate: float = 0.0

    _RATE_FIELDS = ("switch_drop_rate", "switch_partial_rate",
                    "switch_delay_rate", "telemetry_drop_rate",
                    "telemetry_stuck_rate", "worker_failure_rate")

    def __post_init__(self) -> None:
        for name in self._RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.switch_delay_s < 0:
            raise ValueError("switch_delay_s must be >= 0")
        if self.telemetry_noise_std < 0:
            raise ValueError("telemetry_noise_std must be >= 0")
        object.__setattr__(self, "cap_windows", tuple(self.cap_windows))

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        """True when this profile injects nothing at all."""
        return (all(getattr(self, n) == 0.0 for n in self._RATE_FIELDS)
                and self.telemetry_noise_std == 0.0
                and not self.cap_windows)

    @classmethod
    def none(cls) -> "FaultProfile":
        """The zero-fault profile (identical behaviour to no profile)."""
        return cls()

    @classmethod
    def representative(cls, seed: int = 0,
                       horizon: Optional[float] = None) -> "FaultProfile":
        """The deployment-representative profile of the robustness
        experiment: 5 % dropped switches, 2 % telemetry dropouts and one
        thermal-governor-style cap window early in the run.

        The thermal window clamps the clock to the ladder *floor* —
        that is what an engaged Jetson thermal governor does, and it is
        the event a fire-and-forget runtime cannot see ending.  When
        ``horizon`` (the expected workload duration in seconds) is
        given, the window is sized to it — opening at 2 % and closing
        at 10 % of the horizon — so the profile stresses any workload
        the same way regardless of its absolute length.
        """
        if horizon is not None and horizon > 0:
            window = CapWindow(t_start=0.02 * horizon,
                               t_end=0.10 * horizon, max_level=0)
        else:
            window = CapWindow(t_start=0.25, t_end=0.60, max_level=0)
        return cls(
            seed=seed,
            switch_drop_rate=0.05,
            telemetry_drop_rate=0.02,
            cap_windows=(window,),
        )

    def scaled(self, factor: float) -> "FaultProfile":
        """Profile with every rate multiplied by ``factor`` (clamped to
        1), noise scaled linearly and cap-window *durations* stretched
        by ``factor`` (a doubled profile means the thermal event lasts
        twice as long); ``factor == 0`` drops the cap windows too,
        yielding a zero profile."""
        if factor < 0:
            raise ValueError("scale factor must be >= 0")
        updates: Dict[str, object] = {
            name: min(1.0, getattr(self, name) * factor)
            for name in self._RATE_FIELDS
        }
        updates["telemetry_noise_std"] = self.telemetry_noise_std * factor
        if factor == 0:
            updates["cap_windows"] = ()
        else:
            updates["cap_windows"] = tuple(
                CapWindow(w.t_start,
                          w.t_start + (w.t_end - w.t_start) * factor,
                          w.max_level)
                for w in self.cap_windows
            )
        return replace(self, **updates)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (used by the dataset cache key)."""
        out: Dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "cap_windows"
        }
        out["cap_windows"] = [
            [w.t_start, w.t_end, w.max_level] for w in self.cap_windows
        ]
        return out

    @classmethod
    def parse(cls, spec: str) -> "FaultProfile":
        """Build a profile from a CLI spec string.

        Accepts the named presets ``none`` and ``representative``, or a
        comma-separated ``key=value`` list over the profile fields, with
        ``cap=start:end:level`` adding a cap window (repeatable)::

            representative
            switch_drop_rate=0.1,telemetry_drop_rate=0.05,cap=0.2:0.5:6
        """
        s = spec.strip()
        if not s or s.lower() in ("none", "zero", "off"):
            return cls.none()
        if s.lower() in ("representative", "rep"):
            return cls.representative()
        kwargs: Dict[str, object] = {}
        caps = []
        valid = {f.name for f in fields(cls)} - {"cap_windows"}
        for part in s.split(","):
            if "=" not in part:
                raise ValueError(
                    f"bad fault-profile element {part!r} "
                    f"(expected key=value)")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "cap":
                pieces = value.split(":")
                if len(pieces) != 3:
                    raise ValueError(
                        f"bad cap window {value!r} "
                        f"(expected start:end:level)")
                caps.append(CapWindow(float(pieces[0]), float(pieces[1]),
                                      int(pieces[2])))
            elif key in valid:
                kwargs[key] = int(value) if key == "seed" else float(value)
            else:
                raise ValueError(
                    f"unknown fault-profile field {key!r}; valid: "
                    f"{', '.join(sorted(valid))} or cap=start:end:level")
        if caps:
            kwargs["cap_windows"] = tuple(caps)
        return cls(**kwargs)


@dataclass
class FaultStats:
    """Counts of every fault the injector actually fired."""

    switches_dropped: int = 0
    switches_partial: int = 0
    switches_delayed: int = 0
    switches_capped: int = 0
    telemetry_dropped: int = 0
    telemetry_stuck: int = 0
    telemetry_noisy: int = 0

    @property
    def total(self) -> int:
        return (self.switches_dropped + self.switches_partial
                + self.switches_delayed + self.switches_capped
                + self.telemetry_dropped + self.telemetry_stuck
                + self.telemetry_noisy)


class FaultInjector:
    """Stateful, deterministic fault source for one simulator run.

    One independent RNG stream per fault category: the sequence of
    switch outcomes never depends on how many telemetry windows were
    sampled and vice versa, so profiles compose predictably.
    """

    def __init__(self, profile: FaultProfile) -> None:
        self.profile = profile
        self.stats = FaultStats()
        self._switch_rng = random.Random(f"{profile.seed}/switch")
        self._telemetry_rng = random.Random(f"{profile.seed}/telemetry")
        self._last_sample: Optional[TelemetrySample] = None

    @classmethod
    def maybe(cls, profile: Optional[FaultProfile]
              ) -> Optional["FaultInjector"]:
        """Injector for ``profile``, or ``None`` when the profile is
        absent or zero — the ``None`` case is what keeps the zero-fault
        simulator path byte-identical to the pre-fault code."""
        if profile is None or profile.is_zero:
            return None
        return cls(profile)

    # ------------------------------------------------------------------
    # DVFS command faults
    # ------------------------------------------------------------------
    def switch_outcome(self, from_level: int,
                       to_level: int) -> Tuple[int, str, float]:
        """Decide the fate of a level-change command.

        Returns ``(achieved_level, outcome, extra_stall_s)``.  Partial
        transitions stop one ladder step short of the target (on the
        ``from_level`` side); when the target is only one step away a
        partial transition degenerates to a drop.
        """
        p = self.profile
        # Fixed draw order per command keeps the stream aligned no
        # matter which rates are non-zero.
        r_drop = self._switch_rng.random()
        r_partial = self._switch_rng.random()
        r_delay = self._switch_rng.random()
        if p.switch_drop_rate and r_drop < p.switch_drop_rate:
            self.stats.switches_dropped += 1
            return from_level, OUTCOME_DROPPED, 0.0
        if p.switch_partial_rate and r_partial < p.switch_partial_rate:
            step = 1 if to_level > from_level else -1
            achieved = to_level - step
            if achieved == from_level:
                self.stats.switches_dropped += 1
                return from_level, OUTCOME_DROPPED, 0.0
            self.stats.switches_partial += 1
            return achieved, OUTCOME_PARTIAL, 0.0
        if p.switch_delay_rate and r_delay < p.switch_delay_rate:
            self.stats.switches_delayed += 1
            return to_level, OUTCOME_DELAYED, p.switch_delay_s
        return to_level, OUTCOME_APPLIED, 0.0

    def active_cap(self, t: float) -> Optional[int]:
        """Tightest external cap active at time ``t`` (None when free)."""
        caps = [w.max_level for w in self.profile.cap_windows
                if w.active_at(t)]
        if not caps:
            return None
        return min(caps)

    def note_capped(self) -> None:
        self.stats.switches_capped += 1

    # ------------------------------------------------------------------
    # telemetry faults
    # ------------------------------------------------------------------
    def deliver_sample(self, sample: TelemetrySample
                       ) -> Optional[TelemetrySample]:
        """Pass one telemetry window through the fault layer.

        Returns ``None`` for a dropped window, a stale copy for a stuck
        sensor, a perturbed copy under noise, or the sample unchanged.
        """
        p = self.profile
        r_drop = self._telemetry_rng.random()
        r_stuck = self._telemetry_rng.random()
        if p.telemetry_drop_rate and r_drop < p.telemetry_drop_rate:
            self.stats.telemetry_dropped += 1
            return None
        if (p.telemetry_stuck_rate and r_stuck < p.telemetry_stuck_rate
                and self._last_sample is not None):
            self.stats.telemetry_stuck += 1
            stale = self._last_sample
            delivered = stale._replace(t=sample.t, period=sample.period,
                                       faulty=True)
            self._last_sample = delivered
            return delivered
        if p.telemetry_noise_std:
            factor = max(0.0, self._telemetry_rng.gauss(
                1.0, p.telemetry_noise_std))
            self.stats.telemetry_noisy += 1
            sample = sample._replace(
                gpu_busy=min(1.0, max(0.0, sample.gpu_busy * factor)),
                compute_util=min(1.0, max(0.0,
                                          sample.compute_util * factor)),
                memory_util=min(1.0, max(0.0,
                                         sample.memory_util * factor)),
                gpu_power=sample.gpu_power * factor,
                cpu_power=sample.cpu_power * factor,
                total_power=sample.total_power * factor,
                faulty=True,
            )
        self._last_sample = sample
        return sample


def worker_fault(profile: Optional[FaultProfile], index: int,
                 attempt: int) -> bool:
    """Deterministically decide whether labeling attempt ``attempt`` of
    network ``index`` suffers a transient failure.

    Pure function of ``(profile.seed, index, attempt)`` — worker
    processes need no shared state, so the fault pattern (and therefore
    the generated datasets) is identical at any ``n_jobs``.
    """
    if profile is None or profile.worker_failure_rate <= 0.0:
        return False
    rng = random.Random(f"{profile.seed}/worker/{index}/{attempt}")
    return rng.random() < profile.worker_failure_rate


class TransientWorkerError(RuntimeError):
    """Injected (or injected-equivalent) transient labeling failure."""

"""DVFS actuation: level changes with realistic command cost.

A level change has two costs (section 2.3.2 / 3.3 of the paper):

* the CPU-side command (sysfs write + driver reconfiguration) occupies
  the host for ``dvfs_latency_s`` (the paper measures ~50 ms averaged
  over 100 switches);
* the GPU pipeline stalls briefly (``dvfs_stall_s``) while the clock
  actually transitions.

The controller also keeps a switch history from which ping-pong metrics
(direction reversals per second) can be derived — used to demonstrate the
frequency ping-pong issue of Figure 1(A).

Actuation is fallible: on real boards the sysfs write can be lost, land
on a neighboring OPP, or be overridden by an external cap (thermal
governor).  :meth:`DVFSController.actuate` therefore reports a
:class:`SwitchResult` carrying the *achieved* level and the outcome of
the command, not just the requested target; resilient runtimes
(:class:`repro.governors.preset.PresetGovernor`) verify it and retry.
The fault behaviour itself comes from an optional
:class:`repro.hw.faults.FaultInjector` — without one, ``actuate``
always succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.hw.faults import (
    OUTCOME_APPLIED,
    OUTCOME_CAPPED,
    OUTCOME_DROPPED,
    OUTCOME_NOOP,
    FaultInjector,
)
from repro.hw.platform import PlatformSpec


@dataclass(frozen=True)
class DVFSSwitch:
    """Record of one actuated level change.

    ``to_level`` is the level actually reached; when a command fault or
    an external cap deflected the transition, ``requested_level``
    preserves the original target and ``outcome`` labels what happened.
    """

    t: float
    from_level: int
    to_level: int
    requested_level: Optional[int] = None
    outcome: str = OUTCOME_APPLIED

    @property
    def direction(self) -> int:
        if self.to_level > self.from_level:
            return 1
        if self.to_level < self.from_level:
            return -1
        return 0


@dataclass(frozen=True)
class SwitchResult:
    """Full outcome of one actuation request.

    ``requested_level`` is the (ladder-clamped) target the caller asked
    for, ``achieved_level`` the level in force afterwards.  ``switch``
    is the history record when the level actually moved, ``None`` for
    no-ops and dropped commands.  ``extra_stall_s`` is additional GPU
    stall beyond the platform's nominal switch cost (delayed
    transitions).
    """

    t: float
    requested_level: int
    achieved_level: int
    outcome: str
    switch: Optional[DVFSSwitch] = None
    extra_stall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the controller landed on the requested level."""
        return self.achieved_level == self.requested_level


@dataclass
class DVFSController:
    """Tracks the current GPU level and accounts for switch costs."""

    platform: PlatformSpec
    level: int = 0
    history: List[DVFSSwitch] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.level = self.platform.clamp_level(self.level)

    @property
    def freq(self) -> float:
        return self.platform.freq_of_level(self.level)

    def actuate(self, t: float, level: int,
                injector: Optional[FaultInjector] = None) -> SwitchResult:
        """Request a switch and report what actually happened.

        Without ``injector`` this is infallible: clamp to the ladder,
        move, and record the switch unless the level already holds (the
        caller charges ``platform.dvfs_stall_s`` of GPU stall and
        ``platform.dvfs_latency_s`` of CPU occupancy).  With one,
        the request is first truncated by any active external cap, then
        subjected to command faults: the returned result carries the
        achieved level, the outcome label and any extra stall time the
        caller must charge.  Dropped commands leave the level unchanged
        and append nothing to the history.
        """
        requested = self.platform.clamp_level(level)
        target = requested
        capped = False
        if injector is not None:
            cap = injector.active_cap(t)
            if cap is not None:
                cap = self.platform.clamp_level(cap)
                if target > cap:
                    target = cap
                    capped = True
        if target == self.level:
            if capped:
                injector.note_capped()
            outcome = OUTCOME_CAPPED if capped else OUTCOME_NOOP
            return SwitchResult(t=t, requested_level=requested,
                                achieved_level=self.level,
                                outcome=outcome)
        achieved, outcome, extra_stall = target, OUTCOME_APPLIED, 0.0
        if injector is not None:
            achieved, outcome, extra_stall = injector.switch_outcome(
                self.level, target)
            if capped:
                injector.note_capped()
                if outcome == OUTCOME_APPLIED:
                    outcome = OUTCOME_CAPPED
        if outcome == OUTCOME_DROPPED or achieved == self.level:
            return SwitchResult(t=t, requested_level=requested,
                                achieved_level=self.level,
                                outcome=OUTCOME_DROPPED,
                                extra_stall_s=0.0)
        switch = DVFSSwitch(t=t, from_level=self.level, to_level=achieved,
                            requested_level=requested, outcome=outcome)
        self.level = achieved
        self.history.append(switch)
        return SwitchResult(t=t, requested_level=requested,
                            achieved_level=achieved, outcome=outcome,
                            switch=switch, extra_stall_s=extra_stall)

    # ------------------------------------------------------------------
    # ping-pong diagnostics
    # ------------------------------------------------------------------
    def switch_count(self) -> int:
        return len(self.history)

    def reversal_count(self) -> int:
        """Number of direction reversals (up-then-down or down-then-up)
        in the switch history — the ping-pong signature."""
        reversals = 0
        prev_dir = 0
        for sw in self.history:
            d = sw.direction
            if d != 0 and prev_dir != 0 and d != prev_dir:
                reversals += 1
            if d != 0:
                prev_dir = d
        return reversals


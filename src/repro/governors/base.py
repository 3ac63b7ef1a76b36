"""Governor interface consumed by the inference simulator.

A governor receives three kinds of events and may answer any of them with
a target GPU level (or ``None`` for "no change"):

* ``on_job_start`` — a new inference task begins;
* ``on_op_start``  — the next operator is about to launch (PowerLens's
  instrumentation points live here);
* ``on_sample``    — a telemetry window closed (reactive governors like
  ondemand and FPG live here).

``cpu_policy`` selects how the simulator drives the host cluster:
``"ondemand"`` (utilization-reactive, the default on both boards),
``"efficient"`` (FPG-C+G pins an energy-efficient mid level) or
``"max"``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from repro.hw.perf import OpWork
from repro.hw.platform import PlatformSpec
from repro.hw.telemetry import TelemetrySample


def sample_is_valid(sample: TelemetrySample) -> bool:
    """Sanity-check one telemetry window before acting on it.

    Fault injection (and real sensors) can hand governors degenerate
    windows; reactive governors treat an invalid sample like a dropped
    one — hold the last action rather than steer on garbage.  Note
    dropped windows are never delivered at all (see
    :meth:`repro.hw.faults.FaultInjector.deliver_sample`); this guards
    against the delivered-but-broken case.
    """
    numbers = (sample.period, sample.gpu_busy, sample.compute_util,
               sample.memory_util, sample.gpu_power, sample.cpu_power,
               sample.total_power, sample.cpu_busy)
    if not all(map(math.isfinite, numbers)):
        return False
    if sample.period <= 0:
        return False
    if sample.gpu_power < 0 or sample.cpu_power < 0 or \
            sample.total_power < 0:
        return False
    return True


class Governor:
    """Base governor: never changes frequency (subclass and override)."""

    #: Human-readable governor name used in experiment tables.
    name: str = "base"
    #: Host cluster policy: 'ondemand' | 'efficient' | 'max'.
    cpu_policy: str = "ondemand"

    def __init__(self) -> None:
        self.platform: Optional[PlatformSpec] = None

    # ------------------------------------------------------------------
    def reset(self, platform: PlatformSpec) -> None:
        """Bind to a platform at the start of a run; override to clear
        internal state (and call super().reset())."""
        self.platform = platform

    def initial_gpu_level(self) -> int:
        """Level in force before the first event (default: maximum)."""
        assert self.platform is not None, "reset() not called"
        return self.platform.max_level

    # ------------------------------------------------------------------
    def on_job_start(self, job_idx: int, job) -> Optional[int]:
        return None

    def on_op_start(self, job_idx: int, op_idx: int,
                    work: OpWork) -> Optional[int]:
        return None

    def on_sample(self, sample: TelemetrySample) -> Optional[int]:
        return None


GOVERNOR_REGISTRY: Dict[str, Callable[[], "Governor"]] = {}


def register_governor(name: str,
                      factory: Callable[[], "Governor"]) -> None:
    GOVERNOR_REGISTRY[name] = factory


def make_governor(name: str) -> "Governor":
    """Instantiate a registered governor by name ('bim', 'fpg_g', ...)."""
    if name not in GOVERNOR_REGISTRY:
        raise KeyError(
            f"unknown governor {name!r}; registered: "
            f"{', '.join(sorted(GOVERNOR_REGISTRY))}"
        )
    return GOVERNOR_REGISTRY[name]()

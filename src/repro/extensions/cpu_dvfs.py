"""PowerLens-C+G: extend the frequency plans to the host cluster.

The paper's evaluated system configures only the GPU ("despite only
configuring GPU frequencies for PowerLens") and lists CPU DVFS as future
work.  This extension closes that gap: the preprocessing phase's CPU
work is known offline (images x work-per-image), so its energy-optimal
CPU level can be preset exactly like a power block's GPU level —
no heuristic feedback needed.

The optimal level balances CPU dynamic energy (falling with frequency)
against the platform fixed power paid over the stretched preprocessing
time (rising as the CPU slows), under the same latency-slack discipline
as the GPU-side sweep.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.governors.preset import FrequencyPlan, PresetGovernor
from repro.hw.analytic import LevelProfile
from repro.hw.platform import PlatformSpec
from repro.hw.power import PowerModel


def cpu_phase_energy(platform: PlatformSpec, cpu_ops: float,
                     level: int) -> tuple:
    """(energy J, time s) of a preprocessing phase at CPU ``level``.

    Charges the busy cluster plus the idle GPU and board for the phase
    duration — the same platform-inclusive accounting the GPU-side
    labeling uses.
    """
    ladder = platform.cpu.freq_levels
    if not 0 <= level < len(ladder):
        raise IndexError(f"cpu level {level} outside ladder")
    freq = ladder[level]
    rate = platform.cpu.ops_per_cycle * freq
    t = cpu_ops / rate if rate > 0 else 0.0
    power = PowerModel(platform)
    p_total = (power.cpu_busy(freq)
               + power.gpu_idle(platform.f_min)
               + platform.board_power)
    return p_total * t, t


def optimal_cpu_level(platform: PlatformSpec, cpu_ops: float,
                      latency_slack: float = 0.25) -> int:
    """Exhaustive sweep of the CPU ladder for one preprocessing phase
    by the GPU-side rule,
    :meth:`~repro.hw.analytic.LevelProfile.best_level`: the most
    energy-efficient level whose phase time stays within ``(1 +
    latency_slack)`` times the fastest, the fastest of near-ties."""
    costs = [cpu_phase_energy(platform, cpu_ops, level)
             for level in range(len(platform.cpu.freq_levels))]
    return LevelProfile(times=np.array([t for _e, t in costs]),
                        energies=np.array([e for e, _t in costs])
                        ).best_level(latency_slack)


class PowerLensCGGovernor(PresetGovernor):
    """Preset governor that also pins the planned CPU level.

    Build it from a fitted :class:`~repro.core.pipeline.PowerLens`'s
    plans plus the workload's per-image CPU cost::

        cpu_level = optimal_cpu_level(platform, work_per_image * batch)
        gov = PowerLensCGGovernor(plans, cpu_level)
    """

    name = "powerlens_cg"
    cpu_policy = "plan"

    def __init__(self, plans: Sequence[FrequencyPlan],
                 planned_cpu_level: int) -> None:
        super().__init__(plans, name="powerlens_cg")
        self.cpu_policy = "plan"
        self.planned_cpu_level = planned_cpu_level


def powerlens_cg_governor(lens, graphs, cpu_work_per_image: float,
                          batch_size: int = 16) -> PowerLensCGGovernor:
    """Convenience: analyze ``graphs`` with ``lens`` and attach the
    swept-optimal CPU level for the given preprocessing cost."""
    plans = [lens.analyze(g).plan for g in graphs]
    level = optimal_cpu_level(lens.platform,
                              cpu_work_per_image * batch_size,
                              latency_slack=lens.config.latency_slack)
    return PowerLensCGGovernor(plans, level)

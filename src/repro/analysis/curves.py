"""Energy-efficiency / power / time curves over the DVFS ladder.

The data behind every "EE versus frequency" figure: evaluate a graph (or
one block) at every level and expose the arrays plus a terminal bar
rendering.  The curve's interior maximum *is* the paper's opportunity —
``LevelCurve.optimal_level()`` locates it and ``headroom()`` quantifies
the gain over the top of the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.platform import PlatformSpec

_BAR = "▏▎▍▌▋▊▉█"


@dataclass(frozen=True)
class LevelCurve:
    """Per-level metrics of one workload."""

    graph_name: str
    platform_name: str
    freqs_hz: np.ndarray
    times_s: np.ndarray
    energies_j: np.ndarray

    @property
    def ee(self) -> np.ndarray:
        return np.where(self.energies_j > 0, 1.0 / self.energies_j, 0.0)

    @property
    def mean_power_w(self) -> np.ndarray:
        return np.where(self.times_s > 0,
                        self.energies_j / self.times_s, 0.0)

    def optimal_level(self, latency_slack: Optional[float] = None) -> int:
        """EE-argmax level; with ``latency_slack`` the argmax is taken
        over levels within the slowdown budget."""
        ee = self.ee.copy()
        if latency_slack is not None:
            budget = (1 + latency_slack) * self.times_s[-1]
            ee[self.times_s > budget] = -np.inf
        return int(np.argmax(ee))

    def headroom(self) -> float:
        """Relative EE gain of the unconstrained optimum over the top
        level — how much the built-in race-to-max governor leaves on the
        table."""
        top = self.ee[-1]
        if top <= 0:
            return 0.0
        return float(self.ee.max() / top - 1.0)


def level_curve(platform: PlatformSpec, graph: Graph,
                batch_size: int = 16,
                op_indices: Optional[Sequence[int]] = None) -> LevelCurve:
    """Evaluate the whole graph (or the selected block) at every level."""
    table = AnalyticEvaluator(platform).profile_table(graph, batch_size)
    if op_indices is None:
        profile = table.graph_profile()
    else:
        profile = table.block_profile(op_indices)
    return LevelCurve(
        graph_name=graph.name,
        platform_name=platform.name,
        freqs_hz=np.asarray(platform.gpu_freq_levels, dtype=float),
        times_s=profile.times.copy(),
        energies_j=profile.energies.copy(),
    )


def _bar(value: float, peak: float, width: int = 30) -> str:
    if peak <= 0:
        return ""
    frac = max(0.0, min(1.0, value / peak))
    cells = frac * width
    full = int(cells)
    out = "█" * full
    rem = cells - full
    if rem > 0 and full < width:
        out += _BAR[int(rem * (len(_BAR) - 1))]
    return out


def render_curve(curve: LevelCurve, metric: str = "ee",
                 width: int = 30) -> str:
    """ASCII bar chart of a metric over the ladder (terminal figure)."""
    values = {
        "ee": curve.ee,
        "energy": curve.energies_j,
        "time": curve.times_s,
        "power": curve.mean_power_w,
    }.get(metric)
    if values is None:
        raise ValueError(f"unknown metric {metric!r}")
    peak = float(values.max())
    best = int(np.argmax(values)) if metric == "ee" else -1
    lines = [f"{metric} vs level: {curve.graph_name} on "
             f"{curve.platform_name}"]
    for i, (f, v) in enumerate(zip(curve.freqs_hz, values)):
        mark = " <- optimum" if i == best else ""
        lines.append(f"L{i:02d} {f / 1e6:7.1f}MHz "
                     f"{_bar(float(v), peak, width):<{width}s} "
                     f"{v:9.4g}{mark}")
    return "\n".join(lines)

"""Table 3: offline overhead of PowerLens, plus the runtime DVFS-switch
micro-measurement of section 3.3.

Offline rows come from the framework's stage timers (model training and
the per-network workflow stages).  The runtime row reproduces the
paper's protocol: change the DVFS level 100 times and report the mean
wall overhead per change — here measured against the platform's
synchronous actuation model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.overhead import OverheadReport
from repro.experiments.common import (
    ExperimentContext,
    get_context,
    paper_models,
)
from repro.hw.dvfs import DVFSController


@dataclass
class Table3Result:
    platform: str
    report: OverheadReport
    switch_samples: int = 100

    def format_table(self) -> str:
        return self.report.format_table(self.platform)


def measure_switch_overhead(ctx: ExperimentContext,
                            n_switches: int = 100) -> float:
    """The paper's runtime micro-benchmark: actuate ``n_switches`` level
    changes and average the per-change wall overhead.

    Each synchronous change costs the platform's command latency
    (``dvfs_latency_s``: sysfs write + driver reconfiguration + clock
    settle).  Requests that are no-ops (same level) cost nothing and are
    excluded, as in the paper's protocol.
    """
    controller = DVFSController(ctx.platform, level=0)
    total = 0.0
    actuated = 0
    t = 0.0
    for i in range(n_switches):
        target = (i % 2) * ctx.platform.max_level  # toggle bottom/top
        if controller.actuate(t, target).switch is not None:
            total += ctx.platform.dvfs_latency_s
            t += ctx.platform.dvfs_latency_s
            actuated += 1
    if actuated == 0:
        return 0.0
    return total / actuated


def run_table3(platform_name: str = "tx2",
               models: Optional[Sequence[str]] = None,
               context: Optional[ExperimentContext] = None) -> Table3Result:
    """Regenerate one platform's column of Table 3.

    Analyzing the model suite populates the workflow stage timers; the
    training rows were populated when the context's PowerLens was fitted.
    """
    ctx = context or get_context(platform_name)
    models = list(models) if models else paper_models()
    for model_name in models:
        ctx.lens.analyze(ctx.graph(model_name))
    report = ctx.lens.overhead_report()
    report.dvfs_switch_overhead_s = measure_switch_overhead(ctx)
    return Table3Result(platform=ctx.platform.name, report=report)

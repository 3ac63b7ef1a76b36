"""Figure 5: task-flow processing under the four methods.

100 random tasks assembled from the Table-1 suite, 50 images each; the
figure reports total energy, total time and energy efficiency for BiM,
FPG-G, FPG-C+G and PowerLens on both platforms — we reproduce the three
bar groups plus the relative deltas quoted in section 3.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.experiments.common import ExperimentContext, get_context
from repro.workloads.taskflow import TaskFlowConfig, make_taskflow


@dataclass
class MethodOutcome:
    """Totals for one method over the whole task flow."""

    method: str
    energy_j: float
    time_s: float
    energy_efficiency: float


@dataclass
class Figure5Result:
    platform: str
    outcomes: Dict[str, MethodOutcome] = field(default_factory=dict)
    n_tasks: int = 0
    images: int = 0

    def relative(self, metric: str, method: str,
                 baseline: str) -> float:
        """Relative delta of PowerLens-style comparisons, e.g.
        ``relative('energy', 'powerlens', 'bim')``."""
        a = getattr(self.outcomes[method], metric)
        b = getattr(self.outcomes[baseline], metric)
        if b == 0:
            return 0.0
        return (a - b) / b

    def format_table(self) -> str:
        title = f"Figure 5: task flow processing on {self.platform}"
        lines = [title, "=" * len(title),
                 f"({self.n_tasks} tasks, {self.images} images)",
                 f"{'method':<12s} {'energy(J)':>12s} {'time(s)':>10s} "
                 f"{'EE(img/J)':>11s}"]
        for m, o in self.outcomes.items():
            lines.append(f"{m:<12s} {o.energy_j:>12.1f} {o.time_s:>10.2f} "
                         f"{o.energy_efficiency:>11.4f}")
        if "powerlens" in self.outcomes:
            for base in ("fpg_g", "fpg_cg", "bim"):
                if base not in self.outcomes:
                    continue
                de = self.relative("energy_j", "powerlens", base)
                dt = self.relative("time_s", "powerlens", base)
                dee = self.relative("energy_efficiency", "powerlens", base)
                lines.append(
                    f"powerlens vs {base:<7s}: energy {de * 100:+6.2f}%  "
                    f"time {dt * 100:+6.2f}%  EE {dee * 100:+6.2f}%")
        return "\n".join(lines)


def run_figure5(platform_name: str = "tx2",
                n_tasks: int = 100,
                images_per_task: int = 50,
                context: Optional[ExperimentContext] = None,
                seed: int = 0) -> Figure5Result:
    """Regenerate one platform's group of Figure 5 bars."""
    ctx = context or get_context(platform_name)
    config = TaskFlowConfig(n_tasks=n_tasks,
                            images_per_task=images_per_task,
                            seed=seed)
    graphs = {name: ctx.graph(name) for name in config.model_names}
    jobs = make_taskflow(config, graphs=graphs)
    images = sum(j.images for j in jobs)

    result = Figure5Result(platform=ctx.platform.name,
                           n_tasks=n_tasks, images=images)
    governors = ctx.baseline_governors()
    governors.append(ctx.powerlens_governor(list(config.model_names)))
    for gov in governors:
        sim = ctx.simulator(seed=seed)
        run = sim.run(jobs, gov)
        result.outcomes[gov.name] = MethodOutcome(
            method=gov.name,
            energy_j=run.report.total_energy,
            time_s=run.report.total_time,
            energy_efficiency=run.report.energy_efficiency,
        )
    return result

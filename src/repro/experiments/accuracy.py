"""Section 2.2: prediction-model accuracy and dataset statistics.

The paper trains on 8 000 random networks (31 242 blocks, 80/10/10
split) and reports 92.6 % test accuracy for the clustering
hyper-parameter model and 94.2 % for the decision model, noting that
decision errors land one or two levels from the optimum.  This driver
regenerates those numbers at a configurable corpus size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import PowerLens, PowerLensConfig
from repro.core.pipeline import TrainingSummary, _acc
from repro.hw import get_platform
from repro.obs import Observability


@dataclass
class AccuracyResult:
    platform: str
    summary: TrainingSummary

    def format_table(self) -> str:
        g = self.summary.generation
        h = self.summary.hyperparam_report
        d = self.summary.decision_report
        title = (f"Prediction model accuracy on {self.platform} "
                 f"({g.n_networks} networks, {g.n_blocks} blocks, "
                 f"80/10/10 split)")
        return "\n".join([
            title,
            "=" * len(title),
            f"clustering hyperparameter model: "
            f"{_acc(h, h.test_accuracy)} exact / "
            f"{_acc(h, h.equivalent_accuracy)} scheme-equivalent "
            f"(paper: 92.6%; {h.n_test} test samples)",
            f"decision model:                  "
            f"{_acc(d, d.test_accuracy)} "
            f"(paper: 94.2%; {d.n_test} test samples)",
            f"decision within 1 level:         "
            f"{_acc(d, d.within_1_accuracy)} ({d.n_test} test samples)",
            f"decision within 2 levels:        "
            f"{_acc(d, d.within_2_accuracy)} ({d.n_test} test samples)",
        ])


def run_accuracy(platform_name: str = "tx2", n_networks: int = 400,
                 seed: int = 0,
                 lens: Optional[PowerLens] = None, n_jobs: int = 1,
                 use_cache: bool = True,
                 cache_dir: Optional[str] = None,
                 obs: Optional[Observability] = None) -> AccuracyResult:
    """Train both models from scratch and report held-out accuracy."""
    if lens is None:
        platform = get_platform(platform_name)
        lens = PowerLens(platform, PowerLensConfig(
            n_networks=n_networks, seed=seed, n_jobs=n_jobs,
            use_cache=use_cache, cache_dir=cache_dir), obs=obs)
        summary = lens.fit()
    else:
        summary = lens.training_summary
        if summary is None:
            summary = lens.fit()
    return AccuracyResult(platform=lens.platform.name, summary=summary)

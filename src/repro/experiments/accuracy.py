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
    n_networks: int
    n_blocks: int
    hyperparam_accuracy: float
    hyperparam_equivalent: float
    decision_accuracy: float
    decision_within_1: float
    decision_within_2: float
    summary: TrainingSummary

    def format_table(self) -> str:
        h = self.summary.hyperparam_report
        d = self.summary.decision_report
        title = (f"Prediction model accuracy on {self.platform} "
                 f"({self.n_networks} networks, {self.n_blocks} blocks, "
                 f"80/10/10 split)")
        return "\n".join([
            title,
            "=" * len(title),
            f"clustering hyperparameter model: "
            f"{_acc(h, self.hyperparam_accuracy)} exact / "
            f"{_acc(h, self.hyperparam_equivalent)} scheme-equivalent "
            f"(paper: 92.6%; {h.n_test} test samples)",
            f"decision model:                  "
            f"{_acc(d, self.decision_accuracy)} "
            f"(paper: 94.2%; {d.n_test} test samples)",
            f"decision within 1 level:         "
            f"{_acc(d, self.decision_within_1)} ({d.n_test} test samples)",
            f"decision within 2 levels:        "
            f"{_acc(d, self.decision_within_2)} ({d.n_test} test samples)",
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
    return AccuracyResult(
        platform=lens.platform.name,
        n_networks=summary.generation.n_networks,
        n_blocks=summary.generation.n_blocks,
        hyperparam_accuracy=summary.hyperparam_report.test_accuracy,
        hyperparam_equivalent=summary.hyperparam_report.equivalent_accuracy,
        decision_accuracy=summary.decision_report.test_accuracy,
        decision_within_1=summary.decision_report.within_1_accuracy,
        decision_within_2=summary.decision_report.within_2_accuracy,
        summary=summary,
    )

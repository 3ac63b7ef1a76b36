"""Task-flow construction (section 3.2.2 of the paper).

The paper randomly assembles 100 inference tasks from the Table-1 model
suite; each task processes 50 three-channel 224x224 images.  We mirror
that: each task is an :class:`~repro.hw.simulator.InferenceJob` running
``images_per_task`` images in batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.graph import Graph
from repro.hw.simulator import InferenceJob
from repro.models import build_model
from repro.models.zoo import PAPER_MODELS

#: Batch size used by the Table-1 / Figure-5 experiments.
DEFAULT_BATCH_SIZE = 16


@dataclass(frozen=True)
class TaskFlowConfig:
    """Parameters of a random task flow."""

    n_tasks: int = 100
    images_per_task: int = 50
    batch_size: int = 10
    model_names: Sequence[str] = tuple(PAPER_MODELS)
    cpu_work_per_image: float = 1.2e8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tasks < 1 or self.images_per_task < 1:
            raise ValueError("task counts must be positive")
        if self.images_per_task % self.batch_size != 0:
            raise ValueError(
                f"images_per_task ({self.images_per_task}) must divide "
                f"into batches of {self.batch_size}")


def make_model_job(graph: Graph, n_runs: int = 50,
                   batch_size: int = DEFAULT_BATCH_SIZE,
                   cpu_work_per_image: float = 1.2e8) -> InferenceJob:
    """Single-model EE test job: ``n_runs`` batches (the paper averages
    50 randomized runs per model)."""
    return InferenceJob(
        graph=graph,
        batch_size=batch_size,
        n_batches=n_runs,
        cpu_work_per_image=cpu_work_per_image,
        name=f"{graph.name}_ee_test",
    )


def make_request_job(graph: Graph, n_requests: int,
                     images_per_request: int,
                     cpu_work_per_image: float = 1.2e8,
                     first_request_id: int = 0,
                     sparsity: float = 0.0) -> InferenceJob:
    """Serving-layer job: ``n_requests`` coalesced same-model requests,
    each contributing one batch of ``images_per_request`` images.

    The fleet scheduler (:mod:`repro.serving`) batches queued requests
    sharing a ``(model, images, sparsity)`` key into one of these;
    every request in the job completes when the job does.
    """
    if n_requests < 1:
        raise ValueError("a request job needs at least one request")
    if images_per_request < 1:
        raise ValueError("images_per_request must be >= 1")
    return InferenceJob(
        graph=graph,
        batch_size=images_per_request,
        n_batches=n_requests,
        cpu_work_per_image=cpu_work_per_image,
        name=f"{graph.name}/req{first_request_id}x{n_requests}",
        sparsity=sparsity,
    )


def make_taskflow(config: Optional[TaskFlowConfig] = None,
                  graphs: Optional[Dict[str, Graph]] = None
                  ) -> List[InferenceJob]:
    """Assemble a random task flow.

    Parameters
    ----------
    graphs:
        Optional pre-built graphs keyed by model name (building the
        full Table-1 suite takes a couple of seconds; callers running
        several flows should share one dict).
    """
    config = config or TaskFlowConfig()
    rng = random.Random(config.seed)
    if graphs is None:
        graphs = {name: build_model(name) for name in config.model_names}
    jobs: List[InferenceJob] = []
    n_batches = config.images_per_task // config.batch_size
    for i in range(config.n_tasks):
        name = rng.choice(list(config.model_names))
        jobs.append(InferenceJob(
            graph=graphs[name],
            batch_size=config.batch_size,
            n_batches=n_batches,
            cpu_work_per_image=config.cpu_work_per_image,
            name=f"task{i:03d}_{name}",
        ))
    return jobs

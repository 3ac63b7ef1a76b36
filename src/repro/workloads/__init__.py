"""Workload construction: single-model EE tests and random task flows."""

from repro.workloads.taskflow import (
    TaskFlowConfig,
    make_taskflow,
    make_model_job,
    make_request_job,
    DEFAULT_BATCH_SIZE,
)

__all__ = [
    "TaskFlowConfig",
    "make_taskflow",
    "make_model_job",
    "make_request_job",
    "DEFAULT_BATCH_SIZE",
]

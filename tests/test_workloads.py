"""Workload construction tests."""

import pytest

from repro.workloads import (
    TaskFlowConfig,
    make_model_job,
    make_taskflow,
)


class TestModelJob:
    def test_job_sizes(self, small_cnn):
        job = make_model_job(small_cnn, n_runs=50, batch_size=16)
        assert job.images == 800
        assert job.graph is small_cnn
        assert "ee_test" in job.name


class TestTaskFlow:
    def test_paper_defaults(self):
        cfg = TaskFlowConfig()
        assert cfg.n_tasks == 100
        assert cfg.images_per_task == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskFlowConfig(n_tasks=0)
        with pytest.raises(ValueError):
            TaskFlowConfig(images_per_task=50, batch_size=7)

    def test_flow_composition(self, small_cnn):
        cfg = TaskFlowConfig(n_tasks=10, images_per_task=20, batch_size=10,
                             model_names=("small",), seed=0)
        jobs = make_taskflow(cfg, graphs={"small": small_cnn})
        assert len(jobs) == 10
        assert all(j.images == 20 for j in jobs)
        assert all(j.n_batches == 2 for j in jobs)

    def test_flow_deterministic(self, small_cnn):
        graphs = {"small": small_cnn}
        cfg = TaskFlowConfig(n_tasks=5, images_per_task=10, batch_size=10,
                             model_names=("small",), seed=4)
        a = make_taskflow(cfg, graphs=graphs)
        b = make_taskflow(cfg, graphs=graphs)
        assert [j.name for j in a] == [j.name for j in b]

    def test_flow_samples_multiple_models(self):
        cfg = TaskFlowConfig(n_tasks=30, images_per_task=10, batch_size=10,
                             model_names=("alexnet", "resnet18"), seed=0)
        jobs = make_taskflow(cfg)
        names = {j.graph.name for j in jobs}
        assert names == {"alexnet", "resnet18"}

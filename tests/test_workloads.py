"""Workload construction tests."""

import numpy as np
import pytest

from repro.workloads import (
    ImageBatchSpec,
    TaskFlowConfig,
    make_model_job,
    make_taskflow,
    synthetic_batch,
)


class TestImages:
    def test_spec_shape(self):
        spec = ImageBatchSpec(batch_size=4)
        assert spec.shape == (4, 3, 224, 224)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ImageBatchSpec(batch_size=0)

    def test_synthetic_batch(self):
        spec = ImageBatchSpec(batch_size=2, height=32, width=32)
        batch = synthetic_batch(spec, seed=1)
        assert batch.shape == spec.shape
        assert batch.dtype == np.float32
        assert np.array_equal(batch, synthetic_batch(spec, seed=1))


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

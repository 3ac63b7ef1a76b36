"""Activation-sparsity axis of the analytic cost path.

The contract under test (see ``repro.hw.perf.sparse_works`` and the
``sparsity`` parameter threaded through ``repro.hw.analytic``):

* **zero is identity** — ``sparsity=0.0`` returns the *same* works
  object and hits the same profile-table cache entries, so every
  pre-sparsity number in the repo is reproduced bit-for-bit;
* **loop/table bit-identity** — the vectorized profile table and the
  reference per-op loop agree exactly at any sparsity, because both
  consume the same transformed works (the existing identity contract
  extends to the new axis for free);
* **monotone relief** — sparsity strictly reduces compute-category
  flops and memory traffic, so analytic energy and time never increase
  with sparsity;
* **category discipline** — only conv/dwconv/linear/attention ops are
  rescaled; io, norm, pooling and elementwise work is untouched;
* **simulator plumbing** — ``InferenceJob.sparsity`` validates its
  range, and a simulator's cached dense work rows survive sparse runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.adaptive import build_drift_net
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.perf import (
    SPARSITY_COMPUTE_CATEGORIES,
    SPARSITY_MEM_FRACTION,
    sparse_works,
)
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.governors import PresetGovernor, analytic_plan
from tests.oracles import profile_reference

pytestmark = pytest.mark.family

PLATFORM = get_platform("tx2")


@pytest.fixture(scope="module")
def graph():
    return build_drift_net()


@pytest.fixture(scope="module")
def evaluator():
    return AnalyticEvaluator(PLATFORM)


class TestSparseWorks:
    def test_zero_sparsity_is_identity_object(self, evaluator, graph):
        works = evaluator.latency.graph_work(graph)
        assert sparse_works(works, 0.0) is works

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(0.001, 0.999, allow_nan=False))
    def test_only_compute_categories_rescaled(self, s, graph):
        evaluator = AnalyticEvaluator(PLATFORM)
        works = evaluator.latency.graph_work(graph)
        out = sparse_works(works, s)
        assert len(out) == len(works)
        for before, after in zip(works, out):
            assert after.name == before.name
            assert after.category == before.category
            if before.category in SPARSITY_COMPUTE_CATEGORIES:
                assert after.flops == before.flops * (1.0 - s)
                assert after.mem_bytes == before.mem_bytes * (
                    1.0 - SPARSITY_MEM_FRACTION * s)
            else:
                assert after.flops == before.flops
                assert after.mem_bytes == before.mem_bytes

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_out_of_range_rejected(self, bad, evaluator, graph):
        works = evaluator.latency.graph_work(graph)
        with pytest.raises(ValueError, match="sparsity"):
            sparse_works(works, bad)


class TestProfileSparsity:
    @settings(max_examples=8, deadline=None)
    @given(s=st.sampled_from([0.0, 0.2, 0.5, 0.9]),
           batch=st.sampled_from([1, 16]))
    def test_loop_and_table_bit_identical(self, s, batch, graph):
        evaluator = AnalyticEvaluator(PLATFORM)
        table = evaluator.profile_table(graph, batch, s)
        works = evaluator.latency.graph_work(graph)
        loop = profile_reference(evaluator, works, batch_size=batch,
                                 sparsity=s)
        fast = table.span_profile(0, table.n_ops)
        np.testing.assert_array_equal(fast.energies, loop.energies)
        np.testing.assert_array_equal(fast.times, loop.times)

    def test_energy_and_time_monotone_in_sparsity(self, evaluator,
                                                  graph):
        prev = None
        for s in (0.0, 0.25, 0.5, 0.75):
            table = evaluator.profile_table(graph, 16, s)
            profile = table.span_profile(0, table.n_ops)
            point = (profile.energies.sum(), profile.times.sum())
            if prev is not None:
                assert point[0] < prev[0]
                assert point[1] <= prev[1]
            prev = point

    def test_table_cache_keyed_per_sparsity(self, graph):
        evaluator = AnalyticEvaluator(PLATFORM)
        dense = evaluator.profile_table(graph, 16, 0.0)
        sparse = evaluator.profile_table(graph, 16, 0.5)
        assert dense is not sparse
        assert evaluator.profile_table(graph, 16, 0.0) is dense
        assert evaluator.profile_table(graph, 16, 0.5) is sparse

    def test_sparse_plan_can_differ_from_dense(self, evaluator, graph):
        dense = analytic_plan(evaluator, graph, 16, block_size=4)
        sparse = analytic_plan(evaluator, graph, 16, block_size=4,
                               sparsity=0.9)
        assert dense.graph_name == sparse.graph_name
        assert len(dense.steps) == len(sparse.steps)
        # Same structure; levels may move (they do on the drift net —
        # that movement is the whole point of the sparsity axis).
        assert [s.op_index for s in dense.steps] \
            == [s.op_index for s in sparse.steps]


class TestSimulatorSparsity:
    @pytest.mark.parametrize("bad", [-0.01, 1.0])
    def test_job_sparsity_validated(self, bad, graph):
        with pytest.raises(ValueError, match="sparsity"):
            InferenceJob(graph=graph, batch_size=1, sparsity=bad)

    def test_sparse_job_uses_less_energy(self, evaluator, graph):
        plan = analytic_plan(evaluator, graph, 16, block_size=4)

        def run(s):
            gov = PresetGovernor([plan], resilient=True)
            job = InferenceJob(graph=graph, batch_size=16, n_batches=1,
                               sparsity=s)
            sim = InferenceSimulator(PLATFORM, seed=3, keep_trace=True,
                                     keep_samples=False)
            return sim.run([job], gov).trace.total_energy

        assert run(0.6) < run(0.0)

    def test_row_cache_isolated_per_sparsity(self, evaluator, graph):
        plan = analytic_plan(evaluator, graph, 16, block_size=4)
        # One simulator for every run: its latency model caches the
        # graph's dense per-op work rows, and sparse runs rescale copies.
        sim = InferenceSimulator(PLATFORM, seed=3, keep_trace=True,
                                 keep_samples=False)

        def run(s):
            gov = PresetGovernor([plan], resilient=True)
            job = InferenceJob(graph=graph, batch_size=16, n_batches=1,
                               sparsity=s)
            return sim.run([job], gov).trace.total_energy

        dense_a = run(0.0)
        sparse_a = run(0.5)
        # Re-running against the warm cache reproduces both exactly: a
        # sparse run never rescales the cached dense rows in place.
        assert run(0.0) == dense_a
        assert run(0.5) == sparse_a
        assert sparse_a < dense_a

"""Batch sweep: the activation-sparsity axis reaches
``repro.extensions.batching.batch_sweep`` and ``best_batch_size``.

A sparse batch is cheaper per image than a dense one at every
candidate batch size, and ``best_batch_size`` passes the sparsity
through to the sweep.
"""

import pytest

from repro.extensions.batching import batch_sweep, best_batch_size
from repro.hw.platform import get_platform
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.family

PLATFORM = get_platform("tx2")


class TestSweepSparsity:
    def test_sweep_accepts_sparsity(self):
        graph = build_small_cnn()
        dense = batch_sweep(PLATFORM, graph, candidates=(1, 8))
        sparse = batch_sweep(PLATFORM, graph, candidates=(1, 8),
                             sparsity=0.5)
        assert len(dense) == len(sparse) == 2
        for d, s in zip(dense, sparse):
            assert s.energy_per_image < d.energy_per_image

    def test_best_batch_size_sparsity_passthrough(self):
        graph = build_small_cnn()
        dense = best_batch_size(PLATFORM, graph, candidates=(1, 4, 8))
        sparse = best_batch_size(PLATFORM, graph, candidates=(1, 4, 8),
                                 sparsity=0.5)
        assert sparse.energy_per_image < dense.energy_per_image


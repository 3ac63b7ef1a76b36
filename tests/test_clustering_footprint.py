"""Memory footprint of Algorithm 1: every O(n²) array lives only as long
as the network it was built for.

The pins are tracemalloc-based and deterministic: allocations are
attributed to ``repro/core/clustering.py`` by filename, so nothing else
the process holds can move them.  densenet201 (707 ops, 249,571 pairs)
is the largest paper model, so it sizes the transient.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import clustering
from repro.core.clustering import (
    FactoredDistance,
    cluster_power_blocks,
    spacing_by_gap,
    spacing_matrix,
)
from repro.core.features import DepthwiseFeatureExtractor
from repro.models import PAPER_MODELS, build_model

MIB = 2 ** 20

#: What clustering may still hold after a network is done: nothing but
#: interpreter noise.
_RETAINED_LIMIT = 0.1 * MIB

#: Peak traced memory of one densenet201 ``FactoredDistance``: about a
#: dozen pair-length (1.9 MiB) arrays at once.
_PEAK_LIMIT = 24 * MIB


@pytest.fixture(scope="module")
def densenet_features() -> np.ndarray:
    graph = build_model("densenet201")
    return DepthwiseFeatureExtractor().extract_scaled(graph)


def _clustering_bytes(snapshot: tracemalloc.Snapshot) -> int:
    kept = snapshot.filter_traces(
        [tracemalloc.Filter(True, clustering.__file__)])
    return sum(stat.size for stat in kept.statistics("filename"))


def _retained_by_clustering(run) -> int:
    tracemalloc.start()
    try:
        run()
        gc.collect()
        return _clustering_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()


class TestFootprint:
    def test_cluster_power_blocks_retains_nothing(self, densenet_features):
        assert densenet_features.shape[0] == 707
        retained = _retained_by_clustering(
            lambda: cluster_power_blocks(densenet_features, 0.45, 2))
        assert retained < _RETAINED_LIMIT

    def test_factored_distance_peak(self, densenet_features):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            FactoredDistance(densenet_features, 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= _PEAK_LIMIT

    def test_analyze_paper_models_retains_nothing(self, fitted_lens):
        graphs = [build_model(name) for name in PAPER_MODELS]

        def analyze_all():
            for graph in graphs:
                fitted_lens.analyze(graph)

        assert _retained_by_clustering(analyze_all) < _RETAINED_LIMIT


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=900),
       lam=st.floats(min_value=0.0, max_value=1.0),
       mode=st.sampled_from(["penalty", "paper"]))
def test_gap_vector_bit_identical_to_matrix(n, lam, mode):
    """The O(n) gap vector gathered at ``ju - iu`` is the dense
    regularizer's upper triangle, byte for byte."""
    iu, ju = np.triu_indices(n, k=1)
    fast = spacing_by_gap(n, lam, mode)[ju - iu]
    reference = spacing_matrix(n, lam, mode)[iu, ju]
    assert fast.dtype == reference.dtype
    assert fast.tobytes() == reference.tobytes()


def test_gap_vector_validates_like_matrix():
    with pytest.raises(ValueError):
        spacing_by_gap(4, -0.1)
    with pytest.raises(ValueError):
        spacing_by_gap(4, 0.05, "bogus")

"""The per-graph node table: feature extraction reads it byte-identically
to the per-node reference loops, and each compute node's metrics are
derived exactly once per graph."""

import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.features import (
    DepthwiseFeatureExtractor,
    GlobalFeatureExtractor,
)
from repro.graph import metrics
from repro.hw.analytic import AnalyticEvaluator
from repro.models import RandomDNNGenerator

from tests.oracles import (
    depthwise_row_reference,
    global_features_reference,
)

_GLOBAL = GlobalFeatureExtractor()
_DEPTHWISE = DepthwiseFeatureExtractor()


@st.composite
def _block(draw, n):
    """Op indices of one block of an ``n``-op network: the whole graph
    (None), a contiguous run, a sorted scattered set, or the same set
    shuffled."""
    kind = draw(st.sampled_from(
        ["whole", "contiguous", "scattered", "unsorted"]))
    if kind == "whole":
        return None
    if kind == "contiguous":
        start = draw(st.integers(0, n - 1))
        stop = draw(st.integers(start + 1, n))
        return list(range(start, stop))
    picked = draw(st.lists(st.integers(0, n - 1), min_size=1,
                           max_size=min(n, 24), unique=True))
    if kind == "scattered":
        return sorted(picked)
    return draw(st.permutations(picked))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 5000), data=st.data())
def test_block_features_match_reference(seed, data):
    graph = RandomDNNGenerator(seed=seed).generate()
    n = len(graph.compute_nodes())
    block = data.draw(_block(n))
    got = _GLOBAL.extract(graph, block)
    ref = global_features_reference(graph, block)
    assert got.structural.tobytes() == ref.structural.tobytes()
    assert got.statistics.tobytes() == ref.statistics.tobytes()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 5000))
def test_depthwise_rows_match_reference(seed):
    graph = RandomDNNGenerator(seed=seed).generate()
    ref = [depthwise_row_reference(graph, node).tobytes()
           for node in graph.compute_nodes()]
    x = _DEPTHWISE.extract(graph)
    assert [row.tobytes() for row in x] == ref
    node = graph.compute_nodes()[-1]
    assert _DEPTHWISE.extract_node(graph, node).tobytes() == ref[-1]


def test_node_metrics_once_per_compute_node(monkeypatch, tx2):
    """Depthwise, whole-graph and per-block global extraction and the
    analytic profile table of one network share one metrics pass."""
    calls = []
    original = metrics.node_metrics

    def counted(graph, node):
        calls.append(node.name)
        return original(graph, node)

    # Every module that bound the function by name gets the counter.
    for module in list(sys.modules.values()):
        if getattr(module, "node_metrics", None) is original:
            monkeypatch.setattr(module, "node_metrics", counted)

    graph = RandomDNNGenerator(seed=7).generate()
    n = len(graph.compute_nodes())
    _DEPTHWISE.extract(graph)
    _GLOBAL.extract(graph)
    for start in range(0, n, 8):
        _GLOBAL.extract(graph, range(start, min(start + 8, n)))
    AnalyticEvaluator(tx2).profile_table(graph, 4)
    assert len(calls) == n
    assert sorted(calls) == sorted(nd.name for nd in graph.compute_nodes())

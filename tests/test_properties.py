"""Cross-cutting property-based tests tying the layers together."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.clustering import cluster_power_blocks
from repro.core.features import DepthwiseFeatureExtractor
from repro.core.power_view import PowerView
from repro.governors.preset import FrequencyPlan, PlanStep
from repro.hw import jetson_tx2
from repro.hw.analytic import AnalyticEvaluator
from repro.models import RandomDNNGenerator

_TX2 = jetson_tx2()
_EVALUATOR = AnalyticEvaluator(_TX2)
_EXTRACTOR = DepthwiseFeatureExtractor()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 5000),
       eps=st.sampled_from([0.3, 0.45, 0.6, 0.75]),
       min_pts=st.sampled_from([2, 4, 8]))
def test_clustering_always_yields_valid_power_view(seed, eps, min_pts):
    """Property: Algorithm 1 output on ANY generated network under ANY
    grid scheme forms a valid power view (contiguous, complete,
    non-overlapping)."""
    graph = RandomDNNGenerator(seed=seed).generate()
    features = _EXTRACTOR.extract_scaled(graph)
    blocks = cluster_power_blocks(features, eps, min_pts)
    view = PowerView.from_blocks(graph, blocks)  # validates internally
    assert view.n_blocks >= 1


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 5000), level=st.integers(0, 12))
def test_analytic_energy_scales_superlinearly_never_sublinearly(
        seed, level):
    """Property: doubling the batch at a fixed level at least doubles
    energy minus the fixed launch overhead (work scales linearly, fixed
    overheads amortize)."""
    graph = RandomDNNGenerator(seed=seed).generate()
    p1 = _EVALUATOR.profile_table(graph, 4).graph_profile()
    p2 = _EVALUATOR.profile_table(graph, 8).graph_profile()
    assert p2.energies[level] > p1.energies[level] * 1.5
    assert p2.times[level] > p1.times[level]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_frequency_plan_level_map_consistent(data):
    """Property: level_for_op agrees with the plan's step list, and the
    switch indices are exactly where the mapped level changes."""
    n_steps = data.draw(st.integers(1, 6))
    indices = sorted(data.draw(st.sets(
        st.integers(1, 40), min_size=n_steps - 1,
        max_size=n_steps - 1)))
    levels = data.draw(st.lists(st.integers(0, 12), min_size=n_steps,
                                max_size=n_steps))
    steps = [PlanStep(0, levels[0])] + [
        PlanStep(op, lvl) for op, lvl in zip(indices, levels[1:])
    ]
    plan = FrequencyPlan(graph_name="g", steps=steps)
    mapped = [plan.level_for_op(i) for i in range(45)]
    switch_at = [0] + [
        i for i in range(1, 45) if mapped[i] != mapped[i - 1]
    ]
    assert plan.switch_indices() == switch_at


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2000))
def test_best_level_feasibility_on_random_networks(seed):
    """Property: the exhaustive sweep's chosen level always honours the
    latency-slack constraint on arbitrary networks."""
    graph = RandomDNNGenerator(seed=seed).generate()
    profile = _EVALUATOR.profile_table(graph, 8).graph_profile()
    for slack in (0.0, 0.25):
        level = _EVALUATOR.best_level(profile, latency_slack=slack)
        assert profile.times[level] <= \
            (1 + slack) * profile.times[-1] * (1 + 1e-9)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2000))
def test_depthwise_features_finite_on_random_networks(seed):
    """Property: the feature extractors never emit NaN/inf on generator
    output (log/std guards hold for every op combination)."""
    graph = RandomDNNGenerator(seed=seed).generate()
    x = _EXTRACTOR.extract_scaled(graph)
    assert np.all(np.isfinite(x))
    from repro.core.features import GlobalFeatureExtractor
    gf = GlobalFeatureExtractor().extract(graph)
    assert np.all(np.isfinite(gf.vector))

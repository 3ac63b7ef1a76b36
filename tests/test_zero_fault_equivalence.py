"""Zero-fault equivalence: a :class:`FaultProfile` with every rate at
zero must be indistinguishable from running with no profile at all —
byte-identical traces, telemetry and generated datasets.  This is the
property that lets the fault layer ship inside the production simulator
instead of behind a fork."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.datasets import DatasetGenerator
from repro.governors import FrequencyPlan, OndemandGovernor, PlanStep, \
    PresetGovernor
from repro.hw import InferenceJob, InferenceSimulator
from repro.hw.faults import FaultProfile
from repro.models.random_gen import RandomDNNConfig

from tests.conftest import build_small_cnn

pytestmark = pytest.mark.faults

#: Profiles whose rates are all zero; the non-behavioural fields (seed,
#: delay magnitude) are free — they must not matter.
zero_profiles = st.builds(
    FaultProfile,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    switch_delay_s=st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False),
)


def _run(platform, governor, faults):
    graph = build_small_cnn()
    jobs = [InferenceJob(graph=graph, n_batches=2),
            InferenceJob(graph=graph, n_batches=1)]
    return InferenceSimulator(platform, faults=faults).run(jobs, governor)


def _assert_runs_identical(base, other):
    assert other.report == base.report
    assert other.trace.segments == base.trace.segments
    assert other.samples == base.samples
    assert other.switch_count == base.switch_count
    assert other.fault_stats is None and base.fault_stats is None


@settings(max_examples=15, deadline=None)
@given(profile=zero_profiles)
def test_simulator_identical_under_zero_profile(profile):
    assert profile.is_zero
    platform = __import__("repro.hw", fromlist=["jetson_tx2"]).jetson_tx2()
    plan = FrequencyPlan(graph_name="small_cnn",
                         steps=[PlanStep(0, 2), PlanStep(4, 5)])
    base = _run(platform, PresetGovernor([plan]), faults=None)
    under_profile = _run(platform, PresetGovernor([plan]), faults=profile)
    _assert_runs_identical(base, under_profile)


@settings(max_examples=10, deadline=None)
@given(profile=zero_profiles)
def test_reactive_governor_identical_under_zero_profile(profile):
    """The telemetry path (sampled windows driving ondemand) is also on
    the guarded code path."""
    platform = __import__("repro.hw", fromlist=["jetson_tx2"]).jetson_tx2()
    base = _run(platform, OndemandGovernor(), faults=None)
    under_profile = _run(platform, OndemandGovernor(), faults=profile)
    _assert_runs_identical(base, under_profile)


@settings(max_examples=3, deadline=None)
@given(profile=zero_profiles)
def test_datasets_identical_under_zero_profile(profile):
    from repro.hw import jetson_tx2
    platform = jetson_tx2()
    config = RandomDNNConfig(min_stages=1, max_stages=2, max_blocks_per_stage=2)
    base_gen = DatasetGenerator(platform, dnn_config=config, faults=None)
    fault_gen = DatasetGenerator(platform, dnn_config=config,
                                 faults=profile)
    a0, b0, s0 = base_gen.generate(3, seed=5)
    a1, b1, s1 = fault_gen.generate(3, seed=5)
    for x, y in ((a0.x_struct, a1.x_struct), (a0.x_stats, a1.x_stats),
                 (a0.y, a1.y), (b0.x, b1.x), (b0.y, b1.y)):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()
    assert s0.n_retries == s1.n_retries == 0
    assert s0.quarantined == s1.quarantined == []

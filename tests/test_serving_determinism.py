"""Determinism properties of the fleet serving simulator.

The contract under test (pinned here with hypothesis so it holds for
*every* seed/shape, not one golden scenario):

* **replay** — the same ``(trace, fleet config)`` produces a
  byte-identical canonical event log and exactly equal fleet joules on
  every run;
* **conservation** — every arrival is accounted exactly once:
  ``arrived == admitted + dropped_queue_full`` and
  ``admitted == completed + dropped_expired + dropped_unserviceable``,
  with or without injected hardware faults;
* **event-log shape** — sequence numbers are dense and times never run
  backwards, so logs diff cleanly line-by-line.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.faults import FaultProfile
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    TRACE_KINDS,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

MODEL = "small_cnn"

_POLICIES = st.sampled_from(["fifo", "slo", "energy"])
_KINDS = st.sampled_from(list(TRACE_KINDS))
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _build_fleet(governor: str = "powerlens", fleet_seed: int = 0,
                 faults: FaultProfile = None,
                 configs=None) -> Fleet:
    configs = configs or [DeviceConfig("tx2-0", "tx2"),
                          DeviceConfig("agx-1", "agx")]
    fleet = Fleet.build(configs, governor=governor,
                        fleet_seed=fleet_seed, faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    return fleet


def _run(seed: int, kind: str = "poisson", policy: str = "fifo",
         governor: str = "powerlens", rate: float = 40.0,
         duration: float = 0.5, slo: float = math.inf,
         faults: FaultProfile = None, queue_capacity: int = 64):
    """One fresh fleet + scheduler + trace, fully determined by args."""
    fleet = _build_fleet(governor=governor, fleet_seed=seed,
                         faults=faults)
    trace = make_trace(kind, rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed, slo_latency_s=slo)
    scheduler = FleetScheduler(fleet, SchedulerConfig(
        policy=policy, queue_capacity=queue_capacity))
    return scheduler.run(trace)


@settings(max_examples=12, deadline=None)
@given(seed=_SEEDS, kind=_KINDS, policy=_POLICIES)
def test_replay_is_byte_identical(seed, kind, policy):
    """Two runs of the same scenario: identical event-log bytes and
    exactly equal fleet energy."""
    first = _run(seed, kind=kind, policy=policy)
    second = _run(seed, kind=kind, policy=policy)
    assert first.event_log() == second.event_log()
    assert first.report.fleet_energy_j == second.report.fleet_energy_j
    assert first.report.to_dict() == second.report.to_dict()


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, kind=_KINDS, policy=_POLICIES,
       slo=st.sampled_from([math.inf, 0.5, 0.05]),
       queue_capacity=st.sampled_from([2, 8, 64]))
def test_request_conservation(seed, kind, policy, slo, queue_capacity):
    """No request is lost or double-counted, at any queue pressure."""
    result = _run(seed, kind=kind, policy=policy, slo=slo,
                  queue_capacity=queue_capacity)
    report = result.report
    assert report.conserved
    assert report.arrived == (report.admitted
                              + report.dropped_queue_full)
    assert report.admitted == (report.completed + report.dropped_expired
                               + report.dropped_unserviceable)
    # Outcomes and metrics agree with the report.
    assert len(result.outcomes) == report.completed
    counters = result.metrics
    assert counters.counter(
        "powerlens_serving_requests_total").value == report.arrived
    assert counters.counter(
        "powerlens_serving_completed_total").value == report.completed


@settings(max_examples=8, deadline=None)
@given(seed=_SEEDS,
       drop_rate=st.floats(min_value=0.0, max_value=0.3),
       telemetry_rate=st.floats(min_value=0.0, max_value=0.2))
def test_conservation_and_replay_under_faults(seed, drop_rate,
                                              telemetry_rate):
    """Injected switch/telemetry faults shift numbers, never accounting
    — and faulty runs replay byte-identically too."""
    faults = FaultProfile(seed=seed, switch_drop_rate=drop_rate,
                          switch_partial_rate=drop_rate / 2,
                          telemetry_drop_rate=telemetry_rate)
    first = _run(seed, policy="slo", slo=0.5, faults=faults)
    second = _run(seed, policy="slo", slo=0.5, faults=faults)
    assert first.report.conserved
    assert first.event_log() == second.event_log()
    assert first.report.fleet_energy_j == second.report.fleet_energy_j


@settings(max_examples=8, deadline=None)
@given(seed=_SEEDS, kind=_KINDS)
def test_event_log_is_dense_and_monotonic(seed, kind):
    result = _run(seed, kind=kind)
    events = result.events
    assert [e["seq"] for e in events] == list(range(len(events)))
    times = [e["t"] for e in events]
    assert all(a <= b for a, b in zip(times, times[1:]))
    # Every event kind the scheduler can emit is well-formed.
    assert {e["event"] for e in events} <= {
        "admit", "dispatch", "complete", "drop", "drain"}


def test_different_seeds_differ():
    """Sanity: the trace generators actually respond to the seed (a
    constant generator would pass every property above)."""
    assert _run(1).event_log() != _run(2).event_log()

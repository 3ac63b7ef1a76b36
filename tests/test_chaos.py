"""Chaos suite: composed fault storms against the serving loop.

Every test here composes several fault modes at once — device drains
(telemetry noise tripping the anomaly budget), DVFS switch drops and
partial applies, telemetry sample loss, and thermal cap windows — then
asserts the two properties that must survive *any* storm:

* **accounting never breaks** — request conservation holds exactly and
  the per-dispatch energy ledgers reconcile to ≤ 1e-9 relative error,
  no matter which faults fired;
* **the loop always terminates** — no deadlock or livelock, including
  on empty and zero-rate arrival traces, with and without the recovery
  state machine re-admitting drained devices.

Select with ``-m chaos``; runs in tier 1.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.faults import CapWindow, FaultProfile
from repro.serving import (
    ArrivalTrace,
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.chaos

MODEL = "small_cnn"

LEDGER_TOL = 1e-9


@st.composite
def storms(draw):
    """A composed fault profile: drains + DVFS drops + telemetry noise
    + an optional thermal cap window, all at once."""
    windows = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        t0 = draw(st.floats(min_value=0.0, max_value=0.6))
        dur = draw(st.floats(min_value=0.05, max_value=0.5))
        windows.append(CapWindow(t_start=t0, t_end=t0 + dur,
                                 max_level=draw(st.integers(0, 2))))
    return FaultProfile(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        switch_drop_rate=draw(st.floats(min_value=0.0, max_value=0.4)),
        switch_partial_rate=draw(
            st.floats(min_value=0.0, max_value=0.2)),
        telemetry_drop_rate=draw(
            st.floats(min_value=0.0, max_value=0.3)),
        telemetry_noise_std=draw(
            st.floats(min_value=0.0, max_value=1.0)),
        cap_windows=tuple(windows),
    )


_RECOVERIES = st.sampled_from([
    None,
    RecoveryConfig(cooldown_s=0.05, max_cooldown_s=0.4),
    RecoveryConfig(cooldown_s=0.05, max_cooldown_s=0.2,
                   probation_jobs=1, max_attempts=2),
])


def _run(trace, faults=None, recovery=None,
         governor: str = "powerlens", seed: int = 0):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor=governor, fleet_seed=seed,
                        faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    scheduler = FleetScheduler(fleet, SchedulerConfig(
        policy="fifo", queue_capacity=128, recovery=recovery))
    return scheduler.run(trace)


def _trace(seed: int, rate: float = 30.0, duration: float = 1.0):
    return make_trace("poisson", rate_rps=rate, duration_s=duration,
                      models=[MODEL], seed=seed,
                      slo_latency_s=math.inf)


def _assert_invariants(result):
    report = result.report
    assert report.conserved
    assert report.arrived == report.admitted + report.dropped_queue_full
    assert report.admitted == (report.completed + report.dropped_expired
                               + report.dropped_unserviceable)
    assert report.energy_rel_err <= LEDGER_TOL
    for record in result.dispatches:
        assert record.ledger_ok
    # the event log is dense and time-ordered even mid-storm
    seqs = [e["seq"] for e in result.events]
    assert seqs == list(range(len(seqs)))
    times = [e["t"] for e in result.events]
    assert all(a <= b for a, b in zip(times, times[1:]))


@settings(max_examples=15, deadline=None)
@given(storm=storms(), recovery=_RECOVERIES,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_composed_storms_never_break_accounting(storm, recovery, seed):
    """Drains + switch drops + noise + cap windows, recovery on or
    off: conservation and ledger reconciliation always hold and the
    run always returns."""
    result = _run(_trace(seed), faults=storm, recovery=recovery,
                  seed=seed)
    _assert_invariants(result)


@settings(max_examples=8, deadline=None)
@given(storm=storms(), recovery=_RECOVERIES)
def test_adaptive_governor_survives_storms(storm, recovery):
    """The closed replanning loop adds no accounting leak under any
    composed storm."""
    result = _run(_trace(7, duration=0.6), faults=storm,
                  recovery=recovery, governor="powerlens-adaptive",
                  seed=7)
    _assert_invariants(result)


@pytest.mark.parametrize("recovery", [
    None, RecoveryConfig(cooldown_s=0.05, max_cooldown_s=0.2)])
@pytest.mark.parametrize("duration", [0.0, 2.0])
def test_empty_trace_terminates(recovery, duration):
    """A trace with no arrivals (empty, or zero-rate over a horizon)
    must terminate immediately with all-zero accounting — no probe
    loop may spin on an idle fleet."""
    trace = ArrivalTrace(kind="poisson", seed=0, requests=(),
                         duration_s=duration)
    result = _run(trace, faults=FaultProfile(seed=1, **{
        "telemetry_noise_std": 0.8, "switch_drop_rate": 0.2}),
        recovery=recovery)
    report = result.report
    assert report.arrived == 0
    assert report.completed == 0
    assert report.conserved
    assert result.events == []
    # No completion, so no latency and no joules per request: None,
    # printed as n/a, and their gauges are never set.
    for name in ("latency_p50_s", "latency_p90_s", "latency_p99_s",
                 "latency_mean_s", "latency_max_s", "joules_per_request"):
        assert getattr(report, name) is None, name
        assert report.to_dict()[name] is None, name
    table = report.format_table()
    assert "latency: n/a (n=0)" in table
    assert "J/request n/a (n=0)" in table
    assert result.metrics.get("powerlens_serving_joules_per_request") is None
    assert result.metrics.get(
        "powerlens_serving_latency_p99_seconds") is None
    assert result.metrics.get(
        "powerlens_serving_fleet_energy_joules").value == 0.0


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_hostile_probes_cannot_livelock(max_attempts):
    """A storm harsh enough that probes keep failing: the attempt
    budget bounds the probe loop and the run still terminates with
    conservation intact."""
    storm = FaultProfile(seed=3, telemetry_noise_std=1.5,
                         switch_drop_rate=0.5,
                         cap_windows=(CapWindow(0.0, 60.0, 0),))
    recovery = RecoveryConfig(cooldown_s=0.01, max_cooldown_s=0.05,
                              max_attempts=max_attempts)
    result = _run(_trace(3, duration=1.5), faults=storm,
                  recovery=recovery, seed=3)
    _assert_invariants(result)
    probes = sum(1 for e in result.events if e["event"] == "probe")
    # two devices, each bounded by the attempt budget per drain cycle;
    # the hard cap is attempts x readmissions, which the storm keeps
    # small — the real assertion is that the count is finite and the
    # run returned at all
    assert probes < 10_000


def test_chaos_runs_are_still_deterministic():
    """One composed storm, run twice: chaos is reproducible chaos."""
    storm = FaultProfile(seed=9, telemetry_noise_std=0.7,
                         switch_drop_rate=0.3,
                         telemetry_drop_rate=0.1,
                         cap_windows=(CapWindow(0.1, 0.5, 1),))
    recovery = RecoveryConfig(cooldown_s=0.05, max_cooldown_s=0.4)
    first = _run(_trace(9), faults=storm, recovery=recovery, seed=9)
    second = _run(_trace(9), faults=storm, recovery=recovery, seed=9)
    assert first.event_log() == second.event_log()
    assert first.report.to_dict() == second.report.to_dict()

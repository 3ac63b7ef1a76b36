"""Fleet device recovery: drained → cooldown → probe → probation.

The contract under test (see ``repro.serving.scheduler``):

* **recovery recovers** — under a fault storm that drains devices, the
  recovery state machine re-admits them and the fleet completes more
  requests than the drain-is-forever baseline, with conservation
  intact;
* **determinism** — recovery runs replay byte-identically (same event
  log, same joules) across runs;
* **zero-fault invisibility** — with no faults nothing ever drains, so
  enabling recovery changes no output byte;
* **dead-fleet accounting** — the moment every device is drained with
  no probe in flight, the whole queue is dropped as unserviceable with
  ``cause="fleet_drained"`` (not silently held until trace end), and
  the report surfaces drained device-seconds;
* **exhaustion is permanent** — a device that burns through
  ``max_attempts`` probes emits ``recovery_exhausted`` once and never
  probes again.

Also here: the ``powerlens-adaptive`` serving governor, which must be
byte-identical to static ``powerlens`` on zero-fault runs.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.faults import FaultProfile
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    ArrivalTrace,
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    Request,
    SchedulerConfig,
    SLOReport,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

MODEL = "small_cnn"

#: A storm that reliably drains (and re-drains) a tx2 pair: heavy
#: telemetry noise trips the anomaly budget, switch drops stress the
#: degradation ladder.
STORM = dict(telemetry_noise_std=0.8, switch_drop_rate=0.2)

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _run(seed: int, faults: FaultProfile = None,
         recovery: RecoveryConfig = None, governor: str = "powerlens",
         rate: float = 30.0, duration: float = 3.0):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("tx2-1", "tx2")],
                        governor=governor, fleet_seed=seed,
                        faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed,
                       slo_latency_s=math.inf)
    scheduler = FleetScheduler(fleet, SchedulerConfig(
        policy="fifo", queue_capacity=256, recovery=recovery))
    return scheduler.run(trace)


def _storm(seed: int = 3) -> FaultProfile:
    return FaultProfile(seed=seed, **STORM)


def _fast_recovery(**kwargs) -> RecoveryConfig:
    kwargs.setdefault("cooldown_s", 0.05)
    kwargs.setdefault("max_cooldown_s", 0.4)
    return RecoveryConfig(**kwargs)


def _kinds(result):
    from collections import Counter
    return Counter(e["event"] for e in result.events)


# ----------------------------------------------------------------------
# recovery recovers
# ----------------------------------------------------------------------
class TestRecoveryEffectiveness:
    def test_readmitted_fleet_completes_more(self):
        baseline = _run(3, faults=_storm())
        recovered = _run(3, faults=_storm(), recovery=_fast_recovery())
        assert baseline.report.conserved
        assert recovered.report.conserved
        assert baseline.report.dropped_unserviceable > 0
        assert (recovered.report.completed
                > baseline.report.completed)
        assert (recovered.report.dropped_unserviceable
                < baseline.report.dropped_unserviceable)
        kinds = _kinds(recovered)
        assert kinds["cooldown"] > 0
        assert kinds["probe"] > 0
        assert kinds["readmit"] > 0
        assert sum(d.readmissions
                   for d in recovered.report.devices) > 0

    def test_readmission_counters_and_metrics(self):
        result = _run(3, faults=_storm(), recovery=_fast_recovery())
        kinds = _kinds(result)
        counters = result.metrics
        assert counters.counter(
            "powerlens_serving_probes_total").value == kinds["probe"]
        assert counters.counter(
            "powerlens_serving_readmissions_total").value \
            == kinds["readmit"]
        assert counters.counter(
            "powerlens_serving_redrains_total").value \
            == kinds["redrain"]
        assert kinds["readmit"] \
            == sum(d.readmissions for d in result.report.devices)

    def test_probation_redrains_on_anomaly(self):
        result = _run(3, faults=_storm(), recovery=_fast_recovery())
        kinds = _kinds(result)
        assert kinds["redrain"] > 0
        # every redrain bumps the drain counter too
        assert result.report.conserved

    def test_backoff_grows_cooldown_delays(self):
        result = _run(3, faults=_storm(), recovery=_fast_recovery(
            probation_jobs=3))
        by_device = {}
        for e in result.events:
            if e["event"] == "cooldown":
                by_device.setdefault(e["device"], []).append(
                    e["probe_at"] - e["t"])
        assert by_device
        cfg = _fast_recovery(probation_jobs=3)
        for delays in by_device.values():
            for d in delays:
                assert d <= cfg.max_cooldown_s + 1e-12
                assert d >= cfg.cooldown_s - 1e-12


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestRecoveryDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(seed=_SEEDS)
    def test_recovery_replay_byte_identical(self, seed):
        faults = FaultProfile(seed=seed, **STORM)
        first = _run(seed, faults=faults, recovery=_fast_recovery(),
                     duration=1.0)
        second = _run(seed, faults=faults, recovery=_fast_recovery(),
                      duration=1.0)
        assert first.event_log() == second.event_log()
        assert first.report.fleet_energy_j \
            == second.report.fleet_energy_j
        assert first.report.to_dict() == second.report.to_dict()

    @settings(max_examples=6, deadline=None)
    @given(seed=_SEEDS)
    def test_zero_fault_recovery_is_invisible(self, seed):
        plain = _run(seed, duration=0.5)
        with_recovery = _run(seed, duration=0.5,
                             recovery=_fast_recovery())
        assert plain.event_log() == with_recovery.event_log()
        assert plain.report.fleet_energy_j \
            == with_recovery.report.fleet_energy_j

    def test_event_log_kinds_and_monotonic_times(self):
        result = _run(3, faults=_storm(), recovery=_fast_recovery())
        events = result.events
        assert [e["seq"] for e in events] == list(range(len(events)))
        times = [e["t"] for e in events]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert {e["event"] for e in events} <= {
            "admit", "dispatch", "complete", "drop", "drain",
            "cooldown", "probe", "probe_fail", "readmit", "redrain",
            "recover", "recovery_exhausted"}


# ----------------------------------------------------------------------
# dead-fleet accounting
# ----------------------------------------------------------------------
class TestDeadFleetAccounting:
    def test_fleet_drained_drops_are_immediate_and_tagged(self):
        result = _run(3, faults=_storm())  # no recovery: drains stick
        report = result.report
        assert report.dropped_unserviceable > 0
        drops = [e for e in result.events
                 if e["event"] == "drop"
                 and e["reason"] == "unserviceable"]
        assert drops
        assert {e["cause"] for e in drops} == {"fleet_drained"}
        # tagged drops happen when the last device drains, not at the
        # end of the trace
        last_drain_t = max(e["t"] for e in result.events
                           if e["event"] == "drain")
        trace_end = result.events[-1]["t"]
        assert any(e["t"] < trace_end for e in drops)
        assert all(e["t"] >= last_drain_t - 1e-12 for e in drops
                   if e["t"] < trace_end)

    def test_drained_device_seconds_surface(self):
        result = _run(3, faults=_storm())
        report = result.report
        assert report.drained_device_seconds > 0
        assert report.drained_device_seconds == pytest.approx(
            sum(d.drained_seconds for d in report.devices))
        assert "drained device-seconds" in report.format_table()
        assert result.metrics.gauge(
            "powerlens_serving_drained_device_seconds").value \
            == pytest.approx(report.drained_device_seconds)

    def test_still_drained_device_counts_until_the_run_ends(self):
        """Without recovery a drain never closes: the device is drained
        from its drain to the later of the last completion and the last
        arrival."""
        result = _run(3, faults=_storm())
        last_arrival = make_trace(
            "poisson", rate_rps=30.0, duration_s=3.0, models=[MODEL],
            seed=3, slo_latency_s=math.inf).requests[-1].t_arrival
        t_end = max(last_arrival, max(e["t"] for e in result.events
                                      if e["event"] == "complete"))
        for device in result.report.devices:
            drains = [e["t"] for e in result.events
                      if e["event"] == "drain"
                      and e["device"] == device.name]
            assert device.drained == bool(drains)
            expected = t_end - drains[0] if drains else 0.0
            assert device.drained_seconds == expected
        assert any(d.drained_seconds > 0 for d in result.report.devices)

    def test_drained_seconds_fold(self):
        """Drained intervals read off a hand-written log: a drain opens
        one, a redrain of an open interval does not restart it, a
        readmit closes it, and one still open closes at the run's end
        (here the last arrival, after the last completion)."""
        requests = (Request(0, 0.0, MODEL), Request(1, 3.0, MODEL))
        trace = ArrivalTrace(kind="poisson", seed=0, requests=requests,
                             duration_s=4.0)
        job = dict(device="d", duration=0.5, energy=2.0,
                   ledger_energy=2.0)
        log = [
            dict(event="admit", t=0.0, request_id=0),
            dict(event="dispatch", t=0.0, n_requests=1, **job),
            dict(event="complete", t=0.5, request_id=0, latency=0.5,
                 slo_ok=True),
            dict(event="drain", t=0.5, device="d"),
            dict(event="probe", t=1.0, **job),
            dict(event="readmit", t=1.5, device="d"),
            dict(event="redrain", t=2.0, device="d"),
            dict(event="redrain", t=2.5, device="d"),
            dict(event="admit", t=3.0, request_id=1),
            dict(event="drop", t=3.0, request_id=1,
                 reason="unserviceable"),
        ]
        device = SimpleNamespace(
            name="d", platform=SimpleNamespace(name="p"),
            plan_cache=SimpleNamespace(hits=0, misses=0), drained=True,
            recovery_state="drained", anomaly_count=3,
            governor_name="powerlens")
        report = SLOReport.from_run(log, policy="fifo", trace=trace,
                                    devices=[device],
                                    metrics=MetricsRegistry())
        (summary,) = report.devices
        assert summary.drained_seconds == 1.0 + 1.0
        assert summary.readmissions == 1
        assert (summary.jobs, summary.requests) == (2, 1)
        assert summary.busy_time_s == 1.0
        assert report.fleet_energy_j == 4.0
        assert report.makespan_s == 0.5
        assert report.conserved

    def test_arrivals_after_fleet_death_drop_immediately(self):
        result = _run(3, faults=_storm())
        dead_from = None
        for e in result.events:
            if e["event"] == "drain":
                dead_from = e["t"]  # last drain wins
        assert dead_from is not None
        post = [e for e in result.events if e["t"] > dead_from
                and e["event"] in ("complete", "dispatch")]
        assert not post


# ----------------------------------------------------------------------
# exhaustion
# ----------------------------------------------------------------------
class TestExhaustion:
    def test_exhausted_device_never_probes_again(self):
        result = _run(3, faults=_storm(),
                      recovery=_fast_recovery(max_attempts=1))
        events = result.events
        exhausted = [e for e in events
                     if e["event"] == "recovery_exhausted"]
        assert exhausted
        for e in exhausted:
            after = [x for x in events
                     if x["seq"] > e["seq"]
                     and x.get("device") == e["device"]
                     and x["event"] in ("cooldown", "probe",
                                        "readmit")]
            assert not after
        assert result.report.conserved

    def test_exhausted_states_in_report(self):
        result = _run(3, faults=_storm(),
                      recovery=_fast_recovery(max_attempts=1))
        states = {d.name: d.recovery_state
                  for d in result.report.devices}
        exhausted_devices = {e["device"] for e in result.events
                             if e["event"] == "recovery_exhausted"}
        for name in exhausted_devices:
            assert states[name] == "drained"


# ----------------------------------------------------------------------
# recovery config validation
# ----------------------------------------------------------------------
class TestRecoveryConfig:
    def test_backoff_schedule(self):
        cfg = RecoveryConfig(cooldown_s=0.5, backoff_factor=2.0,
                             max_cooldown_s=8.0)
        assert cfg.cooldown_after(0) == 0.5
        assert cfg.cooldown_after(1) == 1.0
        assert cfg.cooldown_after(3) == 4.0
        assert cfg.cooldown_after(10) == 8.0

    @pytest.mark.parametrize("bad", [
        dict(cooldown_s=0.0),
        dict(backoff_factor=0.5),
        dict(max_cooldown_s=0.1, cooldown_s=0.5),
        dict(probation_jobs=0),
        dict(max_attempts=0),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            RecoveryConfig(**bad)


# ----------------------------------------------------------------------
# powerlens-adaptive serving governor
# ----------------------------------------------------------------------
class TestAdaptiveServing:
    @settings(max_examples=6, deadline=None)
    @given(seed=_SEEDS)
    def test_zero_fault_adaptive_matches_static(self, seed):
        static = _run(seed, governor="powerlens", duration=0.5)
        adaptive = _run(seed, governor="powerlens-adaptive",
                        duration=0.5)
        assert static.event_log() == adaptive.event_log()
        assert static.report.fleet_energy_j \
            == adaptive.report.fleet_energy_j
        assert adaptive.report.governor == "powerlens-adaptive"

    def test_zero_fault_replans_are_all_none(self):
        result = _run(5, governor="powerlens-adaptive", duration=0.5)
        actions = {d.replan_action for d in result.dispatches}
        assert actions <= {"none", ""}
        assert result.report.completed > 0

"""Goldens of the bench scenarios' simulated outputs.

Every scenario the ``perf`` benches under ``benchmarks/`` time runs in
virtual time, so its joules, latencies, counts and gains are pure
functions of the seeds and sizes fixed below.  Those values are pinned
here in ``tests/goldens/<section>.json`` (canonical JSON plus sha256,
see :func:`tests.conftest.check_golden`); the benches keep only their
wall-clock floors.  The two heavy scenarios, a 100-network corpus and a
100k-request memo run, are pinned by their perf benches instead
(``datagen_scaling`` and ``serving_core_fastpath``).

Regenerate after an intended change with::

    pytest tests/test_bench_goldens.py --update-goldens
"""

import math

import pytest

from repro.experiments import run_adaptive_retention
from repro.hw.faults import FaultProfile
from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    RequestTracer,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn, check_golden

pytestmark = pytest.mark.serving

SERVE_SEED = 23
SERVE_RATE = 60.0
SERVE_DURATION = 2.0
POLICIES = ("fifo", "slo", "energy")
MODEL = "small_cnn"

STORM_SEED = 3
STORM_RATE = 30.0
STORM_DURATION = 3.0
STORM = dict(telemetry_noise_std=0.8, switch_drop_rate=0.2)
STORM_RECOVERY = RecoveryConfig(cooldown_s=0.05, max_cooldown_s=0.4)

RETENTION_SCALES = (0.0, 1.0, 2.0)


def _fleet(configs, seed, faults=None) -> Fleet:
    fleet = Fleet.build(configs, governor="powerlens", fleet_seed=seed,
                        faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    return fleet


def pair_scheduler(policy: str, traced: bool = False):
    """TX2 + AGX ``powerlens`` fleet and a seeded Poisson trace (60 rps
    for 2 s, 1 s SLO) under ``policy``; ``traced`` attaches a full-rate
    request tracer and a burn-rate monitor as sinks.  Returns
    ``(scheduler, trace, sinks)``, ready for ``scheduler.run(trace)``."""
    fleet = _fleet([DeviceConfig("tx2-0", "tx2"),
                    DeviceConfig("agx-1", "agx")], SERVE_SEED)
    trace = make_trace("poisson", rate_rps=SERVE_RATE,
                       duration_s=SERVE_DURATION, models=[MODEL],
                       seed=SERVE_SEED, slo_latency_s=1.0)
    sinks = []
    if traced:
        sinks = [RequestTracer(requests=trace.requests,
                               healthy_devices=len(fleet), policy=policy),
                 BurnRateMonitor(BurnRateConfig(fast_window_s=0.5,
                                                slow_window_s=2.0))]
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy=policy),
                               sinks=sinks)
    return scheduler, trace, sinks


def serve_prewarm():
    """Four TX2 boards, 60 rps for 1 s, every plan cache prewarmed."""
    fleet = _fleet([DeviceConfig(f"tx2-{i}", "tx2") for i in range(4)],
                   SERVE_SEED)
    trace = make_trace("poisson", rate_rps=SERVE_RATE,
                       duration_s=SERVE_DURATION / 2, models=[MODEL],
                       seed=SERVE_SEED)
    return FleetScheduler(fleet, SchedulerConfig()).run(trace)


def serve_storm(recovery):
    """Two TX2 boards under a telemetry-noise + dropped-switch storm,
    30 rps for 3 s, best-effort FIFO with a 256-deep queue."""
    fleet = _fleet([DeviceConfig("tx2-0", "tx2"),
                    DeviceConfig("tx2-1", "tx2")], STORM_SEED,
                   faults=FaultProfile(seed=STORM_SEED, **STORM))
    trace = make_trace("poisson", rate_rps=STORM_RATE,
                       duration_s=STORM_DURATION, models=[MODEL],
                       seed=STORM_SEED, slo_latency_s=math.inf)
    return FleetScheduler(fleet, SchedulerConfig(
        policy="fifo", queue_capacity=256, recovery=recovery)).run(trace)


def test_policy_sweep_golden(update_goldens):
    reports = {}
    for policy in POLICIES:
        scheduler, trace, _ = pair_scheduler(policy)
        reports[policy] = scheduler.run(trace).report
    data = {}
    for policy, report in reports.items():
        assert report.conserved and report.energy_reconciled
        assert report.completed > 0
        hits = sum(d.plan_cache_hits for d in report.devices)
        misses = sum(d.plan_cache_misses for d in report.devices)
        data[policy] = {
            "completed": report.completed,
            "dropped": report.dropped,
            "joules_per_request": report.joules_per_request,
            "latency_p50_s": report.latency_p50_s,
            "latency_p99_s": report.latency_p99_s,
            "makespan_s": report.makespan_s,
            "plan_cache_hit_rate": hits / (hits + misses),
        }
    # The energy policy never pays more J/request than FIFO on the
    # same trace (wider batches amortize overheads).
    assert (reports["energy"].joules_per_request
            <= reports["fifo"].joules_per_request * 1.05)
    check_golden("policy_sweep", data, update_goldens)


def test_prewarm_scaling_golden(update_goldens):
    serial = serve_prewarm()
    check_golden("prewarm_scaling", {
        "completed": serial.report.completed,
        "fleet_energy_j": serial.report.fleet_energy_j,
    }, update_goldens)


def test_request_trace_overhead_golden(update_goldens):
    plain_scheduler, plain_trace, _ = pair_scheduler("slo")
    plain = plain_scheduler.run(plain_trace)
    scheduler, trace, (tracer, _) = pair_scheduler("slo", traced=True)
    traced = scheduler.run(trace)
    # Sinks only read the log.
    assert plain.event_log() == traced.event_log()
    assert plain.report.to_dict() == traced.report.to_dict()
    assert tracer.sampled_count == traced.report.arrived
    check_golden("request_trace_overhead", {
        "requests_sampled": tracer.sampled_count,
        "completed": traced.report.completed,
    }, update_goldens)


def test_recovery_storm_golden(update_goldens):
    baseline = serve_storm(None).report
    recovered = serve_storm(STORM_RECOVERY).report
    assert baseline.conserved and recovered.conserved
    assert recovered.completed > baseline.completed
    readmissions = sum(d.readmissions for d in recovered.devices)
    assert readmissions > 0
    check_golden("recovery_storm", {
        "completed_no_recovery": baseline.completed,
        "completed_recovery": recovered.completed,
        "unserviceable_no_recovery": baseline.dropped_unserviceable,
        "unserviceable_recovery": recovered.dropped_unserviceable,
        "readmissions": readmissions,
        "drained_device_seconds_no_recovery":
            baseline.drained_device_seconds,
        "drained_device_seconds_recovery":
            recovered.drained_device_seconds,
        "fleet_energy_j": recovered.fleet_energy_j,
    }, update_goldens)


def test_retention_golden(update_goldens):
    result = run_adaptive_retention(scales=RETENTION_SCALES)
    assert result.anchor_identical
    assert result.anchor_gain() > 0
    scales = {}
    for i, scale in enumerate(result.scales):
        gains = {arm: result.gain(arm, i)
                 for arm in ("family", "adaptive", "static")}
        assert gains["family"] >= gains["adaptive"] > gains["static"]
        row = {f"gain_{arm}": gain for arm, gain in gains.items()}
        row.update({f"retention_{arm}": result.retention(arm, i)
                    for arm in gains})
        row["replan_adopted"] = result.replan[i]["adopted"]
        row["replan_rollbacks"] = result.replan[i]["rollbacks"]
        scales[f"{scale:g}"] = row
    check_golden("retention", {
        "build_batch": result.build_batch,
        "drift_batch": result.drift_batch,
        "anchor_gain": result.anchor_gain(),
        "scales": scales,
    }, update_goldens)

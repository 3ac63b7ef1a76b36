"""Benchmark: adaptive replanning retention and device recovery.

Two seeded scenarios record the self-healing layer's trajectory:

* **retention** — the drift sweep of
  :func:`repro.experiments.run_adaptive_retention`: how much of the
  zero-fault EE gain the adaptive vs. static runtime keeps at each
  fault scale (deterministic: regresses at tight tolerance), plus the
  wall-clock cost of the whole sweep;
* **recovery** — one fault storm served with and without the recovery
  state machine: completed/unserviceable counts, readmissions, and
  drained device-seconds (deterministic), plus simulation throughput.

Everything lands in ``BENCH_adaptive.json`` at the repo root, compared
in CI by ``powerlens bench-diff`` with per-key tolerances (virtual
quantities tight, wall-clock quantities loose).

Scale knobs:

* ``POWERLENS_BENCH_ADAPTIVE_SCALES``   — comma-separated fault scales
  for the retention sweep (default ``0,1,2``).
* ``POWERLENS_BENCH_RECOVERY_DURATION`` — storm trace horizon in s
  (default 3).
"""

import math
import os
import time
from pathlib import Path

import pytest

from repro.experiments import run_adaptive_retention
from repro.hw.faults import FaultProfile
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    SchedulerConfig,
    make_trace,
)
from benchmarks._harness import record
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.perf

SCALES = tuple(
    float(s) for s in os.environ.get(
        "POWERLENS_BENCH_ADAPTIVE_SCALES", "0,1,2").split(","))
RECOVERY_DURATION = float(
    os.environ.get("POWERLENS_BENCH_RECOVERY_DURATION", "3"))

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"

_SEED = 3
_MODEL = "small_cnn"


@pytest.mark.benchmark(group="adaptive")
def test_adaptive_retention_sweep(benchmark):
    """The drift sweep: correctness gates plus the recorded retention
    trajectory per fault scale."""
    t0 = time.perf_counter()
    result = benchmark.pedantic(
        lambda: run_adaptive_retention(scales=SCALES),
        rounds=1, iterations=1)
    wall_s = time.perf_counter() - t0

    assert result.anchor_identical
    assert result.anchor_gain() > 0
    payload = {
        "build_batch": result.build_batch,
        "drift_batch": result.drift_batch,
        # deterministic (tight bench-diff tolerance)
        "anchor_gain": round(result.anchor_gain(), 6),
        "scales": {},
        # wall-clock (loose tolerance)
        "wall_time_s": round(wall_s, 3),
    }
    print()
    print(f"  anchor gain over BiM: {result.anchor_gain() * 100:+.2f}%"
          f" (sweep took {wall_s:.2f}s host time)")
    for i, scale in enumerate(result.scales):
        gain_fm = result.gain("family", i)
        gain_ad = result.gain("adaptive", i)
        gain_st = result.gain("static", i)
        assert gain_fm >= gain_ad > gain_st
        payload["scales"][f"{scale:g}"] = {
            "gain_family": round(gain_fm, 6),
            "gain_adaptive": round(gain_ad, 6),
            "gain_static": round(gain_st, 6),
            "retention_family": round(result.retention("family", i), 6),
            "retention_adaptive": round(result.retention("adaptive", i), 6),
            "retention_static": round(result.retention("static", i), 6),
            "replan_adopted": result.replan[i]["adopted"],
            "replan_rollbacks": result.replan[i]["rollbacks"],
        }
        print(f"  scale {scale:g}: family {gain_fm * 100:+.2f}% vs "
              f"adaptive {gain_ad * 100:+.2f}% vs "
              f"static {gain_st * 100:+.2f}% over BiM")
    record(BENCH_JSON, "retention", payload)


@pytest.mark.benchmark(group="adaptive")
def test_recovery_storm(benchmark):
    """One fault storm with and without recovery: the retained service
    and its bookkeeping, recorded."""
    storm = dict(telemetry_noise_std=0.8, switch_drop_rate=0.2)

    def serve(recovery):
        fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                             DeviceConfig("tx2-1", "tx2")],
                            governor="powerlens", fleet_seed=_SEED,
                            faults=FaultProfile(seed=_SEED, **storm))
        fleet.add_graph(build_small_cnn(_MODEL))
        trace = make_trace("poisson", rate_rps=30.0,
                           duration_s=RECOVERY_DURATION,
                           models=[_MODEL], seed=_SEED,
                           slo_latency_s=math.inf)
        scheduler = FleetScheduler(fleet, SchedulerConfig(
            policy="fifo", queue_capacity=256, recovery=recovery))
        t0 = time.perf_counter()
        result = scheduler.run(trace)
        return result, time.perf_counter() - t0

    baseline, _ = serve(None)
    recovered, wall_s = benchmark.pedantic(
        lambda: serve(RecoveryConfig(cooldown_s=0.05,
                                     max_cooldown_s=0.4)),
        rounds=1, iterations=1)

    assert baseline.report.conserved
    assert recovered.report.conserved
    assert recovered.report.completed > baseline.report.completed
    readmissions = sum(d.readmissions
                       for d in recovered.report.devices)
    assert readmissions > 0
    print()
    print(f"  storm: {baseline.report.completed} served without "
          f"recovery, {recovered.report.completed} with "
          f"({readmissions} readmissions, "
          f"{recovered.report.drained_device_seconds:.2f} drained "
          f"device-seconds)")
    record(BENCH_JSON, "recovery_storm", {
        "rate_rps": 30.0,
        "duration_s": RECOVERY_DURATION,
        "seed": _SEED,
        # deterministic (tight bench-diff tolerance)
        "completed_no_recovery": baseline.report.completed,
        "completed_recovery": recovered.report.completed,
        "unserviceable_no_recovery":
            baseline.report.dropped_unserviceable,
        "unserviceable_recovery":
            recovered.report.dropped_unserviceable,
        "readmissions": readmissions,
        "drained_device_seconds_no_recovery":
            round(baseline.report.drained_device_seconds, 6),
        "drained_device_seconds_recovery":
            round(recovered.report.drained_device_seconds, 6),
        "fleet_energy_j": round(recovered.report.fleet_energy_j, 6),
        # wall-clock (loose tolerance)
        "wall_time_s": round(wall_s, 3),
    })

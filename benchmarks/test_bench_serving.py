"""Benchmark: fleet serving simulator throughput and efficiency.

One seeded Poisson scenario (TX2 + AGX, ``powerlens`` planner) is
served under each queueing policy; the run records

* scheduler throughput — wall-clock requests/s of the simulation loop
  itself (how much trace one host second buys),
* served efficiency — joules/request and latency percentiles inside
  the simulation (deterministic: these regress via ``bench-diff`` at
  tight tolerance),
* plan-cache effectiveness — hit rate across the fleet,
* the dispatch memo — a clean fleet served with and without it
  (byte-identical event logs, recorded speedup), then requests/s of one
  long static trace.

Everything lands in ``BENCH_serving.json`` at the repo root, compared
in CI by ``powerlens bench-diff`` with per-key tolerances (virtual
quantities tight, wall-clock quantities loose).

Scale knobs:

* ``POWERLENS_BENCH_SERVE_RATE``     — arrival rate in rps (default 60).
* ``POWERLENS_BENCH_SERVE_DURATION`` — trace horizon in s (default 2).
"""

import os
import time
from pathlib import Path

import pytest

from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)
from benchmarks._harness import record
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.perf

SERVE_RATE = float(os.environ.get("POWERLENS_BENCH_SERVE_RATE", "60"))
SERVE_DURATION = float(
    os.environ.get("POWERLENS_BENCH_SERVE_DURATION", "2"))

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

_SEED = 23
_MODEL = "small_cnn"
_POLICIES = ("fifo", "slo", "energy")


def _serve(policy: str):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor="powerlens", fleet_seed=_SEED)
    fleet.add_graph(build_small_cnn(_MODEL))
    trace = make_trace("poisson", rate_rps=SERVE_RATE,
                       duration_s=SERVE_DURATION, models=[_MODEL],
                       seed=_SEED, slo_latency_s=1.0)
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy=policy))
    t0 = time.perf_counter()
    result = scheduler.run(trace)
    return result, time.perf_counter() - t0


@pytest.mark.benchmark(group="serving")
def test_serving_policy_sweep(benchmark):
    """All policies over one trace: correctness gates plus the recorded
    perf/efficiency trajectory."""
    results = {}

    def sweep():
        return {policy: _serve(policy) for policy in _POLICIES}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    payload = {"rate_rps": SERVE_RATE, "duration_s": SERVE_DURATION,
               "seed": _SEED, "policies": {}}
    print()
    for policy, (result, wall_s) in results.items():
        report = result.report
        assert report.conserved
        assert report.energy_reconciled
        assert report.completed > 0
        hits = sum(d.plan_cache_hits for d in report.devices)
        misses = sum(d.plan_cache_misses for d in report.devices)
        payload["policies"][policy] = {
            # deterministic (tight bench-diff tolerance)
            "completed": report.completed,
            "dropped": report.dropped,
            "joules_per_request": round(report.joules_per_request, 6),
            "latency_p50_s": round(report.latency_p50_s, 6),
            "latency_p99_s": round(report.latency_p99_s, 6),
            "makespan_s": round(report.makespan_s, 6),
            "plan_cache_hit_rate": round(hits / (hits + misses), 4),
            # wall-clock (loose tolerance)
            "wall_time_s": round(wall_s, 3),
            "sim_requests_per_s": round(report.completed / wall_s, 1),
        }
        print(f"  {policy:>6s}: {report.completed} served in "
              f"{wall_s:.2f}s host time "
              f"({report.completed / wall_s:,.0f} req/s), "
              f"{report.joules_per_request:.3f} J/req, "
              f"p99 {report.latency_p99_s * 1000:.1f} ms")
    record(BENCH_JSON, "policy_sweep", payload)

    # The energy policy's whole point: it never pays more J/request
    # than FIFO on the same trace (wider batches amortize overheads).
    fifo = results["fifo"][0].report
    energy = results["energy"][0].report
    assert energy.joules_per_request <= fifo.joules_per_request * 1.05


@pytest.mark.benchmark(group="serving")
def test_serving_prewarm_scaling(benchmark):
    """Plan-cache prewarm across n_jobs: identical bytes out, recorded
    wall-time at 1 vs 4 workers."""
    def run(n_jobs):
        fleet = Fleet.build([DeviceConfig(f"tx2-{i}", "tx2")
                             for i in range(4)],
                            governor="powerlens", fleet_seed=_SEED)
        fleet.add_graph(build_small_cnn(_MODEL))
        trace = make_trace("poisson", rate_rps=SERVE_RATE,
                           duration_s=SERVE_DURATION / 2,
                           models=[_MODEL], seed=_SEED)
        scheduler = FleetScheduler(fleet, SchedulerConfig())
        t0 = time.perf_counter()
        result = scheduler.run(trace, n_jobs=n_jobs)
        return result, time.perf_counter() - t0

    serial, serial_s = run(1)
    pooled, pooled_s = benchmark.pedantic(
        lambda: run(4), rounds=1, iterations=1)

    assert serial.event_log() == pooled.event_log()
    assert serial.report.fleet_energy_j == pooled.report.fleet_energy_j
    print()
    print(f"  prewarm+serve: n_jobs=1 {serial_s:.2f}s, "
          f"n_jobs=4 {pooled_s:.2f}s (byte-identical output)")
    record(BENCH_JSON, "prewarm_scaling", {
        "n_devices": 4,
        "serial_wall_s": round(serial_s, 3),
        "pooled_wall_s": round(pooled_s, 3),
        "completed": serial.report.completed,
        "fleet_energy_j": round(serial.report.fleet_energy_j, 6),
    })


@pytest.mark.benchmark(group="serving")
def test_request_trace_overhead(benchmark):
    """Full-rate request tracing + burn monitoring on the scheduler
    loop: byte-identical output, recorded relative wall-clock cost."""
    from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
    from repro.serving import RequestTracer

    def run(traced: bool):
        fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                             DeviceConfig("agx-1", "agx")],
                            governor="powerlens", fleet_seed=_SEED)
        fleet.add_graph(build_small_cnn(_MODEL))
        trace = make_trace("poisson", rate_rps=SERVE_RATE,
                           duration_s=SERVE_DURATION, models=[_MODEL],
                           seed=_SEED, slo_latency_s=1.0)
        sinks = []
        if traced:
            sinks = [RequestTracer(requests=trace.requests,
                                   healthy_devices=len(fleet),
                                   policy="slo"),
                     BurnRateMonitor(BurnRateConfig(
                         fast_window_s=0.5, slow_window_s=2.0))]
        scheduler = FleetScheduler(
            fleet, SchedulerConfig(policy="slo"), sinks=sinks)
        t0 = time.perf_counter()
        result = scheduler.run(trace)
        return result, sinks, time.perf_counter() - t0

    plain, _, plain_s = run(False)
    traced, (tracer, _), traced_s = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1)

    # Sinks only read the log, re-checked at bench scale.
    assert plain.event_log() == traced.event_log()
    assert plain.report.to_dict() == traced.report.to_dict()
    assert tracer.sampled_count == traced.report.arrived

    overhead = traced_s / plain_s if plain_s > 0 else 1.0
    print()
    print(f"  request tracing: plain {plain_s:.2f}s, "
          f"traced {traced_s:.2f}s ({overhead:.2f}x, "
          f"{tracer.sampled_count} requests sampled)")
    record(BENCH_JSON, "request_trace_overhead", {
        "rate_rps": SERVE_RATE,
        "duration_s": SERVE_DURATION,
        # deterministic (tight bench-diff tolerance)
        "requests_sampled": tracer.sampled_count,
        "completed": traced.report.completed,
        # wall-clock (loose tolerance)
        "plain_wall_s": round(plain_s, 3),
        "traced_wall_s": round(traced_s, 3),
        "overhead_x": round(overhead, 2),
    })
    # Tracing every request should stay a modest fraction of the loop.
    assert overhead < 3.0, (
        f"request tracing overhead blew up: {overhead:.2f}x")


#: The clean fleet of the memo bench: two boards of each platform and
#: four Table-1 models, 8 images a request (the ``serve.steady`` shape).
_MEMO_PLATFORMS = ("tx2", "tx2", "agx", "agx")
_MEMO_MODELS = ("resnet18", "resnet34", "alexnet", "squeezenet1_1")
_MEMO_RATE = 12.0
#: Requests of the memo on/off comparison trace and of the long memo-on
#: trace (``serving_core_fastpath`` is defined at these sizes).
MEMO_COMPARE = 5000
MEMO_REQUESTS = 100_000


def _serve_static(n_requests: int, memo: bool):
    """Serve a seeded static Poisson trace of at least ``n_requests``
    requests (5% headroom on the expected count); ``memo=False``
    patches the dispatch memo off."""
    from repro.serving.fleet import SimulatedDevice

    with pytest.MonkeyPatch.context() as mp:
        if not memo:
            mp.setattr(SimulatedDevice, "_dispatch_is_static",
                       lambda self: False)
        fleet = Fleet.build(
            [DeviceConfig(f"{p}-{i}", p)
             for i, p in enumerate(_MEMO_PLATFORMS)],
            governor="powerlens", fleet_seed=_SEED)
    for model in _MEMO_MODELS:
        fleet.graph_for(model)
    trace = make_trace("poisson", rate_rps=_MEMO_RATE,
                       duration_s=1.05 * n_requests / _MEMO_RATE,
                       models=_MEMO_MODELS, seed=_SEED, slo_latency_s=1.0,
                       images_per_request=8)
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy="slo"))
    t0 = time.perf_counter()
    result = scheduler.run(trace)
    return result, fleet, time.perf_counter() - t0


@pytest.mark.benchmark(group="serving")
def test_serving_core_fastpath(benchmark):
    """Dispatch memo on a clean fleet: byte-identical event logs and
    >= 5x wall clock against the full path, then the memo-on
    requests/s of one long static trace."""
    memo_off, _, off_s = _serve_static(MEMO_COMPARE, memo=False)
    memo_on, _, on_s = _serve_static(MEMO_COMPARE, memo=True)
    assert memo_on.report.arrived >= MEMO_COMPARE
    assert memo_on.event_log() == memo_off.event_log()
    assert memo_on.report.to_dict() == memo_off.report.to_dict()
    speedup = off_s / on_s

    long_run, fleet, long_s = benchmark.pedantic(
        lambda: _serve_static(MEMO_REQUESTS, memo=True),
        rounds=1, iterations=1)
    report = long_run.report
    assert report.arrived >= MEMO_REQUESTS
    assert report.conserved and report.energy_reconciled
    hits = sum(d.memo_hits for d in fleet.devices)
    misses = sum(d.memo_misses for d in fleet.devices)
    print()
    print(f"  dispatch memo, {memo_on.report.arrived} requests: full path "
          f"{off_s:.2f}s, memo {on_s:.2f}s ({speedup:.1f}x)")
    print(f"  {report.arrived} requests: {report.completed} served in "
          f"{long_s:.2f}s ({report.completed / long_s:,.0f} req/s), "
          f"{hits} memo hits / {misses} misses")
    record(BENCH_JSON, "serving_core_fastpath", {
        "rate_rps": _MEMO_RATE,
        "seed": _SEED,
        # deterministic (tight bench-diff tolerance)
        "compare_requests": memo_on.report.arrived,
        "requests": report.arrived,
        "completed": report.completed,
        "memo_hits": hits,
        "memo_misses": misses,
        # wall-clock (loose tolerance)
        "memo_off_wall_s": round(off_s, 3),
        "memo_on_wall_s": round(on_s, 3),
        "speedup": round(speedup, 2),
        "served_wall_s": round(long_s, 3),
        "requests_per_s": round(report.completed / long_s, 1),
    })
    assert speedup >= 5.0, (
        f"dispatch memo regressed: {speedup:.2f}x < 5x")

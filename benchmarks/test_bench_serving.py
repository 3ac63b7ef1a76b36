"""Benchmark: fleet serving simulator throughput and efficiency.

One seeded Poisson scenario (TX2 + AGX, ``powerlens`` planner) is
served under each queueing policy; the run records

* scheduler throughput — wall-clock requests/s of the simulation loop
  itself (how much trace one host second buys),
* served efficiency — joules/request and latency percentiles inside
  the simulation (deterministic: these regress via ``bench-diff`` at
  tight tolerance),
* plan-cache effectiveness — hit rate across the fleet.

Everything lands in ``BENCH_serving.json`` at the repo root, compared
in CI by ``powerlens bench-diff`` with per-key tolerances (virtual
quantities tight, wall-clock quantities loose).

Scale knobs:

* ``POWERLENS_BENCH_SERVE_RATE``     — arrival rate in rps (default 60).
* ``POWERLENS_BENCH_SERVE_DURATION`` — trace horizon in s (default 2).
* ``POWERLENS_BENCH_SIM_RUNS``       — static fast-path repetitions
  (default 30).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.governors.static import StaticGovernor
from repro.hw import jetson_tx2
from repro.hw.simulator import InferenceJob, InferenceSimulator
from repro.models.random_gen import RandomDNNGenerator
from repro.obs.ledger import EnergyLedger
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.perf

SERVE_RATE = float(os.environ.get("POWERLENS_BENCH_SERVE_RATE", "60"))
SERVE_DURATION = float(
    os.environ.get("POWERLENS_BENCH_SERVE_DURATION", "2"))
SIM_RUNS = int(os.environ.get("POWERLENS_BENCH_SIM_RUNS", "30"))

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

_SEED = 23
_MODEL = "small_cnn"
_POLICIES = ("fifo", "slo", "energy")


def _record(section: str, payload: dict) -> None:
    """Read-modify-write one section of ``BENCH_serving.json``."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except (OSError, ValueError):
            data = {}
    payload = dict(payload)
    payload["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    payload["host_cpus"] = os.cpu_count()
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True)
                          + "\n")


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
    _record("policy_sweep", payload)

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
    _record("prewarm_scaling", {
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
    _record("request_trace_overhead", {
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


class _GenericStatic(StaticGovernor):
    """StaticGovernor without the fast-path marker: forces the retained
    per-segment reference loop for the comparison baseline."""
    supports_static_fast_path = False


@pytest.mark.benchmark(group="serving")
def test_static_sim_fastpath(benchmark):
    """Static-run segment integration vs the per-segment reference
    loop: byte-identical traces/samples/ledgers and >= 2x, measured
    fleet-style (fresh simulator per run, shared op-row cache)."""
    platform = jetson_tx2()
    graphs = [RandomDNNGenerator(seed=s).generate() for s in range(4)]
    jobs = [InferenceJob(graph=g, batch_size=16, n_batches=3)
            for g in graphs]

    def run_once(governor_cls, cache):
        sim = InferenceSimulator(platform, sample_period=0.02,
                                 op_row_cache=cache)
        return sim.run(jobs, governor_cls())

    # Correctness gate first: the fast path must be indistinguishable
    # from the reference loop, including the energy ledger.
    ref = run_once(_GenericStatic, None)
    fast = run_once(StaticGovernor, {})
    assert fast.trace.segments == ref.trace.segments
    assert fast.samples == ref.samples
    assert fast.report == ref.report
    assert fast.per_job == ref.per_job
    ref_ledger = EnergyLedger.from_result(ref)
    fast_ledger = EnergyLedger.from_result(fast)
    assert fast_ledger.reconciliation.energy_rel_err <= 1e-9
    assert fast_ledger.to_dict() == ref_ledger.to_dict()

    def time_runs(governor_cls, cache):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(SIM_RUNS):
                run_once(governor_cls, cache)
            best = min(best, time.perf_counter() - t0)
        return best

    ref_s = time_runs(_GenericStatic, None)
    shared_cache: dict = {}
    fast_s = benchmark.pedantic(
        lambda: time_runs(StaticGovernor, shared_cache),
        rounds=1, iterations=1)

    speedup = ref_s / fast_s
    print()
    print(f"  static sim, {len(jobs)} jobs x {SIM_RUNS} runs: "
          f"reference {ref_s:.2f}s, fast {fast_s:.2f}s "
          f"({speedup:.2f}x)")
    _record("static_sim_fastpath", {
        "n_jobs": len(jobs),
        "sim_runs": SIM_RUNS,
        "reference_wall_s": round(ref_s, 3),
        "fast_wall_s": round(fast_s, 3),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 2.0, (
        f"static sim fast path regressed: {speedup:.2f}x < 2x")

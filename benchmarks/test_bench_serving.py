"""Benchmark: serving-loop wall-clock floors.

* request tracing — full-rate request tracing plus burn-rate monitoring
  on the scheduler loop of the ``policy_sweep`` scenario: byte-identical
  output, and less than 3x the untraced wall clock;
* the dispatch memo — a clean fleet served with and without it
  (byte-identical event logs, >= 5x wall clock), then requests/s of one
  long static trace.

The scenarios' simulated outputs are goldens: the small ones are tier-1
tests (``tests/test_bench_goldens.py``), and the memo run's request and
memo counts are checked here against ``tests/goldens/
serving_core_fastpath.json`` (``--update-goldens`` rewrites it).
End-to-end serving throughput is measured by powerbench
(``benchmarks/powerbench``, workloads ``serve.steady`` and
``serve.faulty``).
"""

import time

import pytest

from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import check_golden
from tests.test_bench_goldens import pair_scheduler

pytestmark = pytest.mark.perf

_SEED = 23


@pytest.mark.benchmark(group="serving")
def test_request_trace_overhead(benchmark):
    """Full-rate request tracing + burn monitoring on the scheduler
    loop: byte-identical output, bounded relative wall-clock cost."""
    def run(traced: bool):
        scheduler, trace, sinks = pair_scheduler("slo", traced=traced)
        t0 = time.perf_counter()
        result = scheduler.run(trace)
        return result, sinks, time.perf_counter() - t0

    plain, _, plain_s = run(False)
    traced, (tracer, _), traced_s = benchmark.pedantic(
        lambda: run(True), rounds=1, iterations=1)

    assert plain.event_log() == traced.event_log()
    assert tracer.sampled_count == traced.report.arrived

    overhead = traced_s / plain_s if plain_s > 0 else 1.0
    print()
    print(f"  request tracing: plain {plain_s:.2f}s, "
          f"traced {traced_s:.2f}s ({overhead:.2f}x, "
          f"{tracer.sampled_count} requests sampled)")
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
def test_serving_core_fastpath(benchmark, update_goldens):
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
    check_golden("serving_core_fastpath", {
        "compare_requests": memo_on.report.arrived,
        "requests": report.arrived,
        "completed": report.completed,
        "memo_hits": hits,
        "memo_misses": misses,
    }, update_goldens)
    assert speedup >= 5.0, (
        f"dispatch memo regressed: {speedup:.2f}x < 5x")

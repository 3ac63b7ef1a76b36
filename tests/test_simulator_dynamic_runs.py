"""Dynamic simulator runs pinned at full precision.

``tests/goldens/static_runs.json`` compares floats at 10 significant
digits, which a last-ulp change slips under.  The runs here take every
dynamic path of :meth:`~repro.hw.simulator.InferenceSimulator.run` --
duration noise, reactive and preset governors, command and telemetry
faults, cap windows, thermal throttling, several (graph, batch,
sparsity) keys in one run -- and pin the ``repr`` of everything they
produce: each trace segment and telemetry sample, the reports, fault
stats, counts, the Prometheus text and the anomaly records.  ``repr``
of a float round-trips, so any one-ulp drift changes a digest.

Regenerate after an intended change with::

    pytest tests/test_simulator_dynamic_runs.py --update-goldens
"""

import hashlib
from collections import Counter

import repro.hw.simulator as simulator
from repro.governors import FrequencyPlan, PlanStep, PresetGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
from repro.hw.faults import CapWindow, FaultProfile
from repro.hw.perf import LatencyModel, sparse_works
from repro.hw.platform import jetson_agx_xavier
from repro.hw.power import PowerModel
from repro.hw.thermal import ThermalConfig
from repro.models.random_gen import RandomDNNConfig, RandomDNNGenerator
from repro.obs import MetricsRegistry, NULL_TRACER, Observability
from repro.obs.anomaly import AnomalyDetector
from tests.conftest import check_golden

FAULTS = FaultProfile(
    seed=5, switch_drop_rate=0.2, switch_partial_rate=0.1,
    switch_delay_rate=0.2, switch_delay_s=0.004,
    cap_windows=(CapWindow(0.02, 0.08, 3), CapWindow(0.15, 0.2, 1)),
    telemetry_drop_rate=0.1, telemetry_stuck_rate=0.1,
    telemetry_noise_std=0.05)

#: Heats a die past the throttle point within a few tens of ms.
HOT = ThermalConfig(c_th=0.05, t_throttle=32.0, t_release=30.0,
                    throttle_level=3)


def _graph(seed):
    return RandomDNNGenerator(RandomDNNConfig(), seed=seed).generate()


def _plan(graph, levels):
    """A plan stepping through ``levels`` at evenly spaced ops."""
    n_ops = len(graph.compute_nodes())
    stride = max(1, n_ops // len(levels))
    steps = [PlanStep(i * stride, level)
             for i, level in enumerate(levels) if i * stride < n_ops]
    return FrequencyPlan(graph_name=graph.name, steps=steps)


def _preset(graphs, levels, metrics):
    return PresetGovernor([_plan(g, levels) for g in graphs],
                          resilient=True, metrics=metrics)


def _sha(items) -> str:
    return hashlib.sha256(
        "\n".join(repr(item) for item in items).encode()).hexdigest()


def _run(platform, jobs, make_governor, **sim_kwargs) -> dict:
    metrics = MetricsRegistry()
    obs = Observability(tracer=NULL_TRACER, metrics=metrics)
    detector = AnomalyDetector()
    sim = InferenceSimulator(platform, sample_period=0.005, obs=obs,
                             anomaly=detector, **sim_kwargs)
    result = sim.run(jobs, make_governor(metrics))
    return {
        "segments": len(result.trace.segments),
        "samples": len(result.samples),
        "segments_sha": _sha(result.trace.segments),
        "samples_sha": _sha(result.samples),
        "report": repr(result.report),
        "per_job_sha": _sha(result.per_job),
        "fault_stats": repr(result.fault_stats),
        "switches": result.switch_count,
        "reversals": result.reversal_count,
        "peak_temperature": repr(result.peak_temperature),
        "throttle_time": repr(result.throttle_time),
        "prometheus_sha": _sha([metrics.to_prometheus_text()]),
        "anomalies": len(detector.anomalies),
        "anomalies_sha": _sha(detector.anomalies),
    }


def _mixed_jobs(seeds, batch=8, n_batches=2):
    return [InferenceJob(graph=_graph(s), batch_size=batch,
                         n_batches=n_batches) for s in seeds]


def _ondemand_noise():
    return _run(jetson_tx2(), _mixed_jobs((0, 1, 2)),
                lambda m: OndemandGovernor(), noise_std=0.02, seed=11)


def _preset_noise():
    jobs = _mixed_jobs((3, 4))
    graphs = [j.graph for j in jobs]
    return _run(jetson_agx_xavier(), jobs,
                lambda m: _preset(graphs, (9, 2, 12, 5), m),
                noise_std=0.02, seed=12)


def _faults():
    jobs = _mixed_jobs((5, 6), batch=4, n_batches=3)
    graphs = [j.graph for j in jobs]
    return _run(jetson_tx2(), jobs,
                lambda m: _preset(graphs, (10, 1, 7, 12, 3), m),
                noise_std=0.02, seed=13, faults=FAULTS)


def _thermal():
    return _run(jetson_agx_xavier(), _mixed_jobs((7, 0), batch=16),
                lambda m: OndemandGovernor(), noise_std=0.02, seed=14,
                thermal=HOT)


def _keys():
    """One graph at two batch sizes and three sparsities in one run,
    the keys interleaved so a table leaking between keys shows."""
    graph = _graph(2)
    jobs = [InferenceJob(graph=graph, batch_size=b, n_batches=2,
                         sparsity=s)
            for s in (0.0, 0.3, 0.6) for b in (4, 12)]
    jobs += jobs[::-1]
    return _run(jetson_tx2(), jobs,
                lambda m: _preset([graph], (8, 2, 11, 4), m),
                noise_std=0.02, seed=15)


CASES = {
    "ondemand_noise/tx2": _ondemand_noise,
    "preset_noise/agx": _preset_noise,
    "faults/tx2": _faults,
    "thermal/agx": _thermal,
    "keys/tx2": _keys,
}


def test_dynamic_runs_match_golden(update_goldens):
    data = {name: case() for name, case in CASES.items()}
    assert data["faults/tx2"]["fault_stats"] != "None"
    assert data["thermal/agx"]["throttle_time"] != "0.0"  # it throttled
    check_golden("simulator_dynamic_runs", data, update_goldens)


def test_op_costs_computed_once_per_key_op_level(monkeypatch):
    """Each distinct (graph, batch, sparsity, op, level) is timed and
    powered at most once per simulator, however many segments, batches
    and jobs revisit it."""
    timed = Counter()
    powered = []
    time_of = LatencyModel.time_of
    gpu_busy = PowerModel.gpu_busy

    def counted_time_of(self, work, freq, batch_size=1):
        timed[(work, freq, batch_size)] += 1
        return time_of(self, work, freq, batch_size)

    def counted_gpu_busy(self, freq, timing):
        powered.append(freq)
        return gpu_busy(self, freq, timing)

    monkeypatch.setattr(LatencyModel, "time_of", counted_time_of)
    monkeypatch.setattr(PowerModel, "gpu_busy", counted_gpu_busy)

    graphs = [_graph(0), _graph(1)]
    jobs = [InferenceJob(graph=g, batch_size=b, n_batches=3, sparsity=s)
            for s in (0.0, 0.5) for b in (2, 8) for g in graphs]
    jobs += jobs
    sim = InferenceSimulator(jetson_tx2(), sample_period=0.002,
                             noise_std=0.05, seed=3)
    result = sim.run(jobs, OndemandGovernor())

    # How many distinct (table key, op) pairs share each op's work, so
    # equal ops in different graphs may each be costed once.
    share = Counter()
    for graph, batch, sparsity in {(j.graph, j.batch_size, j.sparsity)
                                   for j in jobs}:
        works = sparse_works(sim.costs.latency.graph_work(graph),
                             sparsity)
        share.update((work, batch) for work in works)
    assert timed
    for (work, freq, batch), n in timed.items():
        assert n <= share[(work, batch)], (work.name, freq, batch, n)
    assert len(powered) == sum(timed.values())
    segments = [s for s in result.trace.segments if s.kind == "gpu_op"]
    assert len(segments) > 2 * len(powered)


def test_evicted_op_tables_refill_identically(monkeypatch):
    """A run whose op tables are evicted between jobs repeats the run
    that keeps them all, segment for segment."""
    import repro.hw.simulator as simulator

    graphs = [_graph(3), _graph(4)]
    jobs = [InferenceJob(graph=g, batch_size=b, n_batches=1)
            for b in (2, 6) for g in graphs] * 2

    def segments():
        sim = InferenceSimulator(jetson_tx2(), sample_period=0.005,
                                 noise_std=0.02, seed=7)
        result = sim.run(jobs, OndemandGovernor())
        return len(sim.costs._op_tables), _sha(result.trace.segments)

    n_kept, kept = segments()
    monkeypatch.setattr(simulator, "OP_TABLE_CACHE_SIZE", 1)
    n_evicted, evicted = segments()
    assert (n_kept, n_evicted) == (4, 1)
    assert evicted == kept

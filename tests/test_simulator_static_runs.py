"""Static simulator runs pinned to recorded outputs.

A *static* run has no duration noise, no thermal feedback and no fault
injector, under a governor that pins one level (or switches only from
its own hooks).  Such runs once took a separate integration loop; they
now go through the one per-segment loop of
:meth:`~repro.hw.simulator.InferenceSimulator.run`.  The fixture
``tests/goldens/static_runs.json`` was recorded while both loops
existed and agreed byte for byte, so these tests hold the one loop to
the outputs the deleted loop produced: trace segments, telemetry
samples, reports, metrics, anomaly records and the reconciled energy
ledger.  Floats are compared at the canonical 10 significant digits of
the other goldens; regenerate with ``--update-goldens``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.governors.static import StaticGovernor
from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
from repro.hw.platform import jetson_agx_xavier
from repro.models.random_gen import RandomDNNConfig, RandomDNNGenerator
from repro.obs import MetricsRegistry, NULL_TRACER, Observability
from repro.obs.anomaly import AnomalyDetector
from repro.obs.ledger import EnergyLedger

GOLDEN = Path(__file__).parent / "goldens" / "static_runs.json"

#: (graph seed, level, cpu policy, sample period, batch, sparsity):
#: covers every level form, host policy and sampling regime of the
#: static loop on both boards (odd seeds run on the TX2).
SINGLE_JOB_CASES = (
    (0, None, "ondemand", 0.02, 16, 0.0),
    (1, 0, "efficient", 0.005, 1, 0.0),
    (2, 2, "max", 0.1, 32, 0.0),
    (3, -1, "ondemand", 0.1, 7, 0.0),
    (4, -2, "efficient", 0.02, 24, 0.0),
    (5, None, "max", 0.005, 3, 0.0),
    (6, 0, "ondemand", 0.02, 12, 0.5),
    (7, 2, "efficient", 0.1, 16, 0.3),
    (9, -1, "max", 0.02, 2, 0.0),
    (10, -2, "ondemand", 0.005, 30, 0.0),
)


class SwitchingStatic(StaticGovernor):
    """A pinned-level governor that still switches from its hooks: the
    loop must honour every level a hook returns."""

    def on_job_start(self, job_idx, job):
        return 1 if job_idx % 2 == 0 else None

    def on_op_start(self, job_idx, op_idx, work):
        return 3 if op_idx == 2 else None

    def on_sample(self, sample):
        return 0 if sample.cpu_busy > 0.5 else None


#: Governors whose runs are pinned together with their metrics and
#: anomaly records.
OBSERVED = {"static": StaticGovernor, "switching": SwitchingStatic}


def _graph(seed):
    return RandomDNNGenerator(RandomDNNConfig(), seed=seed).generate()


def _canon(value):
    """The goldens' canonical form: floats at 10 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _digest(items) -> str:
    # Trace segments and telemetry samples are NamedTuples.
    rows = [_canon(tuple(item)) for item in items]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _summary(result) -> dict:
    ledger = EnergyLedger.from_result(result)
    assert ledger.reconciliation.energy_rel_err <= 1e-9
    return _canon({
        "segments": len(result.trace.segments),
        "samples": len(result.samples),
        "segments_sha": _digest(result.trace.segments),
        "samples_sha": _digest(result.samples),
        "switches": result.switch_count,
        "reversals": result.reversal_count,
        "report": dataclasses.asdict(result.report),
        "per_job": [dataclasses.asdict(r) for r in result.per_job],
        "ledger_energy_j": ledger.total_energy_j,
    })


def _single_job(seed, level, cpu_policy, sample_period, batch, sparsity):
    platform = jetson_tx2() if seed % 2 else jetson_agx_xavier()
    job = InferenceJob(graph=_graph(seed % 8), batch_size=batch,
                       n_batches=2, sparsity=sparsity)
    sim = InferenceSimulator(platform, sample_period=sample_period,
                             seed=seed)
    return _summary(sim.run([job],
                            StaticGovernor(level, cpu_policy=cpu_policy)))


def _multi_job():
    jobs = [InferenceJob(graph=_graph(s), batch_size=16, n_batches=3)
            for s in range(4)]
    sim = InferenceSimulator(jetson_tx2(), sample_period=0.02)
    return _summary(sim.run(jobs, StaticGovernor()))


def _switching():
    jobs = [InferenceJob(graph=_graph(s), batch_size=8, n_batches=2)
            for s in range(3)]
    sim = InferenceSimulator(jetson_tx2(), sample_period=0.01)
    return _summary(sim.run(jobs, SwitchingStatic()))


def _observed(governor_cls):
    jobs = [InferenceJob(graph=_graph(s), batch_size=8, n_batches=2)
            for s in range(2)]
    obs = Observability(tracer=NULL_TRACER, metrics=MetricsRegistry())
    detector = AnomalyDetector()
    result = InferenceSimulator(jetson_tx2(), sample_period=0.01, obs=obs,
                                anomaly=detector).run(jobs, governor_cls())
    summary = _summary(result)
    summary["metrics"] = _canon(obs.metrics.to_dict())
    summary["anomalies"] = [_canon(dataclasses.astuple(a))
                            for a in detector.anomalies]
    return summary


@pytest.fixture(scope="module")
def golden(update_goldens):
    if update_goldens:
        cases = {
            f"single/{i}": _single_job(*case)
            for i, case in enumerate(SINGLE_JOB_CASES)
        }
        cases["multi_job"] = _multi_job()
        cases["switching"] = _switching()
        for name, governor_cls in OBSERVED.items():
            cases[f"observed/{name}"] = _observed(governor_cls)
        GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True)
                          + "\n")
    assert GOLDEN.exists(), (
        f"{GOLDEN} missing; generate it with "
        f"pytest {Path(__file__).name} --update-goldens")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(SINGLE_JOB_CASES)))
def test_single_job_static_runs_match_golden(golden, index):
    assert _single_job(*SINGLE_JOB_CASES[index]) \
        == golden[f"single/{index}"]


def test_multi_job_static_run_matches_golden(golden):
    assert _multi_job() == golden["multi_job"]


def test_hook_switches_match_golden(golden):
    summary = _switching()
    assert summary["switches"] > 0  # the hooks actually fired
    assert summary == golden["switching"]


@pytest.mark.parametrize("name", OBSERVED)
def test_metrics_and_anomalies_match_golden(golden, name):
    assert _observed(OBSERVED[name]) == golden[f"observed/{name}"]

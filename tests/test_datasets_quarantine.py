"""Offline-pipeline resilience: transient labeling-worker failures are
retried with fresh spawned seeds, persistent failures are quarantined
(never aborting the run), and the resulting datasets and quarantine
bookkeeping are identical at any worker count."""

import pytest

from repro.core.datasets import (
    MAX_TASK_RETRIES,
    DatasetGenerator,
    GenerationStats,
)
from repro.core.pipeline import TrainingSummary
from repro.hw import jetson_tx2
from repro.hw.faults import FaultProfile, worker_fault
from repro.models.random_gen import RandomDNNConfig

pytestmark = pytest.mark.faults

_SMALL = RandomDNNConfig(min_stages=1, max_stages=2, max_blocks_per_stage=2)


def _generator(profile):
    return DatasetGenerator(jetson_tx2(), dnn_config=_SMALL,
                            faults=profile)


def _expected_outcome(profile, n_networks):
    """Replay the pure worker-fault function: which tasks retry, which
    are quarantined."""
    retries = 0
    quarantined = []
    for index in range(n_networks):
        attempts = [worker_fault(profile, index, attempt)
                    for attempt in range(MAX_TASK_RETRIES + 1)]
        failed_prefix = 0
        for fault in attempts:
            if not fault:
                break
            failed_prefix += 1
        retries += min(failed_prefix, MAX_TASK_RETRIES)
        if failed_prefix == MAX_TASK_RETRIES + 1:
            quarantined.append(index)
    return retries, quarantined


def test_transient_failures_retry_and_complete():
    """A flaky worker pool must not abort generation, and the stats
    must match a pure replay of the deterministic fault pattern."""
    profile = FaultProfile(seed=3, worker_failure_rate=0.5)
    n = 8
    expected_retries, expected_quarantined = _expected_outcome(profile, n)
    # The chosen seed exercises both outcomes at once.
    assert expected_retries > 0
    dataset_a, dataset_b, stats = _generator(profile).generate(n, seed=9)
    assert stats.n_retries == expected_retries
    assert stats.quarantined == expected_quarantined
    assert stats.n_networks == n - len(expected_quarantined)
    assert len(dataset_a) == stats.n_networks


def test_all_quarantined_raises():
    profile = FaultProfile(worker_failure_rate=1.0)
    with pytest.raises(RuntimeError, match="quarantin"):
        _generator(profile).generate(3, seed=0)


def test_quarantine_identical_serial_vs_pooled():
    """Process-pool scheduling cannot change which tasks fail, retry or
    land in quarantine — datasets stay byte-identical at any n_jobs."""
    profile = FaultProfile(seed=7, worker_failure_rate=0.6)
    n = 6
    serial = _generator(profile).generate(n, seed=4, n_jobs=1)
    pooled = _generator(profile).generate(n, seed=4, n_jobs=2)
    a0, b0, s0 = serial
    a1, b1, s1 = pooled
    assert s0.n_retries == s1.n_retries
    assert s0.quarantined == s1.quarantined
    for x, y in ((a0.x_struct, a1.x_struct), (a0.x_stats, a1.x_stats),
                 (a0.y, a1.y), (b0.x, b1.x), (b0.y, b1.y)):
        assert x.tobytes() == y.tobytes()


def test_quarantined_networks_never_reach_datasets():
    profile = FaultProfile(seed=3, worker_failure_rate=0.5)
    n = 8
    _, quarantined = _expected_outcome(profile, n)
    assert quarantined  # seed chosen so at least one network is dropped
    clean_a, clean_b, _ = _generator(None).generate(n, seed=9)
    faulty_a, faulty_b, stats = _generator(profile).generate(n, seed=9)
    assert stats.quarantined == quarantined
    assert len(faulty_a) == n - len(quarantined)
    # Networks the fault layer never touched keep their clean rows —
    # a neighbour's retry or quarantine cannot perturb their data.
    # (Retried networks are respawned from a fresh seed, so their rows
    # legitimately differ from the clean run.)
    survivors = [i for i in range(n) if i not in quarantined]
    untouched = [i for i in range(n)
                 if not worker_fault(profile, i, 0)]
    assert untouched
    for index in untouched:
        row = survivors.index(index)
        assert faulty_a.x_struct[row].tobytes() == \
            clean_a.x_struct[index].tobytes()
        assert faulty_a.y[row] == clean_a.y[index]


def test_quarantine_surfaces_in_training_summary(fitted_lens):
    """The fit summary line carries quarantine/retry counts whenever
    they are non-zero (the CLI prints this summary)."""
    healthy = fitted_lens.training_summary
    assert "quarantined" not in healthy.format()
    degraded = TrainingSummary(
        hyperparam_report=healthy.hyperparam_report,
        decision_report=healthy.decision_report,
        generation=GenerationStats(n_networks=23, n_blocks=50,
                                   n_retries=4, quarantined=[2, 19]),
    )
    assert "[2 quarantined, 4 retries]" in degraded.format()

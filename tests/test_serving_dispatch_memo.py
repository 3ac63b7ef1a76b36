"""The per-device dispatch memo (``repro.serving.fleet``).

The contract under test: on a static device (no noise, no faults, a
non-adaptive governor) replaying a recorded dispatch is invisible —
the canonical event log, the SLO report, the merged metrics' Prometheus
text and the dispatch records are byte-identical to the un-memoized
path, and ledger totals agree well inside 1e-9.  The memo is turned
off by patching the device's static-dispatch predicate, and *forcing*
it on where it does not apply must show up in the outputs, which is
what proves the equivalence check can catch a wrong predicate.

Also here: anomalies emitted past ``repro.obs.anomaly.MAX_RECORDS``
still count towards device health.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs.anomaly as anomaly
import repro.serving.fleet as fleet_mod
from repro.hw.faults import FaultProfile
from repro.hw.simulator import InferenceJob
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    SchedulerConfig,
    make_trace,
)
from repro.serving.fleet import SERVING_GOVERNORS, SimulatedDevice
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

MODEL = "small_cnn"
ADAPTIVE = ("powerlens-adaptive", "powerlens-family-adaptive")
STATIC_GOVERNORS = [g for g in SERVING_GOVERNORS if g not in ADAPTIVE]
SPARSITIES = (0.0, 0.3, 0.6)


@pytest.fixture
def always_anomalous(monkeypatch):
    """Shrink the stall budget until every successful switch overruns
    it, so every run of the preset governor emits a ``stall_budget``
    anomaly — on a device that is otherwise static."""
    monkeypatch.setattr(anomaly, "STALL_BUDGET_FRAC", 1e-9)
    return monkeypatch


@contextmanager
def _memo(enabled: Optional[bool]):
    """Force the static-dispatch predicate for fleets built inside."""
    with pytest.MonkeyPatch.context() as mp:
        if enabled is not None:
            mp.setattr(SimulatedDevice, "_dispatch_is_static",
                       lambda self: enabled)
        yield


def _run(seed: int, governor: str = "powerlens", policy: str = "fifo",
         sparsity: float = 0.0, recovery: bool = False,
         noise_std: float = 0.0, faults: FaultProfile = None,
         memo=None, rate: float = 40.0, duration: float = 0.5,
         sparsities=None):
    """One fresh fleet + scheduler + trace; ``memo`` None keeps the
    device's own predicate, True/False forces it.  Requests draw their
    sparsity from ``sparsities`` (default: just ``sparsity``)."""
    with _memo(memo):
        fleet = Fleet.build(
            [DeviceConfig("tx2-0", "tx2", noise_std=noise_std),
             DeviceConfig("agx-1", "agx", noise_std=noise_std)],
            governor=governor, fleet_seed=seed, faults=faults,
            sparsity_edges=SPARSITIES)
    fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed, slo_latency_s=0.5,
                       sparsity_choices=sparsities or (sparsity,))
    config = SchedulerConfig(
        policy=policy,
        recovery=RecoveryConfig(cooldown_s=0.05) if recovery else None)
    result = FleetScheduler(fleet, config).run(trace)
    return result, fleet


def _hits(fleet: Fleet) -> int:
    return sum(d.memo_hits for d in fleet.devices)


def _assert_identical(memo_on, memo_off) -> None:
    assert memo_on.event_log() == memo_off.event_log()
    assert memo_on.report.to_dict() == memo_off.report.to_dict()
    assert memo_on.metrics.to_prometheus_text() == \
        memo_off.metrics.to_prometheus_text()
    assert memo_on.dispatches == memo_off.dispatches
    for a, b in zip(memo_on.report.devices, memo_off.report.devices):
        assert abs(a.ledger_energy_j - b.ledger_energy_j) <= \
            1e-9 * max(1.0, abs(b.ledger_energy_j))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       governor=st.sampled_from(STATIC_GOVERNORS),
       policy=st.sampled_from(["fifo", "slo", "energy"]),
       sparsity=st.sampled_from(SPARSITIES),
       recovery=st.booleans())
def test_memo_is_invisible_on_static_fleets(seed, governor, policy,
                                             sparsity, recovery):
    kwargs = dict(governor=governor, policy=policy, sparsity=sparsity,
                  recovery=recovery)
    memo_on, fleet = _run(seed, **kwargs)
    memo_off, _ = _run(seed, memo=False, **kwargs)
    _assert_identical(memo_on, memo_off)
    assert all(d._memo is not None for d in fleet.devices)


@pytest.mark.parametrize("governor", STATIC_GOVERNORS)
def test_memo_hits_on_a_steady_trace(governor):
    """The memo engages for every static governor: a trace that repeats
    one request shape is served mostly from lookups, unchanged (the
    report equality includes the plan-cache hit counts, so plan
    selection still runs on every dispatch)."""
    memo_on, fleet = _run(5, governor=governor, rate=60.0, duration=2.0)
    memo_off, _ = _run(5, governor=governor, rate=60.0, duration=2.0,
                       memo=False)
    _assert_identical(memo_on, memo_off)
    misses = sum(d.memo_misses for d in fleet.devices)
    assert _hits(fleet) > misses > 0


def test_memo_is_invisible_when_requests_span_every_bucket():
    """A family fleet whose requests span every sparsity bucket
    alternates the dense and the sparse plans on each device: each
    plan's dispatches replay from the memo, and the outputs stay
    identical to the full path."""
    kwargs = dict(governor="powerlens-family", policy="energy",
                  sparsities=SPARSITIES, rate=80.0, duration=2.0)
    memo_on, fleet = _run(7, **kwargs)
    memo_off, _ = _run(7, memo=False, **kwargs)
    _assert_identical(memo_on, memo_off)
    for device in fleet.devices:
        assert device.memo_hits > 0


@pytest.mark.parametrize("case", [
    dict(noise_std=0.02),
    dict(faults=FaultProfile(seed=1, switch_drop_rate=0.1)),
    dict(governor="powerlens-adaptive"),
    dict(governor="powerlens-family-adaptive"),
])
def test_non_static_fleets_never_hit(case):
    result, fleet = _run(9, **case)
    assert result.report.completed > 0
    assert all(d._memo is None for d in fleet.devices)
    assert _hits(fleet) == 0
    assert sum(d.memo_misses for d in fleet.devices) == 0


def test_forcing_the_memo_on_a_noisy_adaptive_fleet_diverges():
    """A wrong predicate is caught: replaying noisy, adaptive dispatches
    changes the event log (durations repeat instead of varying)."""
    kwargs = dict(governor="powerlens-family-adaptive", noise_std=0.02,
                  rate=60.0, duration=2.0)
    forced, fleet = _run(11, memo=True, **kwargs)
    honest, _ = _run(11, **kwargs)
    assert _hits(fleet) > 0
    assert forced.event_log() != honest.event_log()


def _anomalous_device(monkeypatch) -> SimulatedDevice:
    """A static device whose every dispatch is anomalous (with
    ``always_anomalous``) and which the drain budget never trips, so
    execute() can be called directly."""
    monkeypatch.setattr(fleet_mod, "UNHEALTHY_AFTER", 10**6)
    return SimulatedDevice(DeviceConfig("tx2-0", "tx2"), "powerlens")


def test_anomalous_runs_are_never_memoized(always_anomalous):
    device = _anomalous_device(always_anomalous)
    job = InferenceJob(graph=build_small_cnn(MODEL), batch_size=4)
    records = [device.execute(job, seq) for seq in range(4)]
    assert all(r.new_anomalies > 0 for r in records)
    assert device.memo_hits == 0 and device.memo_misses == 4
    assert not device._memo


def test_anomalies_past_max_records_still_count(always_anomalous):
    """Regression: with the retained list full, new anomalies only bump
    ``dropped`` — they must still reach the device's health count."""
    always_anomalous.setattr(anomaly, "MAX_RECORDS", 1)
    device = _anomalous_device(always_anomalous)
    job = InferenceJob(graph=build_small_cnn(MODEL), batch_size=4)
    first = device.execute(job, 0)
    second = device.execute(job, 1)
    assert len(device.anomaly.anomalies) == 1
    assert first.new_anomalies > 0 and second.new_anomalies > 0
    assert device.anomaly_count == device.anomaly.emitted


def test_anomaly_past_max_records_re_drains(always_anomalous):
    """Scheduler view of the same regression: the probe after a drain
    is the device's second anomalous dispatch, so it must fail and the
    device must never be re-admitted."""
    always_anomalous.setattr(anomaly, "MAX_RECORDS", 1)
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2")], "powerlens")
    fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=20.0, duration_s=2.0,
                       models=[MODEL], seed=4, slo_latency_s=math.inf)
    result = FleetScheduler(fleet, SchedulerConfig(
        queue_capacity=256,
        recovery=RecoveryConfig(cooldown_s=0.05, max_attempts=2),
    )).run(trace)
    kinds = [e["event"] for e in result.events]
    assert "drain" in kinds
    assert "probe_fail" in kinds
    assert "readmit" not in kinds
    assert result.report.conserved

"""Cross-governor / cross-policy conformance of the serving layer.

Every governor the registry knows (plus the preset ``powerlens``
planner) must serve the same trace through every queueing policy with:

* request conservation,
* ledger-reconciled energy — the fleet total equals the summed
  per-device :class:`~repro.obs.ledger.EnergyLedger` attributions
  within ``RECONCILIATION_TOLERANCE`` (1e-9 relative), and every
  individual dispatch reconciled too,
* the drain invariant: once a device crosses its anomaly threshold the
  scheduler never routes another job to it.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.ledger import RECONCILIATION_TOLERANCE
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SERVING_GOVERNORS,
    SLOReport,
    SchedulerConfig,
    make_policy,
    make_trace,
)
from repro.serving.arrivals import Request
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

MODEL = "small_cnn"
POLICIES = ("fifo", "slo", "energy")


def _serve(governor: str, policy: str, seed: int = 11, rate: float = 30.0,
           duration: float = 0.5, configs=None, fleet=None,
           slo: float = math.inf):
    if fleet is None:
        configs = configs or [DeviceConfig("tx2-0", "tx2"),
                              DeviceConfig("agx-1", "agx")]
        fleet = Fleet.build(configs, governor=governor, fleet_seed=seed)
        fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed, slo_latency_s=slo)
    return FleetScheduler(fleet, SchedulerConfig(policy=policy)).run(trace)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("governor", SERVING_GOVERNORS)
def test_governor_policy_matrix(governor, policy):
    """The full matrix: conservation + ledger reconciliation for every
    governor under every policy."""
    result = _serve(governor, policy)
    report = result.report
    assert report.completed > 0
    assert report.governor == governor
    assert report.policy == make_policy(policy).name
    assert report.conserved
    assert report.energy_reconciled, (
        f"{governor}/{policy}: ledger drift "
        f"{report.energy_rel_err:.3e} > {RECONCILIATION_TOLERANCE:.0e}")
    # Reconciliation holds dispatch-by-dispatch, not just in aggregate.
    assert result.dispatches
    assert all(r.ledger_ok for r in result.dispatches)
    # The report's fleet total really is the sum of device ledgers.
    ledger_sum = math.fsum(d.ledger_energy_j for d in report.devices)
    assert report.ledger_energy_j == ledger_sum


def _drain_after_first_job(device):
    """Force one anomaly onto ``device`` after its first completed job,
    through the same counter the real detector feeds."""
    original = device.execute

    def execute(job, dispatch_seq):
        record = original(job, dispatch_seq)
        if device.anomaly_count == 0:
            device.anomaly_count += 1
            record.new_anomalies += 1
        return record

    device.execute = execute


def test_drain_never_routes_after_anomaly_flag():
    """After a device's drain event, no dispatch event names it."""
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor="powerlens", fleet_seed=3)
    fleet.add_graph(build_small_cnn(MODEL))
    _drain_after_first_job(fleet.devices[0])
    result = _serve("powerlens", "fifo", seed=3, rate=60.0,
                    duration=0.8, fleet=fleet)

    drained = [e for e in result.events if e["event"] == "drain"]
    assert [e["device"] for e in drained] == ["tx2-0"]
    assert fleet.devices[0].drained and not fleet.devices[1].drained
    drain_seq = drained[0]["seq"]
    late_dispatches = [e for e in result.events
                       if e["event"] == "dispatch"
                       and e["seq"] > drain_seq]
    assert late_dispatches, "trace ended before the drain mattered"
    assert all(e["device"] != "tx2-0" for e in late_dispatches)
    assert result.report.conserved
    assert result.metrics.counter(
        "powerlens_serving_drains_total").value == 1


def test_whole_fleet_drained_drops_unserviceable():
    """With every device drained, queued requests are accounted as
    ``unserviceable`` — never silently lost."""
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2")],
                        governor="powerlens", fleet_seed=9)
    fleet.add_graph(build_small_cnn(MODEL))
    _drain_after_first_job(fleet.devices[0])
    result = _serve("powerlens", "fifo", seed=9, rate=50.0,
                    duration=0.5, fleet=fleet)
    report = result.report
    assert fleet.devices[0].drained
    assert report.dropped_unserviceable > 0
    assert report.conserved
    assert report.arrived == (report.completed + report.dropped)


def test_expired_requests_drop_before_dispatch():
    """An SLO shorter than any possible service time expires whatever
    queues behind the first batch; conservation still holds."""
    result = _serve("powerlens", "slo", seed=4, rate=80.0,
                    duration=0.4, slo=1e-3)
    report = result.report
    assert report.dropped_expired > 0
    assert report.conserved
    drop_events = [e for e in result.events if e["event"] == "drop"]
    assert all(e["reason"] in ("expired", "queue_full", "unserviceable")
               for e in drop_events)


def test_unconserved_run_raises(monkeypatch):
    """A run whose report does not account for every request raises
    with the report's counts instead of returning."""
    monkeypatch.setattr(SLOReport, "conserved", property(lambda self: False))
    with pytest.raises(RuntimeError, match=r"lost requests: arrived=\d+, "
                       r"admitted=\d+, completed=\d+, dropped_queue_full=0, "
                       r"dropped_expired=0, dropped_unserviceable=0$"):
        _serve("powerlens", "fifo")


# ---------------------------------------------------------------------------
# queueing-policy unit conformance
# ---------------------------------------------------------------------------

def _req(i, t, model="m", images=8, slo=math.inf):
    return Request(request_id=i, t_arrival=t, model=model, images=images,
                   slo_latency_s=slo)


def test_fifo_policy_picks_oldest_anchor():
    # Queue order is arrival order in the scheduler; FIFO anchors on
    # the oldest request and fills with the next arrivals of its key.
    queue = [_req(0, 0.1), _req(1, 0.2), _req(2, 0.3)]
    picked = make_policy("fifo").select_batch(queue, 1.0, max_batch=2)
    assert [queue[i].request_id for i in picked] == [0, 1]


def test_deadline_policy_picks_tightest_deadline():
    queue = [_req(0, 0.0, slo=9.0), _req(1, 0.2, slo=0.5),
             _req(2, 0.1, slo=5.0)]
    picked = make_policy("slo").select_batch(queue, 0.3, max_batch=1)
    assert [queue[i].request_id for i in picked] == [1]


def test_energy_policy_prefers_fullest_batch():
    queue = [_req(0, 0.0, model="a"), _req(1, 0.1, model="b"),
             _req(2, 0.2, model="b"), _req(3, 0.3, model="b")]
    picked = make_policy("energy").select_batch(queue, 1.0, max_batch=4)
    assert {queue[i].model for i in picked} == {"b"}
    assert len(picked) == 3


def test_policies_never_mix_batch_keys():
    queue = [_req(0, 0.0, model="a", images=8),
             _req(1, 0.1, model="a", images=16),
             _req(2, 0.2, model="a", images=8)]
    for name in POLICIES:
        picked = make_policy(name).select_batch(queue, 1.0, max_batch=4)
        keys = {queue[i].batch_key for i in picked}
        assert len(keys) == 1, f"{name} mixed {keys} in one batch"

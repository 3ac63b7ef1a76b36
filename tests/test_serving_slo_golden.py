"""Golden-regression fixtures for the serving SLO report.

Two fixed 2-device (TX2 + AGX) Poisson scenarios under the ``slo``
policy are pinned byte-for-byte via the same
:func:`repro.experiments.export.canonical_json` path as the Table-1/2
goldens, each together with the sha256 of its canonical event log:

* ``serving_slo`` — the dense ``powerlens`` planner on a clean fleet;
* ``serving_slo_family_adaptive`` — ``powerlens-family-adaptive`` with
  sparsity buckets ``(0.0, 0.3, 0.6)`` on a noisy fleet that drops DVFS
  commands, serving a trace that draws request sparsities.  Every
  dispatch event carries the executed plan's fingerprint and sparsity
  bucket, so the event-log hash pins which plan-family member each
  dispatch ran (a correction written back to the wrong bucket would
  move it too).

Any change to the arrival generators, queueing policies, scheduler
event loop, analytic planner, plan store, governors, simulator, or
ledger that moves a reported number past the canonical 10-significant-
digit rounding, or any event-log byte, lands here as a fixture diff —
regenerate deliberately with::

    pytest tests/test_serving_slo_golden.py --update-goldens
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments.export import canonical_json, to_records
from repro.hw.faults import FaultProfile
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

GOLDEN_DIR = Path(__file__).parent / "goldens"

_SEED = 17
_MODEL = "small_cnn"
_SPARSITIES = (0.0, 0.3, 0.6)


def _golden_scenario():
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor="powerlens", fleet_seed=_SEED)
    fleet.add_graph(build_small_cnn(_MODEL))
    trace = make_trace("poisson", rate_rps=40.0, duration_s=1.0,
                       models=[_MODEL], seed=_SEED, slo_latency_s=0.75)
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy="slo"))
    return scheduler.run(trace)


def _family_adaptive_scenario():
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2", noise_std=0.02),
                         DeviceConfig("agx-1", "agx", noise_std=0.02)],
                        governor="powerlens-family-adaptive",
                        fleet_seed=_SEED,
                        faults=FaultProfile(switch_drop_rate=0.05),
                        sparsity_edges=_SPARSITIES)
    fleet.add_graph(build_small_cnn(_MODEL))
    trace = make_trace("poisson", rate_rps=40.0, duration_s=1.0,
                       models=[_MODEL], seed=_SEED, slo_latency_s=0.75,
                       sparsity_choices=list(_SPARSITIES))
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy="slo"))
    return scheduler.run(trace)


def _check_golden(name, result, update_goldens):
    """Compare (or with ``--update-goldens`` rewrite) the canonical SLO
    report and the event-log hash of one scenario."""
    path = GOLDEN_DIR / f"{name}.json"
    sha_path = GOLDEN_DIR / f"{name}.events.sha256"
    text = canonical_json(result.report) + "\n"
    events_sha = hashlib.sha256(result.event_log().encode()).hexdigest()
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        sha_path.write_text(events_sha + "\n")
        return
    assert path.exists() and sha_path.exists(), (
        f"golden fixtures for {name} missing — generate them with "
        f"pytest tests/test_serving_slo_golden.py --update-goldens")
    assert text == path.read_text(), (
        "serving SLO report drifted from its golden fixture; if the "
        "change is intended, rerun with --update-goldens and commit "
        "the diff")
    assert events_sha == sha_path.read_text().strip(), (
        "serving event log drifted from its golden hash; if the change "
        "is intended, rerun with --update-goldens and commit the diff")


def test_serving_slo_golden(update_goldens):
    _check_golden("serving_slo", _golden_scenario(), update_goldens)


def test_serving_slo_family_adaptive_golden(update_goldens):
    _check_golden("serving_slo_family_adaptive",
                  _family_adaptive_scenario(), update_goldens)


def test_serving_records_shape():
    """The export path: one fleet-scope record, then one per device,
    idempotent canonical form."""
    report = _golden_scenario().report
    records = to_records(report)
    assert records[0]["scope"] == "fleet"
    assert records[0]["conserved"] is True
    device_records = [r for r in records if r["scope"] == "device"]
    assert [r["device"] for r in device_records] == ["tx2-0", "agx-1"]
    assert sum(r["requests"] for r in device_records) == \
        records[0]["completed"]
    once = canonical_json(report)
    assert canonical_json(report) == once

"""Conformance harness for input-aware plan families.

Two layers of lock-down:

* **drift-retention ordering** — on the drift-retention experiment the
  plan family must beat both the adaptive single plan and the static
  plan at *every* fault scale (``family >= adaptive >= static``), while
  the no-drift anchor stays byte-identical across all three runtimes
  (a family is pure routing, never a numerics change);
* **serving identity** — with families enabled in the fleet simulator,
  a dense trace served by ``powerlens-family`` produces an event log
  byte-identical to plain ``powerlens`` (size-1 family == static),
  sparse traces replay byte-identically under both family governors,
  and every dispatch ledger still reconciles within 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.experiments.adaptive import run_adaptive_retention
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.family

MODEL = "small_cnn"
SPARSITIES = (0.3, 0.6)


# ----------------------------------------------------------------------
# Drift-retention ordering
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def retention():
    """One full drift-retention sweep, shared by the ordering tests."""
    return run_adaptive_retention()


class TestRetentionOrdering:
    def test_family_beats_adaptive_beats_static_at_every_scale(
            self, retention):
        for i, scale in enumerate(retention.scales):
            fam = retention.ee["family"][i]
            ad = retention.ee["adaptive"][i]
            st = retention.ee["static"][i]
            assert fam >= ad >= st, (
                f"ordering violated at scale {scale}: "
                f"family={fam} adaptive={ad} static={st}")

    def test_family_strictly_beats_static_somewhere(self, retention):
        # The ordering above permits ties everywhere; the family must
        # actually earn its keep on at least one scale.
        assert any(f > s for f, s in zip(retention.ee["family"],
                                         retention.ee["static"]))

    def test_anchor_byte_identical(self, retention):
        # No drift => the family always selects the build-batch member,
        # which is the same plan object the static governor runs.
        assert retention.anchor_identical

    def test_default_sweep_digest_pinned(self, retention):
        # Every float of the default sweep, all four runtimes: the
        # sha256 of the exact JSON text of ``to_dict()``.
        blob = json.dumps(retention.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "c2be3f64ebdc910b072e9a383c4207c5117a96ed4621358aef674133cae8abd8")

    def test_to_dict_exports_family_series(self, retention):
        data = retention.to_dict()
        assert "family" in data["ee"]
        assert len(data["ee"]["family"]) == len(retention.scales)
        for key in ("gain", "retention"):
            assert "family" in data[key]


# ----------------------------------------------------------------------
# Serving identity and determinism
# ----------------------------------------------------------------------

def _build_fleet(governor: str, fleet_seed: int = 0,
                 sparsity_edges=(0.0,)) -> Fleet:
    configs = [DeviceConfig("tx2-0", "tx2"),
               DeviceConfig("agx-1", "agx")]
    fleet = Fleet.build(configs, governor=governor,
                        fleet_seed=fleet_seed,
                        sparsity_edges=sparsity_edges)
    fleet.add_graph(build_small_cnn(MODEL))
    return fleet


def _run(governor: str, seed: int = 7, sparsity_choices=None,
         sparsity_edges=(0.0,)):
    fleet = _build_fleet(governor, fleet_seed=seed,
                         sparsity_edges=sparsity_edges)
    trace = make_trace("poisson", rate_rps=40.0, duration_s=0.5,
                       models=[MODEL], seed=seed,
                       slo_latency_s=math.inf,
                       sparsity_choices=sparsity_choices)
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy="fifo"))
    return scheduler.run(trace)


class TestServingFamilyIdentity:
    @pytest.mark.parametrize("pair", [
        ("powerlens", "powerlens-family"),
        ("powerlens-adaptive", "powerlens-family-adaptive"),
    ])
    def test_dense_family_log_byte_identical_to_base(self, pair):
        # A dense trace only ever exercises the sparsity-0 bucket, so
        # the family governor degenerates to its base flavor and the
        # canonical event logs match byte-for-byte.
        base, family = pair
        assert _run(base).event_log() == _run(family).event_log()

    def test_sparse_replay_byte_identical(self):
        a = _run("powerlens-family", sparsity_choices=list(SPARSITIES),
                 sparsity_edges=(0.0,) + SPARSITIES)
        b = _run("powerlens-family", sparsity_choices=list(SPARSITIES),
                 sparsity_edges=(0.0,) + SPARSITIES)
        assert a.event_log() == b.event_log()
        assert a.report.to_dict() == b.report.to_dict()

    @pytest.mark.parametrize("governor",
                             ["powerlens-family",
                              "powerlens-family-adaptive"])
    def test_sparse_log_replays_under_family_governor(self, governor):
        first = _run(governor, sparsity_choices=list(SPARSITIES),
                     sparsity_edges=(0.0,) + SPARSITIES)
        again = _run(governor, sparsity_choices=list(SPARSITIES),
                     sparsity_edges=(0.0,) + SPARSITIES)
        assert first.event_log() == again.event_log()
        assert first.report.fleet_energy_j == again.report.fleet_energy_j

    def test_sparse_dispatches_carry_sparsity_events(self):
        result = _run("powerlens-family",
                      sparsity_choices=list(SPARSITIES),
                      sparsity_edges=(0.0,) + SPARSITIES)
        sparse_events = [e for e in result.events
                        if e["event"] == "dispatch"
                        and "sparsity" in e]
        assert sparse_events
        assert {e["sparsity"] for e in sparse_events} <= set(SPARSITIES)

    @pytest.mark.parametrize("governor",
                             ["powerlens-family",
                              "powerlens-family-adaptive"])
    def test_ledgers_reconcile_with_families(self, governor):
        result = _run(governor, sparsity_choices=list(SPARSITIES),
                      sparsity_edges=(0.0,) + SPARSITIES)
        assert result.dispatches
        assert all(d.ledger_ok for d in result.dispatches)
        assert result.report.energy_rel_err <= 1e-9

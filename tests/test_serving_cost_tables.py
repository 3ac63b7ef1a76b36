"""Per-device simulator cost tables across serving dispatches.

A serving device keeps one :class:`~repro.hw.simulator.SimCosts` for its
whole life, so everything a dispatch derives only from (platform,
graph, batch, sparsity, plan) -- per-op timings and powers, graph work,
the ledger's planned-vs-optimal sweep -- is computed once per device and
reused by later dispatches.  These tests pin that the reuse is exact and
bounded:

* ``serving_cost_tables`` -- a golden recorded before the tables were
  shared: a noisy, faulty ``powerlens-family-adaptive`` TX2 + AGX fleet
  serving two graphs under bursty arrivals with request sparsities
  ``(0.0, 0.3, 0.6)``, so cost-table keys recur across models, batch
  sizes and sparsities.  It pins the event-log sha256 plus the
  full-precision ``repr`` of every dispatch's energies and every
  dispatch ledger's rows (``repr`` of a float round-trips, so a one-ulp
  drift moves a digest);
* call counts -- over the whole faulty run each (device, key, op,
  level) is timed and powered at most once, and each (device, graph,
  op) has its work derived at most once;
* isolation -- the TX2 and AGX devices never share cost rows, and the
  op-table LRU stays bounded across dispatches.

Regenerate the golden after an intended change with::

    pytest tests/test_serving_cost_tables.py --update-goldens
"""

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

import repro.hw.simulator as simulator
from repro.hw.faults import FaultProfile
from repro.hw.perf import LatencyModel
from repro.hw.power import PowerModel
from repro.models.random_gen import RandomDNNConfig, RandomDNNGenerator
from repro.obs.ledger import EnergyLedger
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn, check_golden

pytestmark = pytest.mark.serving

_SEED = 23
_SPARSITIES = (0.0, 0.3, 0.6)


def _graphs():
    random_graph = RandomDNNGenerator(RandomDNNConfig(
        max_stages=2, max_blocks_per_stage=2, image_size=64),
        seed=2).generate()
    return [build_small_cnn("small_cnn"), random_graph]


def _fleet(graphs):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2", noise_std=0.02),
                         DeviceConfig("agx-1", "agx", noise_std=0.02)],
                        governor="powerlens-family-adaptive",
                        fleet_seed=_SEED,
                        faults=FaultProfile(switch_drop_rate=0.05,
                                            telemetry_drop_rate=0.05),
                        sparsity_edges=_SPARSITIES)
    for graph in graphs:
        fleet.add_graph(graph)
    return fleet


def _serve(fleet, graphs):
    trace = make_trace("bursty", rate_rps=20.0, duration_s=3.0,
                       models=[g.name for g in graphs], seed=_SEED,
                       slo_latency_s=2.0,
                       sparsity_choices=list(_SPARSITIES))
    # Alternate the images per request so jobs come in two batch sizes.
    trace = replace(trace, requests=tuple(
        replace(r, images=(2, 4)[r.request_id % 2])
        for r in trace.requests))
    scheduler = FleetScheduler(fleet, SchedulerConfig(policy="slo",
                                                      max_batch=4))
    return scheduler.run(trace)


def _sha(items) -> str:
    return hashlib.sha256(
        "\n".join(repr(item) for item in items).encode()).hexdigest()


def test_serving_cost_tables_golden(update_goldens, monkeypatch):
    ledgers = []
    from_result = EnergyLedger.from_result

    def capture(*args, **kwargs):
        ledger = from_result(*args, **kwargs)
        ledgers.append(ledger)
        return ledger

    monkeypatch.setattr(EnergyLedger, "from_result", capture)
    graphs = _graphs()
    result = _serve(_fleet(graphs), graphs)
    dispatches = result.dispatches
    events = [e for e in result.events if e["event"] == "dispatch"]
    batch_sizes = sorted({e["images"] for e in events})
    assert batch_sizes == [2, 4]
    assert len({e["model"] for e in events}) == 2
    assert max(e["n_requests"] for e in events) > 1
    assert len(ledgers) == len(dispatches)
    data = {
        "dispatches": len(dispatches),
        "batch_sizes": batch_sizes,
        "events_sha": hashlib.sha256(
            result.event_log().encode()).hexdigest(),
        "energies_sha": _sha((d.device, d.energy_j, d.ledger_energy_j,
                              d.duration_s) for d in dispatches),
        "ledger_rows_sha": _sha(row for ledger in ledgers
                                for row in ledger.blocks),
        "mispredicted": sum(row.mispredicted for ledger in ledgers
                            for row in ledger.blocks),
    }
    check_golden("serving_cost_tables", data, update_goldens)


def _devices_by(fleet, attr):
    """id of each device's shared cost-table component -> device name."""
    return {id(getattr(d.sim_costs, attr)): d.name for d in fleet.devices}


def test_costs_computed_once_per_device_key_op_level(monkeypatch):
    """Over a whole faulty run, each (device, key, op, level) is timed
    and powered at most once, and each (device, graph, op) has its work
    derived at most once, however many dispatches revisit them."""
    timed = Counter()
    powered = Counter()
    derived = Counter()
    time_of = LatencyModel.time_of
    gpu_busy = PowerModel.gpu_busy
    op_work = LatencyModel.op_work

    def counted_time_of(self, work, freq, batch_size=1):
        timed[(id(self), work, freq, batch_size)] += 1
        return time_of(self, work, freq, batch_size)

    def counted_gpu_busy(self, freq, timing):
        powered[id(self)] += 1
        return gpu_busy(self, freq, timing)

    def counted_op_work(self, graph, node):
        derived[(id(self), graph.fingerprint(), node.name)] += 1
        return op_work(self, graph, node)

    monkeypatch.setattr(LatencyModel, "time_of", counted_time_of)
    monkeypatch.setattr(PowerModel, "gpu_busy", counted_gpu_busy)
    monkeypatch.setattr(LatencyModel, "op_work", counted_op_work)
    graphs = _graphs()
    fleet = _fleet(graphs)
    result = _serve(fleet, graphs)

    latency_of = _devices_by(fleet, "latency")
    power_of = _devices_by(fleet, "power")
    assert {latency_of[k[0]] for k in timed} == {"tx2-0", "agx-1"}
    assert set(power_of[k] for k in powered) == {"tx2-0", "agx-1"}
    # How many (table key, op) pairs of a device share one op's work,
    # so equal ops under different keys may each be costed once.
    share = Counter()
    for device in fleet.devices:
        for (_fp, batch, _s), (works, _rows) in \
                device.sim_costs._op_tables.items():
            share.update((device.name, work, batch) for work in works)
    for (latency, work, _freq, batch), n in timed.items():
        assert n <= share[(latency_of[latency], work, batch)]
    for device in fleet.devices:
        assert powered[id(device.sim_costs.power)] == sum(
            n for k, n in timed.items()
            if k[0] == id(device.sim_costs.latency))
    assert derived and max(derived.values()) == 1
    assert len(derived) == 2 * sum(len(g.compute_nodes()) for g in graphs)
    n_keys = sum(len(d.sim_costs._op_tables) for d in fleet.devices)
    assert len(result.dispatches) > 2 * n_keys  # keys are revisited


def test_devices_never_share_cost_rows():
    graphs = _graphs()
    fleet = _fleet(graphs)
    _serve(fleet, graphs)
    tx2, agx = fleet.devices
    assert tx2.sim_costs is not agx.sim_costs
    assert tx2.sim_costs.platform is tx2.platform
    assert agx.sim_costs.platform is agx.platform
    assert tx2.sim_costs.latency is tx2.evaluator.latency
    assert tx2.sim_costs.latency is not agx.sim_costs.latency
    tx2_tables = tx2.sim_costs._op_tables
    agx_tables = agx.sim_costs._op_tables
    common = set(tx2_tables) & set(agx_tables)
    assert common
    tx2_rows = {id(row) for _works, rows in tx2_tables.values()
                for row in rows}
    agx_rows = {id(row) for _works, rows in agx_tables.values()
                for row in rows}
    assert not tx2_rows & agx_rows
    for key in common:
        filled = [(a, b) for ra, rb in zip(tx2_tables[key][1],
                                           agx_tables[key][1])
                  for a, b in zip(ra, rb) if a and b]
        assert filled and all(a != b for a, b in filled)


def test_op_table_lru_bounded_across_dispatches(monkeypatch):
    """With room for a single table, every device evicts and refills
    across dispatches, and the run repeats the unbounded one byte for
    byte."""
    graphs = _graphs()
    fleet = _fleet(graphs)
    kept = _serve(fleet, graphs).event_log()
    assert all(len(d.sim_costs._op_tables) > 1 for d in fleet.devices)
    monkeypatch.setattr(simulator, "OP_TABLE_CACHE_SIZE", 1)
    fleet = _fleet(graphs)
    evicted = _serve(fleet, graphs).event_log()
    assert all(len(d.sim_costs._op_tables) == 1 for d in fleet.devices)
    assert evicted == kept

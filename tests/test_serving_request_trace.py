"""Request-lifecycle tracing: one event stream, sampling, decomposition.

The tentpole invariant pinned here: a :class:`RequestTracer` and a
:class:`BurnRateMonitor` are **projections of the scheduler's event
log**.  They ride the run as sinks that see exactly the records the
scheduler appends to ``result.events``, in order, and a tracer rebuilt
from the written ``event_log()`` file yields the same rows, spans and
alerts as the live one — across governors × policies × fault storms ×
recovery configs × ``n_jobs``.  Also pinned:

* **sampling determinism** — the head-sampled id set is a pure
  function of ``(seed, request_id)``, so replays sample identically;
* **tail retention** — expired / unserviceable / queue_full /
  SLO-violating / anomaly-flagged requests are kept at 100% even with
  ``head_rate=0``;
* **exact decomposition** — ``queue_s + batch_s + service_s`` equals
  the end-to-end latency within 1e-9 for every outcome;
* **recovery stalls** — ``recovery_stall_s`` is the overlap of a
  request's queue residency with the log's drain→readmit intervals;
* **replayable export** — ``export_jsonl`` files parse with
  :func:`repro.obs.replay.read_trace` with zero malformed lines.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.faults import FaultProfile
from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
from repro.obs.replay import read_trace, span_tree
from repro.obs.timeline import ServingTimeline, read_event_log
from repro.serving import (
    ArrivalTrace,
    DeviceConfig,
    Fleet,
    FleetScheduler,
    RecoveryConfig,
    RequestTracer,
    SamplingConfig,
    SchedulerConfig,
    ServingResult,
    head_sample_keep,
    make_policy,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = pytest.mark.serving

MODEL = "small_cnn"
STORM = dict(telemetry_noise_std=0.8, switch_drop_rate=0.2)
TWO_BOARDS = (("tx2-0", "tx2"), ("agx-1", "agx"))

_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_POLICIES = st.sampled_from(["fifo", "slo", "energy"])
_GOVERNORS = st.sampled_from(
    ["powerlens", "powerlens-adaptive", "ondemand", "performance"])


class Run(NamedTuple):
    result: ServingResult
    tracer: RequestTracer
    monitor: BurnRateMonitor
    trace: ArrivalTrace


def _run(seed: int, policy: str = "fifo", governor: str = "powerlens",
         rate: float = 30.0, duration: float = 0.5,
         slo: float = math.inf, faults: FaultProfile = None,
         recovery: RecoveryConfig = None, n_jobs: int = 1,
         queue_capacity: int = 64, sampling: SamplingConfig = None,
         burn: BurnRateConfig = None, devices=TWO_BOARDS,
         extra_sinks=()) -> Run:
    fleet = Fleet.build([DeviceConfig(name, platform)
                         for name, platform in devices],
                        governor=governor, fleet_seed=seed,
                        faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed, slo_latency_s=slo)
    tracer = RequestTracer(sampling, requests=trace.requests,
                           healthy_devices=len(fleet),
                           policy=make_policy(policy).name)
    monitor = BurnRateMonitor(burn or BurnRateConfig(
        fast_window_s=0.1, slow_window_s=0.4))
    scheduler = FleetScheduler(
        fleet,
        SchedulerConfig(policy=policy, queue_capacity=queue_capacity,
                        recovery=recovery),
        sinks=[tracer, monitor, *extra_sinks])
    return Run(scheduler.run(trace, n_jobs=n_jobs), tracer, monitor,
               trace)


def _matrix_run(seed, policy, governor, storm, recovery_on, n_jobs,
                extra_sinks=()) -> Run:
    return _run(seed, policy=policy, governor=governor, slo=0.5,
                duration=1.0, n_jobs=n_jobs, extra_sinks=extra_sinks,
                faults=(FaultProfile(seed=seed, **STORM) if storm
                        else None),
                recovery=(RecoveryConfig(cooldown_s=0.05,
                                         max_cooldown_s=0.4)
                          if recovery_on else None))


_MATRIX = dict(seed=_SEEDS, policy=_POLICIES, governor=_GOVERNORS,
               storm=st.booleans(), recovery_on=st.booleans(),
               n_jobs=st.sampled_from([1, 4]))


# ----------------------------------------------------------------------
# one stream: every projection reads the event log and nothing else
# ----------------------------------------------------------------------
class TestOneStream:
    @settings(max_examples=10, deadline=None)
    @given(**_MATRIX)
    def test_sinks_receive_exactly_the_events(
            self, seed, policy, governor, storm, recovery_on, n_jobs):
        seen = []
        run = _matrix_run(seed, policy, governor, storm, recovery_on,
                          n_jobs, extra_sinks=[seen.append])
        events = run.result.events
        assert len(seen) == len(events)
        assert all(a is b for a, b in zip(seen, events))
        assert [e["seq"] for e in seen] == list(range(len(events)))

    @settings(max_examples=10, deadline=None)
    @given(**_MATRIX)
    def test_replayed_log_rebuilds_the_live_rows(
            self, seed, policy, governor, storm, recovery_on, n_jobs):
        run = _matrix_run(seed, policy, governor, storm, recovery_on,
                          n_jobs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.jsonl"
            path.write_text(run.result.event_log())
            events, malformed = read_event_log(path)
        assert malformed == 0
        replay = RequestTracer.from_events(
            events, requests=run.trace.requests, healthy_devices=2,
            policy=make_policy(policy).name)
        monitor = BurnRateMonitor(run.monitor.config)
        for event in events:
            monitor(event)
        plain = ServingTimeline.from_events(events)
        live = run.tracer
        assert ([asdict(r) for r in replay.traces()]
                == [asdict(r) for r in live.traces()])
        assert replay.span_records() == live.span_records()
        assert replay.completion_records == live.completion_records
        assert monitor.alerts == run.monitor.alerts
        # The plain timeline is the same fold without the request
        # table: identical rendering of the run.
        assert plain.to_chrome_trace() == live.to_chrome_trace()
        assert plain.format_report() == live.format_report()


class TestByteIdentity:
    def test_sampling_rate_never_changes_outputs(self):
        full = _run(5, sampling=SamplingConfig(head_rate=1.0))
        none = _run(5, sampling=SamplingConfig(head_rate=0.0))
        assert full.result.event_log() == none.result.event_log()
        assert (full.result.report.to_dict()
                == none.result.report.to_dict())
        assert none.tracer.sampled_count == 0


# ----------------------------------------------------------------------
# recovery stalls: queue residency ∩ zero-healthy intervals of the log
# ----------------------------------------------------------------------
class TestRecoveryStall:
    def test_stall_is_queue_overlap_with_drain_intervals(self):
        run = _run(3, rate=40.0, duration=1.0, slo=0.2,
                   devices=(("tx2-0", "tx2"),),
                   faults=FaultProfile(seed=3, **STORM),
                   recovery=RecoveryConfig(cooldown_s=0.05))
        events = run.result.events
        kinds = [e["event"] for e in events]
        assert "drain" in kinds and "readmit" in kinds
        # [drain, readmit] intervals of the single device, read back
        # from the log; one still open at the end runs to infinity.
        intervals, start = [], None
        for event in events:
            if event["event"] in ("drain", "redrain"):
                start = event["t"]
            elif event["event"] == "readmit":
                intervals.append((start, event["t"]))
                start = None
        if start is not None:
            intervals.append((start, math.inf))
        rows = run.tracer.traces()
        assert len(rows) == run.result.report.arrived
        stalled = 0
        for row in rows:
            expected = math.fsum(
                max(0.0, min(end, row.t_dispatch)
                    - max(begin, row.t_arrival))
                for begin, end in intervals)
            assert row.recovery_stall_s == pytest.approx(expected,
                                                         abs=1e-12)
            stalled += row.recovery_stall_s > 0.0
        assert stalled > 0

    def test_no_stall_without_fleet_health_count(self):
        run = _run(3, rate=40.0, duration=1.0, slo=0.2,
                   devices=(("tx2-0", "tx2"),),
                   faults=FaultProfile(seed=3, **STORM),
                   recovery=RecoveryConfig(cooldown_s=0.05))
        replay = RequestTracer.from_events(
            run.result.events, requests=run.trace.requests)
        assert all(row.recovery_stall_s == 0.0
                   for row in replay.traces())


# ----------------------------------------------------------------------
# sampling: deterministic head, 100% anomalous tail
# ----------------------------------------------------------------------
class TestSampling:
    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, rate=st.floats(min_value=0.0, max_value=1.0))
    def test_head_sampling_is_a_pure_function(self, seed, rate):
        first = [head_sample_keep(seed, rid, rate)
                 for rid in range(200)]
        second = [head_sample_keep(seed, rid, rate)
                  for rid in range(200)]
        assert first == second

    def test_head_rate_roughly_honoured(self):
        kept = sum(head_sample_keep(7, rid, 0.25)
                   for rid in range(4000))
        assert 0.18 < kept / 4000 < 0.32

    def test_same_seed_same_sampled_set(self):
        cfg = SamplingConfig(head_rate=0.3, seed=42)
        a = _run(9, rate=80.0, sampling=cfg)
        b = _run(9, rate=80.0, sampling=cfg)
        ids_a = {t.request_id for t in a.tracer.traces()}
        ids_b = {t.request_id for t in b.tracer.traces()}
        assert ids_a == ids_b
        assert a.tracer.sampled_count < a.result.report.arrived

    def test_different_seed_different_sampled_set(self):
        a = _run(9, rate=80.0,
                 sampling=SamplingConfig(head_rate=0.3, seed=1))
        b = _run(9, rate=80.0,
                 sampling=SamplingConfig(head_rate=0.3, seed=2))
        ids_a = {t.request_id for t in a.tracer.traces()}
        ids_b = {t.request_id for t in b.tracer.traces()}
        assert ids_a != ids_b

    def test_tail_keeps_every_anomalous_request(self):
        # Tight SLO + tiny queue: expirations, violations and
        # queue_full rejections abound; head_rate=0 keeps only them.
        run = _run(3, rate=200.0, duration=0.5, slo=0.05,
                   queue_capacity=4,
                   sampling=SamplingConfig(head_rate=0.0))
        tracer = run.tracer
        report = run.result.report
        anomalous = (report.dropped_expired
                     + report.dropped_unserviceable
                     + report.dropped_queue_full
                     + report.slo_violations)
        assert anomalous > 0
        traces = tracer.traces()
        assert len(traces) == anomalous
        assert all(t.anomalous and not t.sampled_head for t in traces)
        assert tracer.sampled_tail_count == anomalous
        # Tail retention is 100%: every expired/violating id present.
        outcomes = {t.outcome for t in traces}
        assert "expired" in outcomes or "queue_full" in outcomes

    def test_invalid_head_rate_rejected(self):
        with pytest.raises(ValueError):
            SamplingConfig(head_rate=1.5)
        with pytest.raises(ValueError):
            SamplingConfig(head_rate=-0.1)

    def test_sampling_metrics_registry(self):
        run = _run(5)
        metrics = run.tracer.metrics()
        seen = metrics.counter("powerlens_request_trace_seen_total").value
        sampled = metrics.counter(
            "powerlens_request_trace_sampled_total").value
        assert seen == run.result.report.arrived
        assert sampled == run.tracer.sampled_count


# ----------------------------------------------------------------------
# decomposition: queue + batch + service == latency, exactly
# ----------------------------------------------------------------------
class TestDecomposition:
    @settings(max_examples=8, deadline=None)
    @given(seed=_SEEDS, policy=_POLICIES,
           slo=st.sampled_from([math.inf, 0.5, 0.05]))
    def test_components_sum_to_latency(self, seed, policy, slo):
        run = _run(seed, policy=policy, slo=slo, rate=60.0,
                   queue_capacity=8)
        traces = run.tracer.traces()
        assert traces
        for tr in traces:
            total = tr.queue_s + tr.batch_s + tr.service_s
            assert total == pytest.approx(tr.latency_s, abs=1e-9)
            assert tr.queue_s >= 0 and tr.batch_s >= 0
            assert tr.service_s >= 0

    def test_completed_trace_attributes(self):
        run = _run(5, policy="slo")
        completed = [t for t in run.tracer.traces() if t.completed]
        assert completed
        by_id = {o.request_id: o for o in run.result.outcomes}
        for tr in completed:
            outcome = by_id[tr.request_id]
            assert tr.device == outcome.device
            assert tr.energy_j == outcome.energy_j
            assert tr.dispatch_seq >= 0
            assert tr.plan_fingerprint
            assert tr.recovery_state
            assert tr.request_id in tr.batch_request_ids
            assert tr.ledger_energy_j > 0.0

    def test_ledger_shares_sum_to_fleet_total(self):
        run = _run(5)
        traces = run.tracer.traces()
        assert len(traces) == run.result.report.arrived  # head_rate=1
        share_sum = math.fsum(t.ledger_energy_j for t in traces
                              if t.completed)
        assert share_sum == pytest.approx(
            run.result.report.ledger_energy_j, rel=1e-9)

    def test_drop_traces_are_queue_only(self):
        run = _run(3, rate=200.0, duration=0.5, slo=0.05,
                   queue_capacity=4)
        drops = [t for t in run.tracer.traces() if not t.completed]
        assert drops
        for tr in drops:
            assert tr.batch_s == 0.0 and tr.service_s == 0.0
            assert not tr.slo_ok
            if tr.outcome == "queue_full":
                assert tr.latency_s == 0.0


# ----------------------------------------------------------------------
# export: powerlens-trace-compatible JSONL
# ----------------------------------------------------------------------
class TestExport:
    def test_export_readable_by_read_trace(self, tmp_path):
        run = _run(5, policy="slo")
        path = run.tracer.export_jsonl(tmp_path / "req.jsonl")
        trace = read_trace(path)
        assert trace.malformed_lines == 0
        assert len(trace.spans) > 0
        roots = [n for n in span_tree(trace.spans)
                 if n.name == "request"]
        completed_roots = [
            n for n in roots
            if n.record["attrs"].get("outcome") == "completed"]
        assert completed_roots
        for node in completed_roots:
            names = [c.name for c in node.children]
            assert names == ["queued", "batched", "dispatched"]

    def test_export_is_byte_stable(self, tmp_path):
        a = _run(5).tracer.export_jsonl(tmp_path / "a.jsonl")
        b = _run(5).tracer.export_jsonl(tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_export_appends_burn_spans(self, tmp_path):
        run = _run(3, rate=200.0, duration=0.5, slo=0.02,
                   burn=BurnRateConfig(objective=0.99,
                                       fast_window_s=0.05,
                                       slow_window_s=0.1,
                                       min_events=3))
        monitor = run.monitor
        assert monitor.alert_count > 0
        path = run.tracer.export_jsonl(tmp_path / "req.jsonl",
                                       burn=monitor)
        trace = read_trace(path)
        burn_spans = [s for s in trace.spans
                      if s["name"] == "slo_burn"]
        assert len(burn_spans) == monitor.alert_count
        for span in burn_spans:
            assert span["attrs"]["peak_fast_burn"] >= 0

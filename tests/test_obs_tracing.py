"""Tracer unit tests: nesting, attributes, bounded buffer, aggregates,
clock injection, the disabled no-op contract, JSONL export, and the
replay/summary path behind ``powerlens trace``."""

import json

import pytest

from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    Observability,
    Tracer,
    read_trace,
    span_tree,
    summarize_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import _NULL_SPAN

pytestmark = pytest.mark.obs


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        self.t += self.step
        return self.t


class TestSpans:
    def test_nesting_builds_parent_links(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None
        # Completion order: inner spans finish first.
        assert [s.name for s in tracer.spans] == \
            ["inner", "sibling", "outer"]

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", scheme=3) as sp:
            sp.set(n_blocks=7).set(n_blocks=9, extra="x")
        record = tracer.spans[0].to_record()
        assert record["attrs"] == {"scheme": 3, "n_blocks": 9,
                                   "extra": "x"}

    def test_clock_injection_pins_durations(self):
        clock = FakeClock(step=0.5)
        tracer = Tracer(clock=clock)
        with tracer.span("a"):
            pass
        span = tracer.spans[0]
        assert span.t_start == 0.5
        assert span.t_end == 1.0
        assert span.duration == pytest.approx(0.5)

    def test_exception_sets_error_attribute_and_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        span = tracer.spans[0]
        assert "kaput" in span.attributes["error"]

    def test_misnested_exit_recovers_stack(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        # Exit out of order: outer first.
        outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None  # stack fully unwound

    def test_record_external_duration(self):
        tracer = Tracer(clock=FakeClock())
        tracer.record("io", 2.5, path="/x")
        span = tracer.spans[0]
        assert span.duration == pytest.approx(2.5)
        assert span.attributes == {"path": "/x"}
        assert tracer.total("io") == pytest.approx(2.5)
        with pytest.raises(ValueError):
            tracer.record("io", -1.0)


class TestBufferAndAggregates:
    def test_buffer_bound_drops_new_spans_but_keeps_aggregates(self):
        tracer = Tracer(max_spans=2, clock=FakeClock())
        for _ in range(5):
            with tracer.span("hot"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        assert tracer.count("hot") == 5
        assert tracer.total("hot") == pytest.approx(5.0)
        assert tracer.mean("hot") == pytest.approx(1.0)

    def test_keep_spans_false_is_aggregate_only(self):
        tracer = Tracer(keep_spans=False, clock=FakeClock())
        with tracer.span("x"):
            pass
        assert tracer.spans == []
        assert tracer.dropped == 1
        assert tracer.count("x") == 1

    def test_clear_resets_buffer_and_aggregates(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans == []
        assert tracer.count("a") == 0
        assert tracer.total("a") == 0.0


class TestDisabledTracer:
    def test_disabled_span_is_shared_null_handle(self):
        clock = FakeClock()
        tracer = Tracer(enabled=False, clock=clock)
        handle = tracer.span("anything", attr=1)
        assert handle is _NULL_SPAN
        assert handle is NULL_TRACER.span("other")
        with handle as sp:
            assert sp.set(x=1) is sp
        # The disabled path must never read the clock.
        assert clock.reads == 0
        assert tracer.spans == []

    def test_disabled_record_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.record("x", 1.0)
        assert tracer.count("x") == 0

    def test_null_obs_bundle_is_disabled(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.tracer is NULL_TRACER
        assert Observability.enabled_bundle().enabled


class TestExportAndReplay:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        metrics = MetricsRegistry()
        metrics.counter("powerlens_things_total").inc(3)
        with tracer.span("root", label="r"):
            with tracer.span("child"):
                pass
        path = tracer.export_jsonl(tmp_path / "t.jsonl", metrics=metrics)
        lines = path.read_text().splitlines()
        for line in lines:
            json.loads(line)  # every line is valid JSON
        trace = read_trace(path)
        assert trace.malformed_lines == 0
        assert trace.meta["dropped"] == 0
        assert [s["name"] for s in trace.spans] == ["child", "root"]
        assert trace.metrics.counter("powerlens_things_total").value == 3

        roots = span_tree(trace.spans)
        assert [r.name for r in roots] == ["root"]
        assert [c.name for c in roots[0].children] == ["child"]

    def test_read_trace_tolerates_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"type": "span", "span_id": 1,
                           "parent_id": None, "name": "ok",
                           "t_start": 0.0, "t_end": 1.0})
        path.write_text("\n".join([
            "not json at all", good,
            json.dumps({"type": "span", "name": "missing-keys"}),
            json.dumps({"type": "wat"}), "",
        ]) + "\n")
        trace = read_trace(path)
        assert [s["name"] for s in trace.spans] == ["ok"]
        assert trace.malformed_lines == 3

    def test_orphan_spans_become_roots(self):
        spans = [
            {"span_id": 5, "parent_id": 99, "name": "orphan",
             "t_start": 0.0, "t_end": 1.0},
            {"span_id": 6, "parent_id": 5, "name": "kid",
             "t_start": 0.2, "t_end": 0.8},
        ]
        roots = span_tree(spans)
        assert [r.name for r in roots] == ["orphan"]
        assert [c.name for c in roots[0].children] == ["kid"]

    def test_summarize_trace_renders_tree_and_metrics(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        metrics = MetricsRegistry()
        metrics.counter("powerlens_hits_total").inc(2)
        metrics.histogram("powerlens_lat_seconds").observe(0.01)
        with tracer.span("fit"):
            with tracer.span("generate", n=4):
                pass
        path = tracer.export_jsonl(tmp_path / "t.jsonl", metrics=metrics)
        text = summarize_trace(read_trace(path))
        assert "2 span(s)" in text
        assert "fit" in text and "generate" in text
        assert "n=4" in text
        assert "powerlens_hits_total" in text
        assert "powerlens_lat_seconds" in text

    def test_summary_reports_dropped_spans(self, tmp_path):
        tracer = Tracer(max_spans=1, clock=FakeClock())
        for _ in range(3):
            with tracer.span("s"):
                pass
        path = tracer.export_jsonl(tmp_path / "t.jsonl")
        text = summarize_trace(read_trace(path))
        assert "2 dropped at capture" in text

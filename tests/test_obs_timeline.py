"""Timeline export: Chrome trace_event JSON, critical path, CLI.

The timeline layer reconstructs a serving run purely from the
canonical event log.  Pinned here:

* the Chrome export passes :func:`validate_chrome_trace` (the subset
  schema we emit: M/X/C/i phases, finite microsecond timestamps);
* the critical-path decomposition sums to end-to-end latency within
  1e-9 for every request the report knows about;
* ``powerlens timeline`` renders the breakdown table, writes valid
  Chrome JSON via ``--out``, and speaks JSON via ``--json``;
* ``powerlens trace`` recognizes a serving event log and redirects to
  ``powerlens timeline`` instead of reporting malformed spans
  (satellite: trace-shape sniffing).
"""

from __future__ import annotations

import json
import math

import pytest

import repro.cli as cli
from repro.obs.timeline import (
    ServingTimeline,
    looks_like_event_log,
    read_event_log,
    summarize_serving_events,
    validate_chrome_trace,
)
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = [pytest.mark.serving, pytest.mark.obs]

MODEL = "small_cnn"


def _result(seed: int = 7, rate: float = 40.0, duration: float = 0.5,
            slo: float = math.inf, policy: str = "fifo",
            queue_capacity: int = 64):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor="powerlens", fleet_seed=seed)
    fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed, slo_latency_s=slo)
    return FleetScheduler(fleet, SchedulerConfig(
        policy=policy, queue_capacity=queue_capacity)).run(trace)


@pytest.fixture(scope="module")
def run():
    return _result()


@pytest.fixture(scope="module")
def timeline(run):
    return ServingTimeline.from_events(run.events)


# ----------------------------------------------------------------------
# reconstruction from the event log
# ----------------------------------------------------------------------
class TestReconstruction:
    def test_requests_match_report(self, run, timeline):
        assert len(timeline.requests) == (run.report.completed
                                          + run.report.dropped_expired
                                          + run.report.dropped_queue_full
                                          + run.report.dropped_unserviceable)
        completed = [r for r in timeline.requests.values()
                     if r.completed]
        assert len(completed) == run.report.completed

    def test_components_sum_exactly(self, timeline):
        for row in timeline.requests.values():
            total = row.queue_s + row.batch_s + row.service_s
            assert total == pytest.approx(row.latency_s, abs=1e-9)
            assert row.queue_s >= 0 and row.batch_s >= 0
            assert row.service_s >= 0

    def test_device_tracks_cover_all_dispatches(self, run, timeline):
        n_jobs = sum(len(track.jobs)
                     for track in timeline.devices.values())
        assert n_jobs == len(run.dispatches)
        for track in timeline.devices.values():
            assert track.busy_s >= 0
            for start, end, label in track.jobs:
                assert end >= start
                assert MODEL in label

    def test_queue_depth_never_negative(self, timeline):
        assert timeline.queue_depth
        assert all(depth >= 0 for _, depth in timeline.queue_depth)
        assert timeline.queue_depth[-1][1] == 0

    def test_critical_path_rows_slowest_first(self, timeline):
        rows = timeline.critical_path_rows()
        assert rows
        latencies = [r.latency_s for r in rows]
        assert latencies == sorted(latencies, reverse=True)
        assert all(r.completed for r in rows)


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_export_is_schema_valid(self, timeline):
        payload = timeline.to_chrome_trace()
        validate_chrome_trace(payload)
        assert payload["displayTimeUnit"] == "ms"
        names = {e["name"] for e in payload["traceEvents"]}
        assert "queue_depth" in names
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_sampled_ids_restrict_request_tracks(self, timeline):
        all_ids = set(timeline.requests)
        some = set(sorted(all_ids)[:2])
        full = timeline.to_chrome_trace()
        slim = timeline.to_chrome_trace(sampled_ids=some)
        def request_tids(payload):
            return {e["tid"] for e in payload["traceEvents"]
                    if e.get("cat") == "request"}
        assert request_tids(slim) == some
        assert request_tids(full) == all_ids

    def test_request_track_cap_recorded(self, timeline, monkeypatch):
        import repro.obs.timeline as timeline_mod

        monkeypatch.setattr(timeline_mod, "MAX_REQUEST_TRACKS", 1)
        payload = timeline.to_chrome_trace()
        validate_chrome_trace(payload)
        tids = {e["tid"] for e in payload["traceEvents"]
                if e.get("cat") == "request"}
        assert len(tids) == 1
        assert payload["metadata"]["request_tracks"] == 1
        dropped = payload["metadata"]["request_tracks_dropped"]
        assert dropped == len(timeline.requests) - 1

    def test_burn_spans_rendered(self, timeline):
        timeline2 = ServingTimeline.from_events([])
        timeline2.add_burn_spans(
            [("slo_burn", 0.1, 0.3, {"peak_fast_burn": 7.0})])
        payload = timeline2.to_chrome_trace()
        validate_chrome_trace(payload)
        burn = [e for e in payload["traceEvents"]
                if e["name"] == "slo_burn"]
        assert len(burn) == 1
        assert burn[0]["dur"] == pytest.approx(0.2 * 1e6)

    @pytest.mark.parametrize("payload", [
        [],                                             # not an object
        {"traceEvents": {}},                            # not a list
        {"traceEvents": [{"ph": "Q", "name": "x", "pid": 0}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 0,
                          "ts": float("nan"), "dur": 1}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 0,
                          "ts": 0, "dur": -1}]},
        {"traceEvents": [{"ph": "M", "name": "oddball", "pid": 0,
                          "args": {"name": "x"}}]},
        {"traceEvents": [{"ph": "C", "name": "x", "pid": 0,
                          "ts": 0}]},
        {"traceEvents": [{"ph": "i", "name": "x", "pid": 0,
                          "ts": 0}]},
    ])
    def test_validator_rejects_bad_payloads(self, payload):
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)


# ----------------------------------------------------------------------
# event-log parsing helpers
# ----------------------------------------------------------------------
class TestEventLogParsing:
    def test_read_event_log_tolerant(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text("\n".join([
            json.dumps({"seq": 0, "t": 0.0, "event": "admit",
                        "request_id": 0}),
            "not json at all {{",
            json.dumps({"no_event_key": True}),
            "",
            json.dumps({"seq": 1, "t": 0.1, "event": "complete",
                        "request_id": 0}),
        ]) + "\n")
        events, malformed = read_event_log(path)
        assert len(events) == 2
        assert malformed == 2

    def test_looks_like_event_log(self):
        good = [{"seq": 0, "t": 0.0, "event": "admit"}]
        assert looks_like_event_log(good)
        assert not looks_like_event_log([])
        assert not looks_like_event_log(
            good + [{"type": "span", "name": "x"}])
        assert not looks_like_event_log(["just a string"])

    def test_summarize_serving_events(self, run):
        digest = summarize_serving_events(run.events)
        assert f"{run.report.admitted} admitted" in digest
        assert f"{run.report.completed} completed" in digest
        assert "dispatch=" in digest

    def test_from_file_round_trip(self, tmp_path, run, timeline):
        path = tmp_path / "ev.jsonl"
        path.write_text(run.event_log())
        rebuilt = ServingTimeline.from_events(read_event_log(path)[0])
        assert len(rebuilt.requests) == len(timeline.requests)
        assert rebuilt.makespan_s == timeline.makespan_s


# ----------------------------------------------------------------------
# CLI: powerlens timeline + the trace redirect
# ----------------------------------------------------------------------
_ARGS = ["serve-sim", "--devices", "tx2,agx", "--rate", "15",
         "--duration", "0.5", "--seed", "7", "--models", "alexnet"]


class TestTimelineCli:
    @pytest.fixture()
    def event_log(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        assert cli.main(_ARGS + ["--event-log", str(path)]) == 0
        return path

    def test_report_table(self, event_log, capsys):
        capsys.readouterr()
        assert cli.main(["timeline", str(event_log), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "per-device occupancy" in out
        assert "top 3 slowest requests" in out
        for component in ("queue", "batch", "service", "total"):
            assert component in out

    def test_out_writes_valid_chrome_json(self, event_log, tmp_path,
                                          capsys):
        chrome = tmp_path / "tl.json"
        assert cli.main(["timeline", str(event_log),
                         "--out", str(chrome)]) == 0
        capsys.readouterr()
        payload = json.loads(chrome.read_text())
        validate_chrome_trace(payload)

    def test_json_mode(self, event_log, capsys):
        capsys.readouterr()
        assert cli.main(["timeline", str(event_log), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["requests"] == digest["completed"]
        assert digest["events"] > 0
        assert digest["devices"]
        assert digest["slowest"]
        top = digest["slowest"][0]
        assert top["queue_s"] + top["batch_s"] + top["service_s"] \
            == pytest.approx(top["latency_s"], abs=1e-9)

    def test_busy_seconds_equal_the_slo_report(self, tmp_path, capsys):
        """Each device's busy seconds sum the dispatch and probe
        durations in event order, as the SLO report does: bit-equal on
        a faulty, recovering fleet whose probes interleave with its
        dispatches."""
        path = tmp_path / "ev.jsonl"
        assert cli.main([
            "serve-sim", "--devices", "tx2,tx2", "--rate", "20",
            "--duration", "0.5", "--seed", "3", "--fault-profile",
            "telemetry_noise_std=0.8,switch_drop_rate=0.2", "--recovery",
            "--recovery-cooldown", "0.05", "--event-log", str(path),
            "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli.main(["timeline", str(path), "--json"]) == 0
        timeline = json.loads(capsys.readouterr().out)
        busy = {d["name"]: d["busy_time_s"] for d in report["devices"]}
        assert {name: d["busy_s"]
                for name, d in timeline["devices"].items()} == busy
        assert all(d["probes"] for d in timeline["devices"].values())

    def test_missing_file_fails(self, tmp_path, capsys):
        assert cli.main(["timeline",
                         str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_empty_log_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cli.main(["timeline", str(path)]) == 1

    def test_trace_redirects_serving_logs(self, event_log, capsys):
        capsys.readouterr()
        assert cli.main(["trace", str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "serving event log" in out
        assert "powerlens timeline" in out
        assert "admitted" in out

    def test_trace_still_reports_genuinely_malformed(self, tmp_path,
                                                     capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text("this is not json\nnor this\n")
        cli.main(["trace", str(path)])
        out = capsys.readouterr().out
        assert "serving event log" not in out

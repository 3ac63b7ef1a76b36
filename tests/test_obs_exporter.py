"""Live exporter and flight recorder: endpoint correctness, clean
shutdown (no leaked threads or sockets), off-by-default, and the
bounded snapshot ring."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Observability
from repro.obs.exporter import (
    ENV_EXPORTER_PORT,
    ENV_FLIGHT_RECORDER,
    FlightRecorder,
    MetricsExporter,
)
from repro.obs.metrics import parse_prometheus_text

pytestmark = pytest.mark.obs


def _bundle() -> Observability:
    obs = Observability.enabled_bundle()
    obs.metrics.counter("powerlens_test_events_total").inc(7)
    obs.metrics.gauge("powerlens_test_level").set(4)
    with obs.tracer.span("outer", stage="test"):
        with obs.tracer.span("inner"):
            pass
    return obs


def _get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), \
            resp.read().decode("utf-8")


class TestMetricsExporter:
    def test_endpoints_serve_live_state(self):
        obs = _bundle()
        with MetricsExporter(obs) as exporter:
            status, ctype, body = _get(exporter.url + "metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert "version=0.0.4" in ctype
            parsed = parse_prometheus_text(body)
            assert parsed.counter(
                "powerlens_test_events_total").value == 7

            status, ctype, body = _get(exporter.url + "metrics.json")
            assert status == 200
            assert ctype == "application/json"
            assert "powerlens_test_level" in json.loads(body)

            status, _, body = _get(exporter.url + "healthz")
            assert (status, body) == (200, "ok\n")

            with pytest.raises(urllib.error.HTTPError) as err:
                _get(exporter.url + "nope")
            assert err.value.code == 404
            err.value.close()  # the error object owns the response fd

            # Counters minted after start are served on the next scrape.
            obs.metrics.counter("powerlens_test_late_total").inc()
            _, _, body = _get(exporter.url + "metrics")
            assert "powerlens_test_late_total" in body

    def test_sse_stream_replays_buffered_spans(self):
        obs = _bundle()
        exporter = MetricsExporter(obs).start()
        try:
            conn = socket.create_connection(
                ("127.0.0.1", exporter.port), timeout=5.0)
            conn.sendall(b"GET /spans HTTP/1.0\r\n\r\n")
            conn.settimeout(5.0)
            data = b""
            # Read until both buffered spans have been replayed (they
            # may arrive in separate chunks under load).
            while not (b'"outer"' in data and b'"inner"' in data
                       and data.endswith(b"\n\n")):
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data = data + chunk
            conn.close()
            text = data.decode("utf-8")
            assert "Content-Type: text/event-stream" in text
            payloads = [json.loads(line[len("data: "):])
                        for line in text.splitlines()
                        if line.startswith("data: ")]
            assert {p["name"] for p in payloads} >= {"outer", "inner"}
        finally:
            exporter.stop()

    def test_clean_shutdown_leaks_nothing(self):
        before = set(threading.enumerate())
        obs = _bundle()
        exporter = MetricsExporter(obs).start()
        port = exporter.port
        _get(exporter.url + "healthz")
        exporter.stop()
        exporter.stop()  # idempotent
        leaked = [t for t in set(threading.enumerate()) - before
                  if t.is_alive()]
        assert leaked == []
        # The socket is closed: a fresh connection must be refused.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)

    def test_double_start_rejected_and_not_running_errors(self):
        exporter = MetricsExporter(_bundle())
        with pytest.raises(RuntimeError, match="not running"):
            exporter.port
        exporter.start()
        try:
            with pytest.raises(RuntimeError, match="already"):
                exporter.start()
        finally:
            exporter.stop()

    def test_concurrent_exporters_never_collide(self):
        """Port-collision regression: exporters default to port 0 and
        read the ephemeral port back from the bound socket, so any
        number can run side-by-side (parallel test workers, a fleet
        simulation next to an experiment run)."""
        exporters = [MetricsExporter(_bundle()).start() for _ in range(3)]
        try:
            ports = [e.port for e in exporters]
            assert len(set(ports)) == len(ports)
            assert all(p != 0 for p in ports)
            for e in exporters:
                status, _, _ = _get(e.url + "healthz")
                assert status == 200
        finally:
            for e in exporters:
                e.stop()

    def test_off_by_default(self):
        """No experiment path starts an exporter on its own: the only
        construction sites are the CLI flag/env handlers."""
        from repro.governors import OndemandGovernor
        from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
        from tests.conftest import build_small_cnn
        before = {t.name for t in threading.enumerate()}
        sim = InferenceSimulator(jetson_tx2(), obs=_bundle())
        sim.run([InferenceJob(graph=build_small_cnn(), n_batches=1)],
                OndemandGovernor())
        after = {t.name for t in threading.enumerate()}
        assert not any(n.startswith("powerlens-") for n in after - before)
        # The env-var names the CLI consults are part of the contract.
        assert ENV_EXPORTER_PORT == "POWERLENS_EXPORTER_PORT"
        assert ENV_FLIGHT_RECORDER == "POWERLENS_FLIGHT_RECORDER"


class TestFlightRecorder:
    def test_ring_is_bounded_and_final_snapshot_written(self, tmp_path):
        obs = _bundle()
        recorder = FlightRecorder(obs, tmp_path / "fr",
                                  interval_s=0.01, max_snapshots=3)
        recorder.start()
        deadline = time.monotonic() + 5.0
        while recorder.seq < 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        recorder.stop()
        assert recorder.seq >= 6
        files = recorder.snapshot_files()
        assert 1 <= len(files) <= 3
        # The ring really dropped the oldest snapshots.
        assert files[0].name != "flight-000000.json"
        last = json.loads(files[-1].read_text())
        assert last["final"] is True
        assert last["format"] == "powerlens-flight"
        assert last["metrics"]["powerlens_test_events_total"]["value"] == 7
        assert last["span_totals"]  # span accounting made it to disk
        # Sequence numbers on disk are consecutive and increasing.
        seqs = [json.loads(f.read_text())["seq"] for f in files]
        assert seqs == sorted(seqs)

    def test_stop_without_ticks_still_records_final_state(self, tmp_path):
        recorder = FlightRecorder(_bundle(), tmp_path, interval_s=60.0)
        recorder.start()
        recorder.stop()
        recorder.stop()  # idempotent
        files = recorder.snapshot_files()
        assert len(files) == 1
        assert json.loads(files[0].read_text())["final"] is True

    def test_write_failure_disarms_instead_of_raising(self, tmp_path):
        recorder = FlightRecorder(_bundle(), tmp_path, interval_s=60.0)
        recorder.start()
        # Sabotage the target directory out from under the recorder.
        recorder.directory = tmp_path / "gone" / "deeper"
        recorder.stop()
        assert recorder.failed is True

    def test_invalid_configuration_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            FlightRecorder(_bundle(), tmp_path, interval_s=0.0)
        with pytest.raises(ValueError, match="max_snapshots"):
            FlightRecorder(_bundle(), tmp_path, max_snapshots=0)

    def test_no_thread_leak(self, tmp_path):
        before = set(threading.enumerate())
        with FlightRecorder(_bundle(), tmp_path, interval_s=0.01):
            time.sleep(0.03)
        leaked = [t for t in set(threading.enumerate()) - before
                  if t.is_alive()]
        assert leaked == []


class TestRequestsEndpoint:
    """The ``/requests`` SSE feed of sampled request completions."""

    def _read_sse(self, port: int, path: str = "/requests",
                  until: bytes = b"\n\n") -> str:
        conn = socket.create_connection(("127.0.0.1", port),
                                        timeout=5.0)
        try:
            conn.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
            conn.settimeout(5.0)
            data = b""
            while not (until in data and data.endswith(b"\n\n")):
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data = data + chunk
        finally:
            conn.close()
        return data.decode("utf-8")

    def test_404_when_no_request_log_attached(self):
        with MetricsExporter(_bundle()) as exporter:
            assert exporter.request_log is None
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(exporter.url + "requests")
            assert err.value.code == 404
            err.value.close()

    def test_streams_attached_completion_records(self):
        records = [
            {"type": "request", "request_id": 0,
             "outcome": "completed", "latency_s": 0.25},
            {"type": "request", "request_id": 1,
             "outcome": "expired", "latency_s": 0.5},
        ]
        with MetricsExporter(_bundle(),
                             request_log=records) as exporter:
            text = self._read_sse(exporter.port,
                                  until=b'"request_id": 1')
            assert "Content-Type: text/event-stream" in text
            assert "event: request" in text
            payloads = [json.loads(line[len("data: "):])
                        for line in text.splitlines()
                        if line.startswith("data: ")]
            assert [p["request_id"] for p in payloads[:2]] == [0, 1]
            assert payloads[1]["outcome"] == "expired"

    def test_serving_run_feeds_live_endpoint(self):
        """End to end: a traced serving run's completion records are
        served after the run (the CLI attaches the same list before
        the run starts, so mid-run records stream live)."""
        from repro.serving import (DeviceConfig, Fleet, FleetScheduler,
                                   RequestTracer, SchedulerConfig,
                                   make_trace)
        from tests.conftest import build_small_cnn

        fleet = Fleet.build([DeviceConfig("tx2-0", "tx2")],
                            governor="powerlens", fleet_seed=7)
        fleet.add_graph(build_small_cnn("small_cnn"))
        tracer = RequestTracer()
        with MetricsExporter(
                _bundle(),
                request_log=tracer.completion_records) as exporter:
            trace = make_trace("poisson", rate_rps=20, duration_s=0.3,
                               models=["small_cnn"], seed=7)
            result = FleetScheduler(
                fleet, SchedulerConfig(policy="fifo"),
                sinks=[tracer]).run(trace)
            assert result.report.completed > 0
            last_id = tracer.completion_records[-1]["request_id"]
            text = self._read_sse(
                exporter.port,
                until=f'"request_id": {last_id}'.encode())
            payloads = [json.loads(line[len("data: "):])
                        for line in text.splitlines()
                        if line.startswith("data: ")]
            assert len(payloads) == len(tracer.completion_records)
            assert all(p["type"] == "request" for p in payloads)

    def test_stop_unblocks_stream_and_leaks_nothing(self):
        before = set(threading.enumerate())
        exporter = MetricsExporter(_bundle(), request_log=[]).start()
        conn = socket.create_connection(("127.0.0.1", exporter.port),
                                        timeout=5.0)
        conn.sendall(b"GET /requests HTTP/1.0\r\n\r\n")
        conn.settimeout(5.0)
        time.sleep(0.05)       # let the handler enter its poll loop
        exporter.stop()
        data = b""
        while True:
            try:
                chunk = conn.recv(4096)
            except OSError:
                break
            if not chunk:
                break
            data = data + chunk
        conn.close()
        assert b"exporter shutting down" in data
        leaked = [t for t in set(threading.enumerate()) - before
                  if t.is_alive()]
        assert leaked == []

    def test_port_reuse_after_stop(self):
        """Regression: a fresh exporter can rebind the port an earlier
        one just released (no TIME_WAIT bind failure)."""
        first = MetricsExporter(_bundle()).start()
        port = first.port
        _get(first.url + "healthz")
        first.stop()
        second = MetricsExporter(_bundle(), port=port).start()
        try:
            assert second.port == port
            status, _, body = _get(second.url + "healthz")
            assert (status, body) == (200, "ok\n")
        finally:
            second.stop()


class TestFlightRecorderExceptionPath:
    """Satellite: the final snapshot survives a crashing run."""

    _ARGS = ["serve-sim", "--devices", "tx2", "--rate", "10",
             "--duration", "0.2", "--seed", "3", "--models", "alexnet"]

    def test_final_snapshot_written_when_serve_sim_raises(
            self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli
        from repro.serving.scheduler import FleetScheduler

        def boom(self, trace, n_jobs=1):
            raise RuntimeError("mid-flight crash")

        monkeypatch.setattr(FleetScheduler, "run", boom)
        flight_dir = tmp_path / "fr"
        with pytest.raises(RuntimeError, match="mid-flight crash"):
            cli.main(self._ARGS
                     + ["--flight-recorder", str(flight_dir)])
        capsys.readouterr()
        files = sorted(flight_dir.glob("flight-*.json"))
        assert files, "no snapshot despite the crash"
        last = json.loads(files[-1].read_text())
        assert last["final"] is True
        assert last["format"] == "powerlens-flight"

    def test_write_failure_disarm_never_masks_the_crash(self, tmp_path):
        recorder = FlightRecorder(_bundle(), tmp_path / "fr",
                                  interval_s=60.0)
        recorder.start()
        recorder.directory = tmp_path / "gone" / "deeper"
        with pytest.raises(RuntimeError, match="original failure"):
            try:
                raise RuntimeError("original failure")
            finally:
                recorder.stop()   # write fails -> disarms, no raise
        assert recorder.failed is True

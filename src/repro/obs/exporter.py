"""Live metrics exporter and flight recorder (opt-in, stdlib-only).

Everything in :mod:`repro.obs` so far is post-hoc: spans and counters
are exported once the run finishes.  This module adds two *live* sinks,
both strictly observe-only and off by default:

:class:`MetricsExporter`
    A background-thread HTTP endpoint over the session's
    :class:`~repro.obs.Observability` bundle:

    * ``GET /metrics`` — Prometheus text exposition format 0.0.4
      (scrapable by an actual Prometheus);
    * ``GET /metrics.json`` — the registry's JSON snapshot;
    * ``GET /spans`` — a ``text/event-stream`` (SSE) feed of finished
      spans as they are recorded, for ad-hoc live tailing with
      ``curl``;
    * ``GET /requests`` — an SSE feed of sampled request-completion
      records when a serving run attaches its
      :class:`~repro.serving.request_trace.RequestTracer` (via
      :attr:`MetricsExporter.request_log`); 404 otherwise;
    * ``GET /healthz`` — liveness probe.

:class:`FlightRecorder`
    A file-based black box: every ``interval_s`` it writes a JSON
    snapshot of the metrics registry (plus span/drop accounting) into a
    bounded ring of ``flight-NNNNNN.json`` files, so a crashed or
    wedged run leaves behind its last known state.  A final snapshot is
    always written on clean stop.

Both are driven by the CLI (``--serve`` / ``--flight-recorder``, or the
``POWERLENS_EXPORTER_PORT`` / ``POWERLENS_FLIGHT_RECORDER`` environment
variables) and shut down cleanly: no leaked threads, no leaked sockets
(``tests/test_obs_exporter.py`` pins both).

Thread-safety note: tracers and registries are single-threaded by
design and the instrumented run never blocks on the exporter.  The
serving side therefore treats every read as a racy snapshot — it
retries the handful of "dict changed size during iteration" windows
instead of locking the hot path.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs import Observability

__all__ = ["MetricsExporter", "FlightRecorder",
           "ENV_EXPORTER_PORT", "ENV_FLIGHT_RECORDER"]

#: Environment variables the CLI consults (see ``repro.cli``).
ENV_EXPORTER_PORT = "POWERLENS_EXPORTER_PORT"
ENV_FLIGHT_RECORDER = "POWERLENS_FLIGHT_RECORDER"

#: How often the SSE feed polls the tracer for new spans (seconds).
SSE_POLL_S = 0.05

#: Attempts at snapshotting a registry mutated mid-iteration.
_SNAPSHOT_RETRIES = 5


def _snapshot(fn):
    """Call ``fn()`` tolerating concurrent single-threaded mutation."""
    for attempt in range(_SNAPSHOT_RETRIES):
        try:
            return fn()
        except RuntimeError:
            # "dictionary changed size during iteration" — the run is
            # minting a new metric while we serialize.  Snapshot again.
            if attempt == _SNAPSHOT_RETRIES - 1:
                raise
            time.sleep(0.001)


class _ExporterServer(ThreadingHTTPServer):
    """Threaded server whose daemon handler threads are still joinable:
    the stdlib only tracks (and joins on ``server_close``) non-daemon
    ones."""

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.handler_threads: List[threading.Thread] = []

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address),
                                  daemon=True)
        self.handler_threads = [t for t in self.handler_threads
                                if t.is_alive()] + [thread]
        thread.start()


class _ExporterHandler(BaseHTTPRequestHandler):
    """Request handler bound to the owning :class:`MetricsExporter`
    through the server instance."""

    #: Quiet by default; the exporter is a diagnostic tool, not a log
    #: source.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    server_version = "powerlens-exporter/1"
    protocol_version = "HTTP/1.0"

    @property
    def exporter(self) -> "MetricsExporter":
        return self.server.exporter  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = _snapshot(
                    self.exporter.obs.metrics.to_prometheus_text)
                self._respond(200, body,
                              "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/metrics.json":
                payload = _snapshot(self.exporter.obs.metrics.to_dict)
                self._respond(200, json.dumps(payload, sort_keys=True),
                              "application/json")
            elif path == "/healthz":
                self._respond(200, "ok\n", "text/plain; charset=utf-8")
            elif path == "/spans":
                self._stream_spans()
            elif path == "/requests":
                if self.exporter.request_log is None:
                    self._respond(404, "no request log attached\n",
                                  "text/plain; charset=utf-8")
                else:
                    self._stream_requests()
            else:
                self._respond(404, "not found\n",
                              "text/plain; charset=utf-8")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def _respond(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _stream_spans(self) -> None:
        """Server-sent events: replay buffered spans, then tail."""
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        exporter = self.exporter
        tracer = exporter.obs.tracer
        cursor = 0
        while not exporter._stopping.is_set():
            spans = _snapshot(lambda: tracer.spans)
            for span in spans[cursor:]:
                payload = json.dumps(span.to_record(), sort_keys=True)
                self.wfile.write(
                    f"event: span\ndata: {payload}\n\n".encode("utf-8"))
            if len(spans) > cursor:
                self.wfile.flush()
            cursor = len(spans)
            exporter._stopping.wait(SSE_POLL_S)
        # Final comment line so well-behaved clients see EOF, not an
        # abrupt reset.
        self.wfile.write(b": exporter shutting down\n\n")

    def _stream_requests(self) -> None:
        """SSE feed of sampled request-completion records: replay the
        buffered list, then tail it (same leak-free stop semantics as
        ``/spans`` — the loop re-checks ``_stopping`` every poll)."""
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        exporter = self.exporter
        cursor = 0
        while not exporter._stopping.is_set():
            log = exporter.request_log
            if log is None:
                break
            records = _snapshot(lambda: list(log))
            for record in records[cursor:]:
                payload = json.dumps(record, sort_keys=True)
                self.wfile.write(
                    f"event: request\ndata: {payload}\n\n"
                    .encode("utf-8"))
            if len(records) > cursor:
                self.wfile.flush()
            cursor = len(records)
            exporter._stopping.wait(SSE_POLL_S)
        self.wfile.write(b": exporter shutting down\n\n")


class MetricsExporter:
    """Opt-in HTTP endpoint over one observability bundle.

    Usage::

        with MetricsExporter(obs, port=0) as exporter:
            ...run...
            print(exporter.url)   # http://127.0.0.1:<ephemeral>/

    ``port=0`` binds an ephemeral port (the default — safe for tests
    and parallel runs); the bound port is available as :attr:`port`
    after :meth:`start`.  The server thread and every connection
    handler are daemons and are joined on :meth:`stop`, so a forgotten
    exporter can never hold the interpreter alive.
    """

    def __init__(self, obs: Observability, host: str = "127.0.0.1",
                 port: int = 0,
                 request_log: Optional[List[Dict[str, Any]]] = None
                 ) -> None:
        self.obs = obs
        self.host = host
        #: Append-only list of sampled request-completion records the
        #: ``/requests`` SSE endpoint tails (a serving run attaches its
        #: tracer's ``completion_records`` here; settable after start).
        self.request_log = request_log
        self._requested_port = port
        self._server: Optional[_ExporterServer] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("exporter is not running")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    # ------------------------------------------------------------------
    def start(self) -> "MetricsExporter":
        if self._server is not None:
            raise RuntimeError("exporter already started")
        self._stopping.clear()
        server = _ExporterServer((self.host, self._requested_port),
                                 _ExporterHandler)
        server.exporter = self  # type: ignore[attr-defined]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            name="powerlens-exporter", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Idempotent: stop serving, join every thread, close sockets."""
        server, thread = self._server, self._thread
        if server is None:
            return
        self._server, self._thread = None, None
        self._stopping.set()
        server.shutdown()
        if thread is not None:
            thread.join(timeout=5.0)
        server.server_close()
        # Bounded: the SSE loops re-check _stopping every poll interval.
        for handler in server.handler_threads:
            handler.join(timeout=5.0)

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class FlightRecorder:
    """Periodic metrics snapshots into a bounded ring of files.

    Snapshot files are ``flight-NNNNNN.json`` (monotonically numbered;
    the oldest are deleted once ``max_snapshots`` exist) in
    ``directory``.  Each holds::

        {"seq": 4, "wall_time": ..., "elapsed_s": ...,
         "spans": 1234, "spans_dropped": 0,
         "metrics": {...registry snapshot...}}

    The recorder thread is a daemon; :meth:`stop` wakes it, writes one
    final snapshot and joins.  Write errors never propagate into the
    instrumented run — the recorder disarms itself instead.
    """

    def __init__(self, obs: Observability, directory: Union[str, Path],
                 interval_s: float = 1.0,
                 max_snapshots: int = 32) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if max_snapshots < 1:
            raise ValueError("max_snapshots must be >= 1")
        self.obs = obs
        self.directory = Path(directory)
        self.interval_s = interval_s
        self.max_snapshots = max_snapshots
        self.seq = 0
        self.failed = False
        self._written: List[Path] = []
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._t0 = 0.0

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    def snapshot_files(self) -> List[Path]:
        """Snapshot files currently on disk, oldest first."""
        return sorted(self.directory.glob("flight-*.json"))

    # ------------------------------------------------------------------
    def start(self) -> "FlightRecorder":
        if self._thread is not None:
            raise RuntimeError("flight recorder already started")
        self.directory.mkdir(parents=True, exist_ok=True)
        self._stopping.clear()
        self._t0 = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="powerlens-flight-recorder",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Idempotent: final snapshot, then join the recorder thread."""
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        self._stopping.set()
        thread.join(timeout=5.0)
        self._write_snapshot(final=True)

    def __enter__(self) -> "FlightRecorder":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stopping.wait(self.interval_s):
            self._write_snapshot()

    def _write_snapshot(self, final: bool = False) -> None:
        if self.failed:
            return
        try:
            payload = self._payload(final)
            path = self.directory / f"flight-{self.seq:06d}.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(path)  # atomic: readers never see torn JSON
            self.seq += 1
            self._written.append(path)
            while len(self._written) > self.max_snapshots:
                oldest = self._written.pop(0)
                try:
                    oldest.unlink()
                except OSError:
                    pass
        except Exception:
            # A broken disk must not take the run down with it.
            self.failed = True

    def _payload(self, final: bool) -> Dict[str, Any]:
        tracer = self.obs.tracer
        metrics = _snapshot(self.obs.metrics.to_dict)
        counts = _snapshot(tracer.totals)
        return {
            "format": "powerlens-flight",
            "version": 1,
            "seq": self.seq,
            "final": final,
            "wall_time": time.time(),
            "elapsed_s": time.monotonic() - self._t0,
            "spans": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "span_totals": counts,
            "metrics": metrics,
        }

"""CLI observability integration: ``--trace``/``--metrics`` on a real
(tiny) experiment run, the ``powerlens trace`` replay command, and the
output byte-identity guarantee with observability on vs. off."""

import json

import pytest

from repro.cli import main
from repro.experiments import common
from repro.obs import read_trace, span_tree, summarize_trace
from repro.obs.metrics import MetricsRegistry
from tests.oracles import parse_prometheus_text

pytestmark = pytest.mark.obs

_ARGS = ["table1", "--networks", "6", "--no-cache", "--runs", "1",
         "--models", "alexnet"]


@pytest.fixture(autouse=True)
def _fresh_context_cache(monkeypatch):
    """Each test fits its own tiny context (so fit-time spans land in
    the test's own trace, not a session-cached one)."""
    monkeypatch.setattr(common, "_CONTEXT_CACHE", {})


def test_traced_run_emits_valid_jsonl_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    prom_path = tmp_path / "run.prom"
    code = main(_ARGS + ["--trace", str(trace_path),
                         "--metrics", str(prom_path)])
    assert code == 0
    assert "Table 1" in capsys.readouterr().out

    # Every line of the trace file is one valid JSON object.
    lines = trace_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "meta"
    assert records[-1]["type"] == "metrics"

    trace = read_trace(trace_path)
    assert trace.malformed_lines == 0
    names = {rec["name"] for rec in trace.spans}
    # The span tree covers the offline pipeline end to end.
    assert {"fit", "generate", "label_network", "distance", "cluster",
            "evaluate", "train", "analyze"} <= names
    roots = {node.name for node in span_tree(trace.spans)}
    assert "fit" in roots and "analyze" in roots

    # The metrics snapshot round-trips through both exporters.
    snapshot = trace.metrics
    assert snapshot is not None
    text = json.dumps(snapshot.to_dict(), sort_keys=True)
    assert MetricsRegistry.from_dict(json.loads(text)).to_dict() == \
        snapshot.to_dict()
    reparsed = parse_prometheus_text(prom_path.read_text())
    assert reparsed.counter(
        "powerlens_networks_labeled_total").value == 6
    assert reparsed.get("powerlens_dvfs_switch_stall_seconds").count > 0
    # The standalone .prom file is the same snapshot the trace carries.
    assert reparsed.to_prometheus_text() == snapshot.to_prometheus_text()


def test_trace_subcommand_summarizes(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    assert main(_ARGS + ["--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "span(s)" in out
    assert "span tree:" in out
    assert "label_network" in out
    # Same renderer the library exposes.
    assert out.strip() == summarize_trace(read_trace(trace_path)).strip()


def test_cli_output_byte_identical_with_and_without_trace(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    """--trace/--metrics are observe-only: the printed table must not
    change by a byte."""
    assert main(list(_ARGS)) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(common, "_CONTEXT_CACHE", {})
    assert main(_ARGS + ["--trace", str(tmp_path / "t.jsonl"),
                         "--metrics", str(tmp_path / "t.prom")]) == 0
    traced = capsys.readouterr().out
    assert traced == plain


class TestExportOnCrash:
    """``--trace``/``--metrics`` are written as the command ends, also
    when it raises: the files are the crashed run's post-mortem."""

    _SERVE = ["serve-sim", "--devices", "tx2", "--rate", "10",
              "--duration", "0.2", "--seed", "3", "--models", "alexnet"]

    @pytest.fixture()
    def crashing_run(self, monkeypatch):
        from repro.serving.scheduler import FleetScheduler

        def boom(self, trace):
            raise RuntimeError("mid-run crash")

        monkeypatch.setattr(FleetScheduler, "run", boom)

    def test_serve_sim_crash_still_writes_trace_and_metrics(
            self, crashing_run, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        prom_path = tmp_path / "run.prom"
        with pytest.raises(RuntimeError, match="mid-run crash"):
            main(self._SERVE + ["--trace", str(trace_path),
                                "--metrics", str(prom_path)])
        err = capsys.readouterr().err
        assert f"trace written to {trace_path}" in err
        assert f"metrics written to {prom_path}" in err
        trace = read_trace(trace_path)
        assert trace.malformed_lines == 0
        assert trace.metrics is not None
        parse_prometheus_text(prom_path.read_text())

    def test_unwritable_export_never_masks_the_crash(
            self, crashing_run, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        with pytest.raises(RuntimeError, match="mid-run crash"):
            main(self._SERVE + ["--trace", str(missing / "run.jsonl"),
                                "--metrics", str(missing / "run.prom")])
        err = capsys.readouterr().err
        assert "could not write observability output after " \
               "RuntimeError" in err
        assert not missing.exists()

    def test_unwritable_export_of_a_clean_run_raises(self, tmp_path,
                                                     capsys):
        """Without a crash to preserve, a failed export is the error."""
        with pytest.raises(OSError):
            main(self._SERVE + ["--metrics",
                                str(tmp_path / "no" / "run.prom")])
        capsys.readouterr()

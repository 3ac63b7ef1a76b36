"""``powerlens serve-sim``: end-to-end CLI behaviour.

Covers the acceptance scenario — a seeded 2-device (TX2 + AGX) Poisson
run is deterministic from the command line (byte-identical event logs
and stdout across invocations) — plus the JSON output mode, the
``--metrics`` file sink, the fleet registry's Prometheus text, and the
input contract: a degenerate numeric flag runs conserved or exits 2.
"""

import json
import math

import pytest

import repro.cli as cli
from repro.obs import Observability
from repro.serving import (RecoveryConfig, Request, SchedulerConfig,
                           make_trace)
from tests.oracles import parse_prometheus_text

pytestmark = pytest.mark.serving

_ARGS = ["serve-sim", "--devices", "tx2,agx", "--rate", "15",
         "--duration", "0.5", "--seed", "7", "--models", "alexnet"]


def test_serve_sim_cli_is_deterministic(tmp_path, capsys):
    """Same flags twice: identical stdout and event-log bytes."""
    log1, log2 = tmp_path / "ev1.jsonl", tmp_path / "ev2.jsonl"
    assert cli.main(_ARGS + ["--event-log", str(log1)]) == 0
    out1 = capsys.readouterr().out
    assert cli.main(_ARGS + ["--event-log", str(log2)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert "serving: poisson arrivals" in out1
    assert log1.read_bytes() == log2.read_bytes()
    events = [json.loads(line)
              for line in log1.read_text().splitlines()]
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert {e["event"] for e in events} >= {"admit", "dispatch",
                                            "complete"}


def test_serve_sim_cli_json_and_metrics_file(tmp_path, capsys):
    metrics_file = tmp_path / "serve.prom"
    rc = cli.main(_ARGS + ["--json", "--policy", "energy",
                           "--metrics", str(metrics_file)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["policy"] == "energy"
    assert report["conserved"] is True
    assert report["arrived"] == (report["admitted"]
                                 + report["dropped_queue_full"])
    parsed = parse_prometheus_text(metrics_file.read_text())
    assert parsed.counter(
        "powerlens_serving_requests_total").value == report["arrived"]
    assert parsed.counter(
        "powerlens_serving_completed_total").value == report["completed"]


def test_serve_sim_cli_rejects_bad_flags(capsys):
    assert cli.main(["serve-sim", "--devices", " , "]) == 2
    assert "at least one platform preset" in capsys.readouterr().err
    assert cli.main(["serve-sim", "--governor", "warp-drive"]) == 2
    assert "unknown serving governor" in capsys.readouterr().err


def test_serve_sim_has_no_jobs_flag(capsys):
    """Serving runs on one thread: ``--jobs`` is an unknown argument."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["serve-sim", "--devices", "tx2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_fleet_metrics_prometheus_text_matches_report():
    """The fleet run's merged registry, rendered as Prometheus text,
    counts the report's requests and the run's jobs."""
    from repro.serving import (DeviceConfig, Fleet, FleetScheduler,
                               SchedulerConfig, make_trace)
    from tests.conftest import build_small_cnn

    obs = Observability.enabled_bundle()
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2")],
                        governor="powerlens", fleet_seed=2)
    fleet.add_graph(build_small_cnn("small_cnn"))
    trace = make_trace("poisson", rate_rps=30.0, duration_s=0.4,
                       models=["small_cnn"], seed=2)
    result = FleetScheduler(fleet, SchedulerConfig(), obs=obs).run(trace)

    parsed = parse_prometheus_text(obs.metrics.to_prometheus_text())
    assert parsed.counter("powerlens_serving_requests_total").value \
        == result.report.arrived
    assert parsed.counter("powerlens_serving_jobs_total").value \
        == len(result.dispatches)


_STORM_ARGS = ["serve-sim", "--devices", "tx2,tx2", "--rate", "20",
               "--duration", "0.5", "--seed", "3", "--models",
               "alexnet", "--fault-profile",
               "telemetry_noise_std=0.8,switch_drop_rate=0.2"]


def test_serve_sim_cli_recovery_flag(tmp_path, capsys):
    """``--recovery`` turns drains into cooldown/probe cycles from the
    command line, deterministically."""
    rc = cli.main(_STORM_ARGS + ["--json"])
    assert rc == 0
    without = json.loads(capsys.readouterr().out)
    log1, log2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    rc = cli.main(_STORM_ARGS + ["--json", "--recovery",
                                 "--recovery-cooldown", "0.05",
                                 "--event-log", str(log1)])
    assert rc == 0
    with_recovery = json.loads(capsys.readouterr().out)
    assert with_recovery["conserved"] is True
    assert with_recovery["completed"] >= without["completed"]
    assert cli.main(_STORM_ARGS + ["--json", "--recovery",
                                   "--recovery-cooldown", "0.05",
                                   "--event-log", str(log2)]) == 0
    capsys.readouterr()
    assert log1.read_bytes() == log2.read_bytes()
    kinds = {json.loads(line)["event"]
             for line in log1.read_text().splitlines()}
    assert "cooldown" in kinds and "probe" in kinds


def test_serve_sim_cli_adaptive_governor(capsys):
    """The adaptive governor is selectable and zero-fault output is
    identical to the static preset runtime."""
    base = ["serve-sim", "--devices", "tx2,agx", "--rate", "15",
            "--duration", "0.5", "--seed", "7", "--models", "alexnet"]
    assert cli.main(base + ["--governor", "powerlens"]) == 0
    static_out = capsys.readouterr().out
    assert cli.main(base + ["--governor", "powerlens-adaptive"]) == 0
    adaptive_out = capsys.readouterr().out
    assert "governor powerlens-adaptive" in adaptive_out
    assert (static_out.replace("governor powerlens", "G")
            == adaptive_out.replace("governor powerlens-adaptive", "G"))


#: Every numeric ``serve-sim`` flag, with the flags it needs to matter.
_NUMERIC_FLAGS = {
    "--rate": [], "--duration": [], "--seed": [], "--images": [],
    "--sparsities": [], "--slo": [], "--max-batch": [],
    "--queue-capacity": [],
    "--recovery-cooldown": ["--recovery"],
    "--probation": ["--recovery"],
    "--trace-sample": ["--request-trace"],
    "--burn-slo": [],
    "--burn-fast": ["--burn-slo", "0.99"],
    "--burn-slow": ["--burn-slo", "0.99"],
    "--burn-threshold": ["--burn-slo", "0.99"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("flag", sorted(_NUMERIC_FLAGS))
def test_serve_sim_numeric_flag_contract(flag, value, tmp_path, capsys):
    """A degenerate numeric flag either runs with every request
    accounted for or exits 2 with a one-line message: never a hang, a
    traceback or a silently lost request."""
    extra = list(_NUMERIC_FLAGS[flag])
    if extra == ["--request-trace"]:
        extra.append(str(tmp_path / "trace.jsonl"))
    argv = (["serve-sim", "--devices", "tx2", "--models", "alexnet",
             "--rate", "8", "--duration", "0.5", "--json"]
            + extra + [flag, value])
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects non-integers
        rc = exc.code
    captured = capsys.readouterr()
    if rc == 0:
        assert json.loads(captured.out)["conserved"] is True
    else:
        assert rc == 2
        assert "Traceback" not in captured.err
        assert "serve-sim" in captured.err.strip().splitlines()[-1]


@pytest.mark.parametrize("kind", ["poisson", "bursty"])
@pytest.mark.parametrize("rate, duration", [
    (math.inf, 4.0), (1e308, 4.0), (math.nan, 4.0), (4.0, math.nan),
    (4.0, math.inf), (1e7, 1.0)])
def test_trace_generators_reject_unbounded_horizons(kind, rate, duration):
    """A rate or horizon with no finite arrival count used to spin the
    generator forever (``expovariate(inf)`` is 0.0)."""
    with pytest.raises(ValueError):
        make_trace(kind, rate_rps=rate, duration_s=duration,
                   models=["alexnet"])


def test_serving_configs_reject_nan():
    with pytest.raises(ValueError):
        Request(request_id=0, t_arrival=0.0, model="alexnet",
                slo_latency_s=math.nan)
    with pytest.raises(ValueError):
        Request(request_id=0, t_arrival=math.nan, model="alexnet")
    with pytest.raises(ValueError):
        SchedulerConfig(cpu_work_per_image=math.nan)
    with pytest.raises(ValueError):
        RecoveryConfig(cooldown_s=math.nan)
    # inf stays the best-effort SLO
    assert Request(request_id=0, t_arrival=0.0,
                   model="alexnet").deadline == math.inf

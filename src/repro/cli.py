"""Command-line interface: ``powerlens <command>``.

Commands map one-to-one onto the experiment drivers so every table and
figure of the paper can be regenerated from a shell::

    powerlens table1 --platform tx2 --runs 10
    powerlens table2 --platform agx
    powerlens table3 --platform tx2
    powerlens figure1 --model resnet152
    powerlens figure5 --tasks 20
    powerlens accuracy --networks 400
    powerlens analyze --model vgg19 --platform tx2
    powerlens robustness --platform tx2 --fault-profile representative
    powerlens ledger --model resnet152 --batches 4
    powerlens models

``--fault-profile`` (robustness) takes ``none``, ``representative``
(the default: 5 % dropped switches, 2 % telemetry dropouts and one
floor-clamping thermal window sized from the measured fault-free run)
or an explicit ``key=value,...`` spec, e.g.
``switch_drop_rate=0.05,telemetry_drop_rate=0.02,cap=0.25:0.6:6``.
A spec with ``worker_failure_rate > 0`` exits 2: only dataset
generation injects worker faults, and no command generates datasets
under the profile.

Observability: every experiment command accepts ``--trace out.jsonl``
(JSONL span trace of the whole run, metrics snapshot appended) and
``--metrics out.prom`` (Prometheus-style text exposition).  Both are
observe-only — results are byte-identical with or without them — and
both are written when the command ends, also when it raises, so a
crashed run leaves its post-mortem.  A written trace is replayed
with::

    powerlens trace out.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _add_platform(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", default="tx2",
                        choices=["tx2", "agx"],
                        help="hardware preset (default: tx2)")


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSONL span trace of this run "
                             "(replay with 'powerlens trace PATH')")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write run metrics as Prometheus-style "
                             "text exposition")


def _add_networks(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--networks", type=int, default=300,
                        help="synthetic training corpus size "
                             "(paper: 8000; default: 300)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="dataset-generation worker processes; "
                             "0 = one per CPU (default: 1; output is "
                             "identical at any value)")
    parser.add_argument("--no-cache", action="store_true",
                        help="regenerate datasets even when a cached "
                             "copy exists")
    parser.add_argument("--cache-dir", default=None,
                        help="dataset cache directory (default: "
                             "~/.cache/powerlens/datasets)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerlens",
        description="PowerLens (DAC 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="energy-efficiency improvement "
                                      "per model (Table 1)")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)
    p.add_argument("--runs", type=int, default=10,
                   help="randomized runs per EE test (paper: 50)")
    p.add_argument("--models", nargs="*", default=None)

    p = sub.add_parser("table2", help="clustering ablation (Table 2)")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--models", nargs="*", default=None)

    p = sub.add_parser("table3", help="offline overhead (Table 3)")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)

    p = sub.add_parser("figure1", help="ping-pong/lag trace (Figure 1)")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)
    p.add_argument("--model", default="resnet152")

    p = sub.add_parser("figure5", help="task-flow processing (Figure 5)")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)
    p.add_argument("--tasks", type=int, default=100)

    p = sub.add_parser("accuracy", help="prediction-model accuracy "
                                        "(section 2.2)")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)

    p = sub.add_parser("analyze", help="show the power view and plan "
                                       "for one model")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)
    p.add_argument("--model", default="resnet152")

    p = sub.add_parser("robustness",
                       help="EE-gain retention under injected faults "
                            "(resilient vs. naive preset runtime)")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)
    p.add_argument("--runs", type=int, default=10,
                   help="randomized runs per EE test")
    p.add_argument("--models", nargs="*", default=None)
    p.add_argument("--fault-profile", default="representative",
                   help="'none', 'representative' or a key=value,... "
                        "spec (cap windows as cap=start:end:level)")
    p.add_argument("--scales", nargs="*", type=float, default=None,
                   help="fault-profile multipliers to sweep "
                        "(default: 0 0.5 1 2)")
    p.add_argument("--adaptive", action="store_true",
                   help="run the adaptive-retention sweep instead: "
                        "AdaptivePresetGovernor vs the static preset "
                        "under workload drift (no fitted lens needed)")
    p.add_argument("--family", action="store_true",
                   help="run the drift-retention sweep (same harness "
                        "as --adaptive) and require the plan-family "
                        "runtime to beat both adaptive and static at "
                        "every fault scale (exit 1 otherwise)")
    p.add_argument("--json", action="store_true",
                   help="with --adaptive/--family: emit the retention "
                        "result as JSON instead of a table")

    p = sub.add_parser("ledger",
                       help="per-block energy attribution for one "
                            "simulated model run, reconciled against "
                            "the simulator's own totals")
    _add_platform(p)
    _add_networks(p)
    _add_obs(p)
    p.add_argument("--model", default="resnet152")
    p.add_argument("--batches", type=int, default=4,
                   help="inference batches to simulate (default: 4)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="batch size (default: the pipeline config's)")
    p.add_argument("--seed", type=int, default=0,
                   help="simulator noise seed (default: 0)")
    p.add_argument("--fault-profile", default="none",
                   help="'none' or a key=value,... fault spec to "
                        "inject during the attributed run")
    p.add_argument("--json", action="store_true",
                   help="emit the ledger as JSON instead of a table")

    p = sub.add_parser("serve-sim",
                       help="fleet-scale serving simulation: admit a "
                            "seeded arrival trace, batch/queue per "
                            "policy and dispatch across simulated "
                            "devices with an SLO report")
    _add_obs(p)
    p.add_argument("--devices", default="tx2,agx",
                   help="comma-separated platform presets, one fleet "
                        "device each (default: tx2,agx)")
    p.add_argument("--governor", default="powerlens",
                   help="per-device DVFS governor: any registry name, "
                        "'powerlens' (analytic preset plans; default), "
                        "'powerlens-adaptive' (preset plans plus "
                        "ledger-driven replanning between jobs), or "
                        "the input-aware 'powerlens-family' / "
                        "'powerlens-family-adaptive' (plans keyed by "
                        "batch and activation-sparsity bucket)")
    p.add_argument("--policy", default="fifo",
                   choices=["fifo", "slo", "deadline", "energy"],
                   help="queueing policy (default: fifo)")
    p.add_argument("--arrivals", default="poisson",
                   choices=["poisson", "bursty"],
                   help="arrival-trace generator (default: poisson)")
    p.add_argument("--rate", type=float, default=20.0,
                   help="mean arrival rate in requests/s (default: 20)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="trace horizon in seconds (default: 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="trace + fleet seed (default: 0)")
    p.add_argument("--models", nargs="*", default=["alexnet"],
                   help="model names requests draw from "
                        "(default: alexnet)")
    p.add_argument("--images", type=int, default=8,
                   help="images per request (default: 8)")
    p.add_argument("--sparsities", nargs="*", type=float, default=None,
                   help="activation-sparsity values requests draw from "
                        "(uniform, dedicated seed stream); also the "
                        "family governors' bucket edges (default: "
                        "dense requests only)")
    p.add_argument("--slo", type=float, default=None,
                   help="per-request latency SLO in seconds "
                        "(default: best-effort)")
    p.add_argument("--max-batch", type=int, default=4,
                   help="max requests coalesced into one job "
                        "(default: 4)")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="waiting-queue capacity (default: 64)")
    p.add_argument("--fault-profile", default="none",
                   help="'none' or a key=value,... fault spec injected "
                        "on every device")
    p.add_argument("--recovery", action="store_true",
                   help="re-admit drained devices via cooldown → "
                        "probe → probation instead of permanent drain")
    p.add_argument("--recovery-cooldown", type=float, default=0.5,
                   help="initial recovery cooldown in seconds, doubled "
                        "per failed attempt (default: 0.5)")
    p.add_argument("--probation", type=int, default=2,
                   help="clean jobs a re-admitted device must serve "
                        "before full recovery (default: 2)")
    p.add_argument("--event-log", metavar="PATH", default=None,
                   help="write the canonical JSONL event log "
                        "(byte-identical across repeated runs)")
    p.add_argument("--request-trace", metavar="PATH", default=None,
                   help="write sampled per-request span trees as JSONL "
                        "(admit/queued/batched/dispatched; replay with "
                        "'powerlens trace PATH'); observe-only — the "
                        "event log stays byte-identical")
    p.add_argument("--trace-sample", metavar="RATE", type=float,
                   default=1.0,
                   help="head-sampling rate in [0,1] for "
                        "--request-trace (seeded per request id; SLO "
                        "violations and drops are always kept; "
                        "default: 1.0)")
    p.add_argument("--timeline", metavar="PATH", default=None,
                   help="write a Chrome/Perfetto trace_event JSON "
                        "timeline of the run (devices, queue depth, "
                        "sampled requests; open at chrome://tracing "
                        "or ui.perfetto.dev)")
    p.add_argument("--burn-slo", metavar="OBJECTIVE", type=float,
                   default=None,
                   help="enable the SLO burn-rate monitor with this "
                        "availability objective, e.g. 0.99 "
                        "(multi-window error-budget burn alerts; "
                        "observe-only)")
    p.add_argument("--burn-fast", metavar="SECONDS", type=float,
                   default=None,
                   help="fast burn window in virtual seconds "
                        "(default: duration/4)")
    p.add_argument("--burn-slow", metavar="SECONDS", type=float,
                   default=None,
                   help="slow burn window in virtual seconds "
                        "(default: duration)")
    p.add_argument("--burn-threshold", type=float, default=4.0,
                   help="burn-rate alert threshold; both windows must "
                        "exceed it (default: 4.0)")
    p.add_argument("--json", action="store_true",
                   help="emit the SLO report as JSON instead of a "
                        "table")

    p = sub.add_parser("trace", help="summarize a JSONL span trace "
                                     "written with --trace")
    p.add_argument("file", help="trace file (JSON Lines)")
    p.add_argument("--depth", type=int, default=4,
                   help="span-tree depth to render (default: 4)")

    p = sub.add_parser("timeline",
                       help="analyze a serving event log (serve-sim "
                            "--event-log): critical-path breakdown, "
                            "per-device occupancy, top-k slowest "
                            "requests, optional Chrome trace export")
    p.add_argument("file", help="serving event log (JSON Lines)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the Chrome/Perfetto trace_event "
                        "JSON to PATH")
    p.add_argument("--top", type=int, default=10,
                   help="slowest requests to list (default: 10)")
    p.add_argument("--json", action="store_true",
                   help="emit the breakdown as JSON instead of a "
                        "table")

    sub.add_parser("models", help="list available model names")
    return parser


def _export_obs(obs, args, crash: Optional[BaseException]) -> None:
    """Write the session ``--trace`` / ``--metrics`` files, if requested.

    Runs once, as the command ends.  After a ``crash`` the files are the
    post-mortem, and a failure to write them is reported on stderr
    instead of replacing the crash."""
    if obs is None:
        return
    try:
        if args.trace:
            obs.tracer.export_jsonl(args.trace, metrics=obs.metrics)
            print(f"trace written to {args.trace}", file=sys.stderr)
        if args.metrics:
            from pathlib import Path
            Path(args.metrics).write_text(obs.metrics.to_prometheus_text())
            print(f"metrics written to {args.metrics}", file=sys.stderr)
    except Exception as exc:
        if crash is None:
            raise
        print(f"powerlens: could not write observability output after "
              f"{type(crash).__name__}: {exc}", file=sys.stderr)


def _cmd_trace(args) -> int:
    from repro.obs import read_trace, summarize_trace
    try:
        trace = read_trace(args.file)
    except OSError as exc:
        print(f"powerlens trace: cannot read {args.file}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    if not trace.spans and trace.malformed_lines:
        # A serving event log has no span records at all — every line
        # counts as "malformed" here.  Recognize the shape and point at
        # the right tool instead of printing an empty summary.
        from repro.obs.timeline import (looks_like_event_log,
                                        read_event_log,
                                        summarize_serving_events)
        events, _ = read_event_log(args.file)
        if events and looks_like_event_log(events):
            print(summarize_serving_events(events))
            print(f"\nthis is a serving event log, not a span trace — "
                  f"run 'powerlens timeline {args.file}' for the "
                  f"critical-path breakdown and Chrome trace export.")
            return 0
    print(summarize_trace(trace, max_depth=args.depth))
    return 0


def _cmd_timeline(args) -> int:
    from repro.obs.timeline import (ServingTimeline, read_event_log,
                                    validate_chrome_trace)
    try:
        events, malformed = read_event_log(args.file)
    except OSError as exc:
        print(f"powerlens timeline: cannot read {args.file}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    if not events:
        print(f"powerlens timeline: {args.file} contains no serving "
              f"events (expected a serve-sim --event-log file)",
              file=sys.stderr)
        return 1
    if malformed:
        print(f"warning: skipped {malformed} malformed line(s)",
              file=sys.stderr)
    timeline = ServingTimeline.from_events(events)
    if args.out:
        import json
        from pathlib import Path
        payload = timeline.to_chrome_trace()
        validate_chrome_trace(payload)
        Path(args.out).write_text(json.dumps(payload, sort_keys=True))
        print(f"chrome trace written to {args.out} (open at "
              f"chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)
    if args.json:
        import json
        rows = timeline.critical_path_rows()
        payload = {
            "events": timeline.n_events,
            "requests": len(timeline.requests),
            "completed": len(rows),
            "makespan_s": timeline.makespan_s,
            "devices": {
                name: {"jobs": len(track.jobs),
                       "probes": len(track.probes),
                       "busy_s": track.busy_s}
                for name, track in sorted(timeline.devices.items())},
            "slowest": [
                {"request_id": r.request_id, "model": r.model,
                 "device": r.device, "latency_s": r.latency_s,
                 "queue_s": r.queue_s, "batch_s": r.batch_s,
                 "service_s": r.service_s, "slo_ok": r.slo_ok}
                for r in rows[:args.top]],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(timeline.format_report(top_k=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "models":
        from repro.models import list_models
        print("\n".join(list_models()))
        return 0

    if args.command == "trace":
        return _cmd_trace(args)

    if args.command == "timeline":
        return _cmd_timeline(args)

    # Observe-only session bundle, built only when asked for — the
    # default path carries the shared no-op bundle through every layer.
    obs = None
    if args.trace or args.metrics:
        from repro.obs import Observability
        obs = Observability.enabled_bundle()

    crash = None
    try:
        return _dispatch(args, obs)
    except BaseException as exc:
        crash = exc
        raise
    finally:
        _export_obs(obs, args, crash)


def _fault_profile(args):
    """``--fault-profile`` parsed, or ``None`` for the command's
    default: ``representative`` for ``robustness`` (the sweeps size the
    thermal-cap window from the measured fault-free run), ``none``
    elsewhere.  A malformed spec raises ``ValueError``."""
    from repro.hw import FaultProfile

    spec = args.fault_profile.strip().lower()
    default = (("representative", "rep") if args.command == "robustness"
               else ("", "none"))
    return None if spec in default else FaultProfile.parse(
        args.fault_profile)


def _cmd_serve_sim(args, obs, faults) -> int:
    import json as _json

    from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
    from repro.serving import (DeviceConfig, Fleet, FleetScheduler,
                               RecoveryConfig, RequestTracer,
                               SamplingConfig, SchedulerConfig,
                               make_policy, make_trace)

    presets = [p.strip() for p in args.devices.split(",") if p.strip()]
    if not presets:
        print("powerlens serve-sim: --devices must name at least one "
              "platform preset", file=sys.stderr)
        return 2
    configs = [DeviceConfig(name=f"{preset}-{i}", platform=preset)
               for i, preset in enumerate(presets)]

    sparsities = getattr(args, "sparsities", None)
    sparsity_edges = (0.0,)
    if sparsities:
        sparsity_edges = tuple(sorted({0.0} | {float(s)
                                              for s in sparsities}))
    # Every config error takes the one-line exit-2 path.
    try:
        fleet = Fleet.build(configs, governor=args.governor,
                            fleet_seed=args.seed, faults=faults,
                            sparsity_edges=sparsity_edges)
        trace = make_trace(args.arrivals, rate_rps=args.rate,
                           duration_s=args.duration, models=args.models,
                           seed=args.seed,
                           slo_latency_s=(args.slo if args.slo is not None
                                          else float("inf")),
                           images_per_request=args.images,
                           sparsity_choices=sparsities or None)
        recovery = None
        if args.recovery:
            recovery = RecoveryConfig(cooldown_s=args.recovery_cooldown,
                                      probation_jobs=args.probation)
        config = SchedulerConfig(policy=args.policy,
                                 max_batch=args.max_batch,
                                 queue_capacity=args.queue_capacity,
                                 recovery=recovery)
        sampling = None
        if args.request_trace or args.timeline:
            sampling = SamplingConfig(head_rate=args.trace_sample,
                                      seed=args.seed)
        burn_config = None
        if args.burn_slo is not None:
            fast = (args.burn_fast if args.burn_fast is not None
                    else max(args.duration / 4.0, 1e-3))
            slow = (args.burn_slow if args.burn_slow is not None
                    else max(args.duration, fast))
            burn_config = BurnRateConfig(
                objective=args.burn_slo, fast_window_s=fast,
                slow_window_s=slow, threshold=args.burn_threshold)
    except (KeyError, ValueError) as exc:
        print(f"powerlens serve-sim: {exc}", file=sys.stderr)
        return 2

    # Event-log projections riding the run as scheduler sinks: the
    # request tracer (sampled span trees and the timeline) and the
    # burn-rate monitor.
    tracer = None
    if sampling is not None:
        tracer = RequestTracer(sampling, requests=trace.requests,
                               healthy_devices=len(fleet),
                               policy=make_policy(args.policy).name)
    burn = None if burn_config is None else BurnRateMonitor(burn_config)

    projections = [p for p in (tracer, burn) if p is not None]
    scheduler = FleetScheduler(fleet, config, obs=obs,
                               sinks=projections)
    result = scheduler.run(trace)
    if obs is not None:
        for projection in projections:
            obs.metrics.merge(projection.metrics())

    if args.event_log:
        from pathlib import Path
        Path(args.event_log).write_text(result.event_log())
        print(f"event log written to {args.event_log}", file=sys.stderr)
    if tracer is not None and args.request_trace:
        tracer.export_jsonl(args.request_trace, burn=burn)
        print(f"request trace written to {args.request_trace} "
              f"({tracer.sampled_count}/{tracer.requests_seen} "
              f"requests sampled)", file=sys.stderr)
    if args.timeline:
        from pathlib import Path

        if burn is not None:
            tracer.add_burn_spans(burn.span_rows())
        payload = tracer.to_chrome_trace(
            sampled_ids={row.request_id for row in tracer.traces()})
        Path(args.timeline).write_text(
            _json.dumps(payload, sort_keys=True))
        print(f"timeline written to {args.timeline} (open at "
              f"chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)
    if burn is not None:
        digest = burn.summary()
        print(f"slo burn: {digest['alerts']} alert(s), peak fast burn "
              f"{digest['peak_fast_burn']:.2f}, peak slow burn "
              f"{digest['peak_slow_burn']:.2f} "
              f"(objective {digest['objective']:g}, threshold "
              f"{digest['threshold']:g})", file=sys.stderr)

    if args.json:
        print(_json.dumps(result.report.to_dict(), indent=1,
                          sort_keys=True))
    else:
        print(result.report.format_table())
    return 0


def _cmd_adaptive_robustness(args, profile) -> int:
    """``powerlens robustness --adaptive`` / ``--family``: the
    drift-retention sweep.

    Runs on analytic plans, so — unlike the classic robustness sweep —
    no fitted lens (and no dataset generation) is needed; CI uses it as
    a fast closed-loop smoke.  With ``--family`` the command also
    *asserts* the input-aware ordering — family EE >= adaptive EE >=
    static EE at every swept fault scale — and exits 1 when any scale
    violates it."""
    import json as _json

    from repro.experiments.adaptive import run_adaptive_retention

    kwargs = {}
    if args.scales:
        kwargs["scales"] = args.scales
    result = run_adaptive_retention(args.platform, profile=profile,
                                    **kwargs)
    if args.json:
        print(_json.dumps(result.to_dict(), indent=1, sort_keys=True))
    else:
        print(result.format_table())
    if args.family:
        violations = [
            s for i, s in enumerate(result.scales)
            if not (result.ee["family"][i] >= result.ee["adaptive"][i]
                    >= result.ee["static"][i])
        ]
        if violations:
            print("powerlens robustness --family: ordering "
                  "family >= adaptive >= static violated at scale(s) "
                  + ", ".join(f"{s:g}" for s in violations),
                  file=sys.stderr)
            return 1
        print("family >= adaptive >= static holds at every scale",
              file=sys.stderr)
    return 0


def _dispatch(args, obs) -> int:
    faults = None
    if hasattr(args, "fault_profile"):
        # Before any fitting: a bad spec costs no dataset generation.
        try:
            faults = _fault_profile(args)
        except ValueError as exc:
            print(f"powerlens {args.command}: {exc}", file=sys.stderr)
            return 2
        if faults is not None and faults.worker_failure_rate > 0:
            print(f"powerlens {args.command}: worker_failure_rate has no "
                  f"effect here (only dataset generation injects worker "
                  f"faults)", file=sys.stderr)
            return 2
    if args.command == "serve-sim":
        return _cmd_serve_sim(args, obs, faults)
    if args.command == "robustness" and (args.adaptive or args.family):
        return _cmd_adaptive_robustness(args, faults)

    # Everything else needs a fitted context.  The CLI caches generated
    # datasets by default (the library default is off): repeated table /
    # figure regenerations share one corpus per configuration.
    from repro.core.persistence import default_cache_dir
    from repro.experiments.common import get_context

    n_jobs = args.jobs  # 0 = auto (one worker per CPU)
    use_cache = not args.no_cache
    cache_dir = args.cache_dir
    if cache_dir is None and use_cache:
        cache_dir = str(default_cache_dir())

    if args.command == "accuracy":
        from repro.experiments import run_accuracy
        result = run_accuracy(args.platform, n_networks=args.networks,
                              n_jobs=n_jobs, use_cache=use_cache,
                              cache_dir=cache_dir, obs=obs)
        print(result.format_table())
        return 0

    ctx = get_context(args.platform, n_networks=args.networks,
                      n_jobs=n_jobs, use_cache=use_cache,
                      cache_dir=cache_dir, obs=obs)
    summary = getattr(ctx.lens, "training_summary", None)
    if summary is not None and summary.generation.n_quarantined:
        gen = summary.generation
        print(f"warning: {gen.n_quarantined} network(s) quarantined "
              f"during dataset generation after {gen.n_retries} "
              f"retries: {gen.quarantined}", file=sys.stderr)
    if summary is not None and summary.generation.stage_seconds:
        gen = summary.generation
        lines = gen.stage_lines()
        lines[0] += f" (generation wall time {gen.wall_time_s:.1f}s)"
        print("\n".join(lines), file=sys.stderr)

    if args.command == "table1":
        from repro.experiments import run_table1
        result = run_table1(args.platform, models=args.models,
                            n_runs=args.runs, context=ctx)
    elif args.command == "table2":
        from repro.experiments import run_table2
        result = run_table2(args.platform, models=args.models,
                            n_runs=args.runs, context=ctx)
    elif args.command == "table3":
        from repro.experiments import run_table3
        result = run_table3(args.platform, context=ctx)
    elif args.command == "figure1":
        from repro.experiments import run_figure1
        result = run_figure1(args.platform, model=args.model, context=ctx)
    elif args.command == "figure5":
        from repro.experiments import run_figure5
        result = run_figure5(args.platform, n_tasks=args.tasks,
                             context=ctx)
    elif args.command == "robustness":
        from repro.experiments import run_robustness
        kwargs = {}
        if args.scales:
            kwargs["scales"] = args.scales
        result = run_robustness(args.platform, models=args.models,
                                n_runs=args.runs, profile=faults,
                                context=ctx, **kwargs)
    elif args.command == "analyze":
        plan = ctx.lens.analyze(ctx.graph(args.model))
        print(plan.summary())
        return 0
    elif args.command == "ledger":
        from repro.experiments.common import run_model_ledger
        _, ledger = run_model_ledger(
            ctx, args.model, n_batches=args.batches,
            batch_size=args.batch_size, seed=args.seed, faults=faults)
        if args.json:
            import json
            print(json.dumps(ledger.to_dict(), indent=2))
        else:
            print(ledger.format_table())
        return 0
    else:  # pragma: no cover - argparse guards this
        return 2
    print(result.format_table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

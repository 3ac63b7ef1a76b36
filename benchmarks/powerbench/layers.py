"""Per-layer spans for a traced powerbench run.

A :class:`Probe` wraps, from outside the program, the public function
each layer exposes: every call becomes a span on the repository's own
:class:`repro.obs.tracing.Tracer`, held in memory and exported as JSON
Lines (readable by ``powerlens trace``) when the run ends.  Each wrapper
patches the binding its caller actually uses — ``label_network`` is
imported by name into ``repro.core.datasets``, so that module's name is
the one replaced.  Leaving the probe restores every binding.

Counters that a layer already keeps (trace segments, replan verdicts,
plan-cache hits, ...) are read off the wrapped calls' results, so the
probe adds no timing mechanism to the program.  :meth:`Probe.raw`
summarises the traced run as JSON, and :func:`layer_metrics` turns that
summary into the per-layer metrics.  Percentiles use the program's own
nearest-rank convention, the one its SLO report uses.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.obs.tracing import Tracer
from repro.serving.slo_report import nearest_rank

ROOT_SPAN = "powerbench.timed"

#: Spans whose per-call durations are kept, with the percentiles
#: reported for each (p50 and the highest percentile that has at least
#: ten calls beyond it on its busiest workload).
PERCENTILE_SPANS = {"core.labeling.label_network": (0.50, 0.95),
                    "serving.fleet.execute": (0.50, 0.99)}

#: (span name, module, attribute path) of every wrapped binding.
BINDINGS = (
    ("core.labeling.label_network", "repro.core.datasets",
     "label_network"),
    ("models.random_gen.generate", "repro.models.random_gen",
     "RandomDNNGenerator.generate"),
    ("core.features.extract", "repro.core.features",
     "GlobalFeatureExtractor.extract"),
    ("core.features.extract", "repro.core.features",
     "DepthwiseFeatureExtractor.extract_scaled"),
    ("hw.analytic.profile_table", "repro.hw.analytic",
     "AnalyticEvaluator.profile_table"),
    ("core.predictors.hyperparam_fit", "repro.core.predictors",
     "HyperparamPredictor.fit"),
    ("core.predictors.decision_fit", "repro.core.predictors",
     "DecisionModel.fit"),
    ("core.pipeline.analyze", "repro.core.pipeline", "PowerLens.analyze"),
    ("hw.simulator.run", "repro.hw.simulator", "InferenceSimulator.run"),
    ("obs.ledger.from_result", "repro.obs.ledger",
     "EnergyLedger.from_result"),
    ("governors.adaptive.observe_job", "repro.governors.adaptive",
     "AdaptivePresetGovernor.observe_job"),
    ("serving.fleet.execute", "repro.serving.fleet",
     "SimulatedDevice.execute"),
    ("serving.fleet.predict", "repro.serving.fleet",
     "SimulatedDevice.predict"),
    ("serving.fleet.prewarm", "repro.serving.fleet", "Fleet.prewarm"),
    ("serving.queueing.select_batch", "repro.serving.queueing",
     "FifoPolicy.select_batch"),
    ("serving.queueing.select_batch", "repro.serving.queueing",
     "DeadlinePolicy.select_batch"),
    ("serving.queueing.select_batch", "repro.serving.queueing",
     "EnergyAwarePolicy.select_batch"),
    ("serving.scheduler.run", "repro.serving.scheduler",
     "FleetScheduler.run"),
    ("serving.slo_report.from_run", "repro.serving.slo_report",
     "SLOReport.from_run"),
)

#: Fleet counters read from a serving run's merged metrics registry.
SERVING_COUNTERS = {
    "replan_proposed": "powerlens_replan_proposed_total",
    "replan_adopted": "powerlens_replan_adopted_total",
    "replan_rollbacks": "powerlens_replan_rollbacks_total",
    "switch_retries": "powerlens_runtime_switch_retries_total",
    "switch_failures": "powerlens_runtime_switch_failures_total",
}


def _is_static_run(sim, governor) -> bool:
    """The simulator's static fast-path predicate, evaluated on the
    arguments of one ``InferenceSimulator.run`` call."""
    return (sim.noise_std <= 0
            and sim.thermal_config is None
            and (sim.faults is None or sim.faults.is_zero)
            and getattr(governor, "supports_static_fast_path", False)
            and getattr(governor, "on_switch_result", None) is None)


class Probe:
    """Installs the span wrappers for the duration of a ``with`` block
    and records the whole block as the root span."""

    def __init__(self) -> None:
        self.tracer = Tracer(max_spans=10_000_000)
        self.counts: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.waits_s: List[float] = []
        self._restore: List[tuple] = []
        self._root: Optional[Any] = None
        self._hooks: Dict[str, Callable[..., None]] = {
            "core.labeling.label_network": self._on_labels,
            "core.predictors.hyperparam_fit": self._on_fit("hyperparam"),
            "core.predictors.decision_fit": self._on_fit("decision"),
            "hw.simulator.run": self._on_simulation,
            "serving.scheduler.run": self._on_serving,
        }

    # ------------------------------------------------------------------
    def __enter__(self) -> "Probe":
        for name, module, path in BINDINGS:
            self._patch(name, importlib.import_module(module), path)
        self._root = self.tracer.span(ROOT_SPAN)
        self._root.__enter__()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._root.__exit__(*exc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, name: str, module, path: str) -> None:
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__))
        else:
            wrapped = self._wrap(name, original)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        span = self.tracer.span
        hook = self._hooks.get(name)
        keep = self.durations[name].append \
            if name in PERCENTILE_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name) as sp:
                result = fn(*args, **kwargs)
            if keep is not None:
                keep(sp.duration)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters read off results ---------------------------------------
    def _on_labels(self, _args: tuple, _kwargs: dict, labels) -> None:
        for stage, seconds in (labels.stage_seconds or {}).items():
            self.counts[f"labeling_{stage}_s"] += seconds

    def _on_fit(self, model: str) -> Callable[..., None]:
        def hook(_args: tuple, _kwargs: dict, report) -> None:
            self.counts[f"{model}_epochs"] += report.epochs
        return hook

    def _on_simulation(self, args: tuple, kwargs: dict, result) -> None:
        sim = args[0]
        governor = args[2] if len(args) > 2 else kwargs["governor"]
        self.counts["sim_runs"] += 1
        self.counts["sim_static_runs"] += _is_static_run(sim, governor)
        self.counts["sim_segments"] += len(result.trace.segments)
        self.counts["sim_switches"] += result.switch_count

    def _on_serving(self, _args: tuple, _kwargs: dict, result) -> None:
        report = result.report
        counts = self.counts
        counts["serving_events"] += len(result.events)
        for event in result.events:
            if event["event"] == "dispatch":
                counts["serving_dispatches"] += 1
                counts["serving_batched_requests"] += event["n_requests"]
            elif event["event"] in ("drain", "redrain"):
                counts["serving_drains"] += 1
        for device in report.devices:
            counts["serving_anomalies"] += device.anomalies
            counts["serving_readmissions"] += device.readmissions
            counts["serving_plan_hits"] += device.plan_cache_hits
            counts["serving_plan_lookups"] += (device.plan_cache_hits
                                               + device.plan_cache_misses)
            counts["serving_busy_s"] += device.busy_time_s
        counts["serving_capacity_s"] += len(report.devices) \
            * report.makespan_s
        for key, metric in SERVING_COUNTERS.items():
            counter = result.metrics.get(metric)
            counts[key] += counter.value if counter is not None else 0
        self.waits_s.extend(o.queue_delay_s for o in result.outcomes)

    # ------------------------------------------------------------------
    def raw(self) -> Dict[str, Any]:
        """Summary of the traced block: per-span calls and self time,
        kept durations, counters and the root's unattributed time."""
        if self.tracer.dropped:
            raise RuntimeError(f"{self.tracer.dropped} spans dropped")
        spans = self.tracer.spans
        child_s: Dict[int, float] = defaultdict(float)
        for sp in spans:
            if sp.parent_id is not None:
                child_s[sp.parent_id] += sp.duration
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        root_s = unattributed_s = 0.0
        for sp in spans:
            own = sp.duration - child_s[sp.span_id]
            if sp.name == ROOT_SPAN:
                root_s, unattributed_s = sp.duration, own
                continue
            calls[sp.name] += 1
            self_s[sp.name] += own
        return {"calls": dict(calls), "self_s": dict(self_s),
                "durations_s": dict(self.durations),
                "counts": dict(self.counts), "waits_s": self.waits_s,
                "root_s": root_s, "unattributed_s": unattributed_s}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: Dict[str, Any],
                  trace_overhead_x: float) -> Dict[str, float]:
    """Per-layer metrics of the traced run whose :meth:`Probe.raw`
    summary is ``raw`` (a layer idle on a workload reads 0)."""
    calls = defaultdict(int, raw["calls"])
    self_s = defaultdict(float, raw["self_s"])
    counts = defaultdict(float, raw["counts"])
    durations = defaultdict(list, raw["durations_s"])
    waits = raw["waits_s"]
    root_s = raw["root_s"]
    unattributed_s = raw["unattributed_s"]

    m: Dict[str, float] = {}
    for name in dict.fromkeys(name for name, _, _ in BINDINGS):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name, quantiles in PERCENTILE_SPANS.items():
        for q in quantiles:
            m[f"{name}.p{round(q * 100)}_ms"] = \
                1e3 * nearest_rank(durations[name], q)
    for stage in ("distance", "cluster", "evaluate"):
        m[f"core.labeling.{stage}_s"] = counts[f"labeling_{stage}_s"]
    for model in ("hyperparam", "decision"):
        m[f"core.predictors.{model}_fit.epochs"] = counts[f"{model}_epochs"]
    m.update({
        "hw.simulator.segments": counts["sim_segments"],
        "hw.simulator.us_per_segment": 1e6 * _ratio(
            self_s["hw.simulator.run"], counts["sim_segments"]),
        "hw.simulator.switches": counts["sim_switches"],
        "hw.simulator.static_share": _ratio(counts["sim_static_runs"],
                                            counts["sim_runs"]),
        "obs.anomaly.count": counts["serving_anomalies"],
        "governors.adaptive.proposed": counts["replan_proposed"],
        "governors.adaptive.adopted": counts["replan_adopted"],
        "governors.adaptive.rolled_back": counts["replan_rollbacks"],
        "governors.adaptive.adopt_ratio": _ratio(counts["replan_adopted"],
                                                 counts["replan_proposed"]),
        "governors.preset.switch_retries": counts["switch_retries"],
        "governors.preset.switch_failures": counts["switch_failures"],
        "serving.fleet.plan_cache_hit_ratio": _ratio(
            counts["serving_plan_hits"], counts["serving_plan_lookups"]),
        "serving.fleet.busy_share": _ratio(counts["serving_busy_s"],
                                           counts["serving_capacity_s"]),
        "serving.fleet.drains": counts["serving_drains"],
        "serving.fleet.readmissions": counts["serving_readmissions"],
        "serving.queueing.batch_mean": _ratio(
            counts["serving_batched_requests"],
            counts["serving_dispatches"]),
        "serving.queueing.wait_p50_s": nearest_rank(waits, 0.50),
        "serving.queueing.wait_p99_s": nearest_rank(waits, 0.99),
        "serving.scheduler.events": counts["serving_events"],
        "serving.scheduler.us_per_event": 1e6 * _ratio(
            self_s["serving.scheduler.run"], counts["serving_events"]),
        "unattributed_s": unattributed_s,
        "unattributed_share": _ratio(unattributed_s, root_s),
        "trace_overhead_x": trace_overhead_x,
    })
    return m

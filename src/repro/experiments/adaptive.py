"""Adaptive-retention sweep: does the closed loop earn its keep?

:mod:`repro.experiments.robustness` measures how much EE gain the
*static* resilient preset retains when actuation faults appear.  This
driver asks the next question: when the **workload itself drifts** —
the serving batch size drops away from the batch the plan was built
for — how much of the zero-fault EE gain does each runtime retain?

Four runtimes execute the *same* drifting job flow over the *same*
deterministic fault sequence:

* **family** — a :class:`~repro.governors.preset.PresetGovernor` fed
  from a :class:`~repro.governors.family.PlanCache`: the plan family
  holds a member per batch size, and the right member is installed
  before each job — input-aware, zero reactive lag (the same pattern
  the serving fleet uses);
* **adaptive** — :class:`~repro.governors.adaptive.AdaptivePresetGovernor`:
  after every job the ledger's misprediction flags drive a bounded,
  re-scored plan correction (see the governor's module docstring);
* **static** — :class:`~repro.governors.preset.PresetGovernor` with the
  degradation ladder but no replanning, executing the stale build-batch
  plan forever;
* **bim** — the built-in simple_ondemand baseline the gains are
  measured against.

The workload is a two-phase flow on a compute-heavy synthetic CNN
(:func:`build_drift_net`): a short warm phase at the batch size the
plan was built for, then a long drift phase at a much smaller batch.
The paper zoo is useless here — AlexNet/VGG analytic plans are batch-
invariant, so there is nothing to adapt to; the drift net is shaped so
its sweep-optimal levels genuinely move with batch size.

Jobs run one simulator each (the adaptive loop needs a ledger *between*
jobs), so fault-profile cap windows — absolute times within one
simulation — are translated by the accumulated virtual time of the
preceding jobs.  The thermal event therefore hits the *flow* once,
exactly as in the single-simulation robustness sweep, instead of
re-clamping the opening of every job.

Headline metrics, per fault scale:

* ``gain(runtime)`` — EE gain over BiM on the drifted flow;
* ``retention(runtime)`` — that gain as a fraction of the *anchor*
  gain (the zero-fault, no-drift flow at the build batch), i.e. how
  much of the advantage the runtime was deployed for survives drift
  plus faults.

The acceptance bar: family strictly beats adaptive (selecting the
right plan up front beats converging toward it) and adaptive strictly
beats static on the drifted flow at every swept scale, while the
no-drift anchor stays byte-identical across family, adaptive and
static (selection and the loop must both be free when there is nothing
to fix).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import fsum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.governors import (
    AdaptivePresetGovernor,
    OndemandGovernor,
    PlanCache,
    PresetGovernor,
    analytic_plan,
)
from repro.graph import Graph, GraphBuilder
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.faults import CapWindow, FaultProfile
from repro.hw.platform import get_platform
from repro.hw.simulator import InferenceJob, InferenceSimulator, SimCosts
from repro.obs import Observability, NULL_TRACER
from repro.obs.ledger import EnergyLedger
from repro.obs.metrics import MetricsRegistry
from repro.serving.fleet import derive_seed

#: Fault-profile multipliers swept by default (0 = drift only).
DEFAULT_SCALES = (0.0, 0.5, 1.0, 2.0)

#: Runtime labels, in table order.
DRIFT_RUNTIMES = ("family", "adaptive", "static", "bim")

#: Runtimes gains/retention are reported for (everything but the BiM
#: baseline itself).
GAIN_RUNTIMES = ("family", "adaptive", "static")

#: Batch size the preset plans are built for (warm phase).
DEFAULT_BUILD_BATCH = 16
#: Batch size of the drift phase.
DEFAULT_DRIFT_BATCH = 1
#: Jobs in the warm phase / drift phase of the flow.
DEFAULT_N_WARM = 3
DEFAULT_N_DRIFT = 9
#: Operator-block granularity of the analytic plans.  4 keeps the
#: drift net's blocks small enough that batch drift actually moves the
#: per-block sweep optimum.
DEFAULT_BLOCK_SIZE = 4


def build_drift_net(name: str = "drift_net") -> Graph:
    """Compute-heavy synthetic CNN whose sweep-optimal plan moves with
    batch size (unlike the paper zoo's batch-invariant plans)."""
    b = GraphBuilder(name)
    x = b.input((3, 64, 64))
    x = b.conv_bn_act(x, 64, kernel=3, stride=1, padding=1)
    x = b.conv_bn_act(x, 64, kernel=3, stride=1, padding=1)
    x = b.conv_bn_act(x, 128, kernel=3, stride=2, padding=1)
    x = b.conv_bn_act(x, 128, kernel=3, stride=1, padding=1)
    x = b.adaptive_avgpool(x, 1)
    x = b.flatten(x)
    x = b.linear(x, 256)
    x = b.relu(x)
    b.linear(x, 10)
    return b.build()


def shifted_faults(profile: Optional[FaultProfile], offset: float,
                   seed: int) -> Optional[FaultProfile]:
    """Per-job view of a flow-level fault profile.

    Cap windows are absolute times within one simulation; a flow split
    into per-job simulations (each restarting at ``t=0``) must slide
    them left by the accumulated duration ``offset`` of the preceding
    jobs, dropping windows already in the past.  Rate-based faults get
    a per-job seed stream instead (``seed``), mirroring the serving
    layer's per-dispatch derivation.
    """
    if profile is None or profile.is_zero:
        return None
    windows: List[CapWindow] = []
    for w in profile.cap_windows:
        t_end = w.t_end - offset
        if t_end <= 0:
            continue
        windows.append(CapWindow(max(0.0, w.t_start - offset), t_end,
                                 w.max_level))
    return replace(profile, seed=seed, cap_windows=tuple(windows))


@dataclass
class AdaptiveRetentionResult:
    """EE of each runtime at each fault scale over the drifting flow,
    anchored against the no-drift zero-fault flow."""

    platform: str
    graph_name: str
    build_batch: int
    drift_batch: int
    profile: Optional[FaultProfile] = None
    scales: List[float] = field(default_factory=list)
    #: runtime -> EE per scale, on the drifting flow.
    ee: Dict[str, List[float]] = field(default_factory=dict)
    #: runtime -> EE on the no-drift zero-fault anchor flow.
    anchor_ee: Dict[str, float] = field(default_factory=dict)
    #: family ≡ adaptive ≡ static byte-identity on the anchor flow
    #: (per-job energy/time/switch-count signatures all equal).
    anchor_identical: bool = False
    #: adaptive governor's ReplanHealth counters per scale.
    replan: List[Dict[str, int]] = field(default_factory=list)
    #: injected-fault totals per scale (adaptive runtime's sequence).
    fault_totals: List[int] = field(default_factory=list)

    def anchor_gain(self) -> float:
        """Zero-fault, no-drift EE gain of the preset over BiM — the
        advantage the runtime was deployed for."""
        base = self.anchor_ee.get("bim", 0.0)
        if base <= 0:
            return 0.0
        return (self.anchor_ee["static"] - base) / base

    def gain(self, runtime: str, i: int) -> float:
        """EE gain of ``runtime`` over BiM on the drifted flow at scale
        index ``i``."""
        base = self.ee["bim"][i]
        if base <= 0:
            return 0.0
        return (self.ee[runtime][i] - base) / base

    def retention(self, runtime: str, i: int) -> float:
        """Fraction of the anchor gain surviving drift + faults."""
        g0 = self.anchor_gain()
        if g0 <= 0:
            return 0.0
        return self.gain(runtime, i) / g0

    _RUNTIME_ABBREV = {"family": "fm", "adaptive": "ad", "static": "st"}

    def format_table(self) -> str:
        title = (f"Adaptive retention under workload drift "
                 f"({self.build_batch}→{self.drift_batch}) on "
                 f"{self.platform}")
        abbrevs = [self._RUNTIME_ABBREV[r] for r in GAIN_RUNTIMES]
        lines = [title, "=" * len(title),
                 f"anchor gain over BiM (no drift, no faults): "
                 f"{self.anchor_gain() * 100:+.2f}%  "
                 f"[family & adaptive byte-identical to static: "
                 f"{'yes' if self.anchor_identical else 'NO'}]",
                 f"{'scale':>6s} " + " ".join(
                     f"{'EE ' + r:>13s}" for r in DRIFT_RUNTIMES)
                 + "".join(f" {'gain ' + a:>9s}" for a in abbrevs)
                 + "".join(f" {'ret ' + a:>8s}" for a in abbrevs)]
        for i, s in enumerate(self.scales):
            ee_cols = " ".join(
                f"{self.ee[r][i]:>13.4f}" for r in DRIFT_RUNTIMES)
            lines.append(
                f"{s:>6.2f} {ee_cols}"
                + "".join(f" {self.gain(r, i) * 100:>+8.2f}%"
                          for r in GAIN_RUNTIMES)
                + "".join(f" {self.retention(r, i) * 100:>7.1f}%"
                          for r in GAIN_RUNTIMES))
        if self.replan:
            last = self.replan[-1]
            lines.append("adaptive replan health at max scale: "
                         + ", ".join(f"{k}={v}"
                                     for k, v in last.items() if v))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "platform": self.platform,
            "graph": self.graph_name,
            "build_batch": self.build_batch,
            "drift_batch": self.drift_batch,
            "profile": self.profile.to_dict() if self.profile else None,
            "scales": list(self.scales),
            "ee": {k: list(v) for k, v in self.ee.items()},
            "anchor_ee": dict(self.anchor_ee),
            "anchor_gain": self.anchor_gain(),
            "anchor_identical": self.anchor_identical,
            "gain": {r: [self.gain(r, i) for i in range(len(self.scales))]
                     for r in GAIN_RUNTIMES},
            "retention": {r: [self.retention(r, i)
                              for i in range(len(self.scales))]
                          for r in GAIN_RUNTIMES},
            "replan": [dict(h) for h in self.replan],
            "fault_totals": list(self.fault_totals),
        }


#: Per-job signature used for byte-identity checks.
_JobSig = Tuple[float, float, int]


def _run_flow(platform, graph: Graph, batches: Sequence[int],
              governor, profile: Optional[FaultProfile], seed: int,
              evaluator: Optional[AnalyticEvaluator] = None,
              latency_slack: float = 0.25,
              store: Optional[PlanCache] = None,
              ) -> Tuple[float, List[_JobSig], int]:
    """Run the flow one job per simulation, feeding the adaptive loop
    between jobs when ``governor`` supports it.  With a plan ``store``
    each job first installs the member selected for its batch.

    Returns ``(energy_efficiency, per-job signatures, fault total)``.
    """
    adaptive = isinstance(governor, AdaptivePresetGovernor)
    energies: List[float] = []
    images = 0
    offset = 0.0
    signatures: List[_JobSig] = []
    fault_total = 0
    costs = SimCosts(platform)
    for jidx, batch in enumerate(batches):
        job = InferenceJob(graph=graph, batch_size=batch, n_batches=1,
                           name=f"{graph.name}_drift_{jidx}")
        faults = shifted_faults(profile, offset,
                                derive_seed(seed, jidx, "faults"))
        if store is not None:
            governor.add_plan(store.select(graph, batch)[0])
        plan = None
        if isinstance(governor, PresetGovernor):
            plan = governor.plan_for(graph.name)
        sim = InferenceSimulator(platform, seed=derive_seed(seed, jidx),
                                 keep_trace=True, keep_samples=False,
                                 faults=faults, costs=costs)
        result = sim.run([job], governor)
        if result.fault_stats is not None:
            fault_total += result.fault_stats.total
        energies.append(result.trace.total_energy)
        images += batch
        offset += result.report.total_time
        signatures.append((result.trace.total_energy,
                           result.report.total_time,
                           result.switch_count))
        if adaptive:
            ledger = EnergyLedger.from_result(
                result, plan=plan, graph=graph, evaluator=evaluator,
                batch_size=batch, latency_slack=latency_slack)
            governor.observe_job(graph, batch, ledger)
    total_energy = fsum(energies)
    ee = images / total_energy if total_energy > 0 else 0.0
    return ee, signatures, fault_total


def run_adaptive_retention(platform_name: str = "tx2",
                           scales: Sequence[float] = DEFAULT_SCALES,
                           profile: Optional[FaultProfile] = None,
                           build_batch: int = DEFAULT_BUILD_BATCH,
                           drift_batch: int = DEFAULT_DRIFT_BATCH,
                           n_warm: int = DEFAULT_N_WARM,
                           n_drift: int = DEFAULT_N_DRIFT,
                           block_size: int = DEFAULT_BLOCK_SIZE,
                           latency_slack: float = 0.25,
                           seed: int = 11,
                           graph: Optional[Graph] = None,
                           ) -> AdaptiveRetentionResult:
    """Sweep fault scales over the drifting flow and measure how much
    of the anchor EE gain each runtime retains (module docstring)."""
    platform = get_platform(platform_name)
    scales = sorted(set(float(s) for s in scales) | {0.0})
    graph = graph if graph is not None else build_drift_net()
    evaluator = AnalyticEvaluator(platform)
    build_plan = analytic_plan(evaluator, graph, build_batch,
                               latency_slack=latency_slack,
                               block_size=block_size)

    drift_flow = [build_batch] * n_warm + [drift_batch] * n_drift
    anchor_flow = [build_batch] * (n_warm + n_drift)

    def static_gov(name: str = "powerlens") -> PresetGovernor:
        return PresetGovernor([build_plan], name=name, resilient=True)

    def adaptive_gov() -> AdaptivePresetGovernor:
        return AdaptivePresetGovernor(
            [build_plan], evaluator,
            latency_slack=latency_slack,
            obs=Observability(tracer=NULL_TRACER,
                              metrics=MetricsRegistry()),
            resilient=True)

    # One plan family for every batch of the flow.  Its build-batch
    # member is computed by the same ``analytic_plan`` call as
    # ``build_plan``, which is what makes the anchor flow byte-identical
    # to the static runtime.
    family = PlanCache(evaluator, latency_slack, block_size)

    def family_gov() -> PresetGovernor:
        return PresetGovernor([], name="powerlens-family", resilient=True)

    result = AdaptiveRetentionResult(platform=platform.name,
                                     graph_name=graph.name,
                                     build_batch=build_batch,
                                     drift_batch=drift_batch,
                                     profile=profile)

    # -- anchor: no drift, no faults -----------------------------------
    anchor_static_ee, static_sigs, _ = _run_flow(
        platform, graph, anchor_flow, static_gov(), None, seed)
    anchor_adaptive_ee, adaptive_sigs, _ = _run_flow(
        platform, graph, anchor_flow, adaptive_gov(), None, seed,
        evaluator=evaluator, latency_slack=latency_slack)
    anchor_family_ee, family_sigs, _ = _run_flow(
        platform, graph, anchor_flow, family_gov(), None, seed,
        store=family)
    anchor_bim_ee, _, _ = _run_flow(
        platform, graph, anchor_flow, OndemandGovernor(), None, seed)
    result.anchor_ee = {"family": anchor_family_ee,
                        "adaptive": anchor_adaptive_ee,
                        "static": anchor_static_ee,
                        "bim": anchor_bim_ee}
    result.anchor_identical = (static_sigs == adaptive_sigs
                               and static_sigs == family_sigs)

    # Size the representative profile's thermal window to the anchor
    # flow so the event stresses any (n_warm, n_drift) the same way.
    horizon = fsum(sig[1] for sig in static_sigs)
    if profile is None:
        profile = FaultProfile.representative(seed=seed, horizon=horizon)
        result.profile = profile

    # -- the sweep: drifting flow at each fault scale ------------------
    for scale in scales:
        prof = profile.scaled(scale)
        prof = None if prof.is_zero else prof
        gov_ad = adaptive_gov()
        runtimes = {"family": family_gov(),
                    "adaptive": gov_ad,
                    "static": static_gov(),
                    "bim": OndemandGovernor()}
        fault_total = 0
        for label, gov in runtimes.items():
            is_ad = label == "adaptive"
            ee, _, faults = _run_flow(
                platform, graph, drift_flow, gov, prof, seed,
                evaluator=evaluator if is_ad else None,
                latency_slack=latency_slack,
                store=family if label == "family" else None)
            result.ee.setdefault(label, []).append(ee)
            if is_ad:
                fault_total = faults
        result.scales.append(scale)
        result.replan.append(gov_ad.replan_health.to_dict())
        result.fault_totals.append(fault_total)
    return result

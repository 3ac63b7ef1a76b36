"""The four powerbench workloads, one per pipeline of the reproduction.

Each workload is a :class:`Workload` of three functions:

* ``setup(seed)`` builds every input from ``seed`` (not timed as work;
  it is reported as ``setup_s``);
* ``run(inputs)`` is the timed phase and returns the raw result;
* ``check(inputs, result)`` turns the result into an :class:`Outcome`:
  the work done, the correctness gates, the simulated metrics and a
  digest of the output (not timed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple

from repro.core import PowerLens, PowerLensConfig
from repro.governors import OndemandGovernor
from repro.hw import FaultProfile, InferenceJob, InferenceSimulator, \
    get_platform
from repro.models import build_model
from repro.models.zoo import PAPER_MODELS
from repro.obs.ledger import RECONCILIATION_TOLERANCE, EnergyLedger
from repro.serving import (DeviceConfig, Fleet, FleetScheduler,
                           RecoveryConfig, SchedulerConfig, make_trace)
from repro.workloads.taskflow import TaskFlowConfig


@dataclass
class Outcome:
    """What one timed phase did, and whether it did it correctly."""

    items: int                 # work units behind ``items_per_s``
    attempted: int             # operations that can fail
    failed: int
    gates: Dict[str, bool]     # correctness checks; all must hold
    sim: Dict[str, float]      # simulated metrics (repeat exactly)
    digest: str                # sha256 of the canonical output


class Workload(NamedTuple):
    setup: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]


def _sha256(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# fit.tx2 — the offline pipeline (paper Table 3)
# ----------------------------------------------------------------------

FIT_NETWORKS = 60


def setup_fit(seed: int):
    return get_platform("tx2"), PowerLensConfig(
        n_networks=FIT_NETWORKS, seed=seed, n_jobs=1, use_cache=False)


def run_fit(inputs):
    platform, config = inputs
    return PowerLens(platform, config).fit()


def check_fit(inputs, summary) -> Outcome:
    _platform, config = inputs
    gen = summary.generation
    gates = {"datasets_non_empty": gen.n_networks > 0 and gen.n_blocks > 0}
    reports = [dataclasses.asdict(r) for r in (summary.hyperparam_report,
                                               summary.decision_report)]
    for report in reports:
        del report["wall_time_s"]
    return Outcome(
        items=gen.n_networks,
        attempted=config.n_networks,
        failed=(gen.n_quarantined if all(gates.values())
                else config.n_networks),
        gates=gates,
        sim={"decision_acc": summary.decision_report.test_accuracy,
             "hp_equiv_acc": summary.hyperparam_report.equivalent_accuracy,
             "blocks": gen.n_blocks},
        digest=_sha256([gen.blocks_per_network, gen.quarantined, reports]),
    )


# ----------------------------------------------------------------------
# flow.tx2 — the Figure-5 task flow on a fitted lens
# ----------------------------------------------------------------------

LENS_SEED = 0
LENS_NETWORKS = 40
TASKS_PER_MODEL = 4


def balanced_taskflow(graphs, seed: int) -> List[InferenceJob]:
    """Figure-5 task flow in which every model appears
    ``TASKS_PER_MODEL`` times, in an order drawn from ``seed``.

    ``make_taskflow`` draws each task's model independently, so the
    host cost of a flow swings with the mix from seed to seed; equal
    counts keep the work per seed the same and leave the order and the
    simulator noise to the seed.
    """
    shape = TaskFlowConfig(seed=seed)
    order = [g for g in graphs for _ in range(TASKS_PER_MODEL)]
    random.Random(seed).shuffle(order)
    return [InferenceJob(graph=g, batch_size=shape.batch_size,
                         n_batches=shape.images_per_task // shape.batch_size,
                         cpu_work_per_image=shape.cpu_work_per_image,
                         name=f"task{i:03d}_{g.name}")
            for i, g in enumerate(order)]


def setup_flow(seed: int):
    """The lens is fitted once per platform, so it is not an input: it
    is fitted at ``LENS_SEED`` and the flow's order and simulator noise
    come from ``seed``.  A lens fitted per seed would change the plans,
    and with them the simulated work, from seed to seed."""
    platform = get_platform("tx2")
    lens = PowerLens(platform, PowerLensConfig(
        n_networks=LENS_NETWORKS, seed=LENS_SEED, n_jobs=1,
        use_cache=False))
    lens.fit()
    graphs = [build_model(name) for name in PAPER_MODELS]
    return platform, lens, graphs, balanced_taskflow(graphs, seed), seed


def run_flow(inputs):
    platform, lens, graphs, jobs, seed = inputs
    runs = {}
    # Noise forces the generic per-segment simulator loop; BiM exercises
    # the reactive window-sampling path.
    for name, governor in (("powerlens", lens.governor(graphs)),
                           ("bim", OndemandGovernor())):
        sim = InferenceSimulator(platform, sample_period=0.02,
                                 noise_std=0.02, seed=seed,
                                 keep_trace=True, keep_samples=False)
        result = sim.run(jobs, governor)
        runs[name] = (result, EnergyLedger.from_result(result))
    return runs


def check_flow(inputs, runs) -> Outcome:
    _platform, _lens, _graphs, jobs, _seed = inputs
    gates = {f"{name}_ledger_reconciled":
             ledger.reconciliation.energy_rel_err <= RECONCILIATION_TOLERANCE
             for name, (_result, ledger) in runs.items()}
    ee = {name: result.energy_efficiency
          for name, (result, _ledger) in runs.items()}
    return Outcome(
        items=sum(result.report.images for result, _ in runs.values()),
        attempted=len(jobs) * len(runs),
        failed=len(jobs) * sum(not ok for ok in gates.values()),
        gates=gates,
        sim={"ee_images_per_j": ee["powerlens"],
             "ee_gain_vs_bim": ee["powerlens"] / ee["bim"] - 1.0,
             "switches": runs["powerlens"][0].switch_count},
        digest=_sha256({name: [(r.total_energy, r.total_time)
                               for r in result.per_job]
                        for name, (result, _ledger) in runs.items()}),
    )


# ----------------------------------------------------------------------
# serve.steady / serve.faulty — the fleet serving simulator
# ----------------------------------------------------------------------

SERVE_PLATFORMS = ("tx2", "tx2", "agx", "agx")
#: mobilenet_v3, googlenet and efficientnet_b0 (and vit_base_32 on AGX)
#: trip the pingpong anomaly on clean fleets and drain them; see README.
SERVE_MODELS = ("resnet18", "resnet34", "alexnet", "squeezenet1_1")
SPARSITIES = (0.0, 0.3, 0.6)


def _fleet(seed: int, governor: str, noise_std: float = 0.0,
           **kwargs) -> Fleet:
    fleet = Fleet.build(
        [DeviceConfig(name=f"{p}-{i}", platform=p, noise_std=noise_std)
         for i, p in enumerate(SERVE_PLATFORMS)],
        governor=governor, fleet_seed=seed, **kwargs)
    for model in SERVE_MODELS:
        fleet.graph_for(model)  # a server loads its models before serving
    return fleet


def setup_serve_steady(seed: int):
    """Open-loop Poisson arrivals at 12 rps; every dispatch is static."""
    fleet = _fleet(seed, "powerlens")
    trace = make_trace("poisson", rate_rps=12.0, duration_s=150.0,
                       models=SERVE_MODELS, seed=seed,
                       slo_latency_s=1.0, images_per_request=8)
    return FleetScheduler(fleet, SchedulerConfig(policy="slo")), trace


def setup_serve_faulty(seed: int):
    """Bursty MMPP arrivals (6 rps, bursts x8) on a noisy, faulty fleet
    with adaptive plan families and drain recovery.  Requests are
    best-effort and the queue is deep enough that none is dropped."""
    fleet = _fleet(seed, "powerlens-family-adaptive", noise_std=0.02,
                   faults=FaultProfile(switch_drop_rate=0.05,
                                       telemetry_drop_rate=0.02),
                   sparsity_edges=SPARSITIES)
    trace = make_trace("bursty", rate_rps=6.0, duration_s=120.0,
                       models=SERVE_MODELS, seed=seed,
                       images_per_request=8, sparsity_choices=SPARSITIES)
    config = SchedulerConfig(policy="energy", queue_capacity=256,
                             recovery=RecoveryConfig())
    return FleetScheduler(fleet, config), trace


def run_serve(inputs):
    scheduler, trace = inputs
    return scheduler.run(trace)


def check_serve(inputs, result) -> Outcome:
    report = result.report
    gates = {"conserved": report.conserved,
             "energy_reconciled": report.energy_reconciled}
    met = report.completed - report.slo_violations
    return Outcome(
        items=report.completed,
        attempted=report.arrived,
        failed=report.dropped if all(gates.values()) else report.arrived,
        gates=gates,
        sim={"latency_p50_s": report.latency_p50_s,
             "latency_p99_s": report.latency_p99_s,
             "joules_per_request": report.joules_per_request,
             "slo_attainment": met / report.arrived if report.arrived
             else math.nan,
             "completed": report.completed},
        digest=hashlib.sha256(result.event_log().encode()).hexdigest(),
    )


WORKLOADS: Dict[str, Workload] = {
    "fit.tx2": Workload(setup_fit, run_fit, check_fit),
    "flow.tx2": Workload(setup_flow, run_flow, check_flow),
    "serve.steady": Workload(setup_serve_steady, run_serve, check_serve),
    "serve.faulty": Workload(setup_serve_faulty, run_serve, check_serve),
}

"""Benchmark: the energy ledger's fold against the run it accounts for.

A noisy, kept-trace BiM (ondemand) task flow over the 12 paper models on
the TX2 takes the simulator's per-segment loop and its telemetry windows.
``EnergyLedger.from_result`` then folds the trace with one
``np.bincount`` per sum; the floor asserts that fold costs at most 7%
of the ``sim.run`` that made the trace (a per-segment Python loop cost
about 11%).  The flow's simulated values are pinned by the simulator
goldens (``tests/goldens/simulator_dynamic_runs.json``); end-to-end
throughput of the same path is powerbench's ``flow.tx2`` workload.
"""

import time

import pytest

from repro.governors import OndemandGovernor
from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
from repro.models import PAPER_MODELS, build_model
from repro.obs.ledger import EnergyLedger
from repro.workloads.taskflow import TaskFlowConfig

pytestmark = pytest.mark.perf

#: Tasks per model, rounds timed (the minimum of each side is kept), and
#: the floor on the fold's share of the simulator run.
TASKS_PER_MODEL = 3
ROUNDS = 3
MAX_LEDGER_SHARE = 0.07


def _flow():
    shape = TaskFlowConfig()
    return [InferenceJob(graph=build_model(name),
                         batch_size=shape.batch_size,
                         n_batches=shape.images_per_task // shape.batch_size,
                         cpu_work_per_image=shape.cpu_work_per_image,
                         name=f"task{i}_{name}")
            for i in range(TASKS_PER_MODEL) for name in PAPER_MODELS]


def test_ledger_fold_share_of_the_run():
    jobs, platform = _flow(), jetson_tx2()
    sim_s = ledger_s = float("inf")
    for _ in range(ROUNDS):
        sim = InferenceSimulator(platform, sample_period=0.02,
                                 noise_std=0.02, seed=1, keep_trace=True,
                                 keep_samples=False)
        t0 = time.perf_counter()
        result = sim.run(jobs, OndemandGovernor())
        t1 = time.perf_counter()
        ledger = EnergyLedger.from_result(result)
        t2 = time.perf_counter()
        sim_s, ledger_s = min(sim_s, t1 - t0), min(ledger_s, t2 - t1)
        assert ledger.reconciliation.ok
    n = len(result.trace.segments)
    share = ledger_s / sim_s
    print()
    print(f"  sim.run {sim_s:.3f}s ({sim_s / n * 1e6:.2f} us/segment, "
          f"{n} segments), ledger fold {ledger_s * 1e3:.1f} ms "
          f"({share:.1%} of the run)")
    assert share <= MAX_LEDGER_SHARE, (
        f"the ledger fold takes {share:.1%} of the simulator run")

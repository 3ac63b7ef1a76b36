#!/usr/bin/env python
"""Analysis tour: *why* PowerLens's decisions are what they are.

Renders, for a chosen model on the TX2:

1. the roofline report — which operators are memory-bound at the top
   clock and where each category's crossover sits;
2. the EE-versus-level curve with its interior optimum (the headroom the
   built-in race-to-max governor leaves on the table);
3. per-block levels showing why the conv trunk and the classifier head
   want different frequencies;
4. ping-pong/lag diagnostics of the ondemand governor on the same
   workload.

Run:  python examples/analysis_tour.py [model_name]
"""

import sys

from repro.analysis import (
    analyze_trace,
    level_curve,
    render_curve,
    roofline_report,
)
from repro.governors import OndemandGovernor
from repro.hw import InferenceJob, InferenceSimulator, jetson_tx2
from repro.hw.analytic import AnalyticEvaluator
from repro.models import build_model


def main() -> None:
    model_name = sys.argv[1] if len(sys.argv) > 1 else "vgg19"
    platform = jetson_tx2()
    graph = build_model(model_name)

    # 1. roofline
    report = roofline_report(platform, graph, batch_size=16)
    print(report.format_table(top_n=8))
    shares = report.time_share_by_category()
    print("time share by category:",
          {k: f"{v:.1%}" for k, v in sorted(shares.items(),
                                            key=lambda kv: -kv[1])})

    # 2. whole-graph EE curve
    curve = level_curve(platform, graph, batch_size=16)
    print()
    print(render_curve(curve, "ee"))
    print(f"headroom over max frequency: {curve.headroom():.1%}")

    # 3. per-block levels (first vs last eighth of the network), by the
    #    planners' own rule at a 25 % latency slack
    n = len(graph.compute_nodes())
    table = AnalyticEvaluator(platform).profile_table(graph, 16)
    trunk, head = table.levels([(0, n // 8), (7 * n // 8, n)], 0.25)
    print(f"\nfirst eighth of the network: optimal level {trunk}")
    print(f"last eighth of the network:  optimal level {head}")

    # 4. reactive-governor diagnostics
    sim = InferenceSimulator(platform, sample_period=0.01)
    job = InferenceJob(graph=graph, batch_size=16, n_batches=3,
                       cpu_work_per_image=2e8)
    run = sim.run([job], OndemandGovernor())
    diagnostics = analyze_trace(run.trace, platform.n_levels,
                                run.switch_count, run.reversal_count)
    print("\nondemand governor on the same workload:")
    print(diagnostics.format_table())


if __name__ == "__main__":
    main()

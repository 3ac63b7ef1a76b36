#!/usr/bin/env python
"""Power-view explorer: see what Algorithm 1 does to a network.

For a chosen model this example shows the whole clustering story:
depthwise feature extraction, the blended Mahalanobis/spacing distance,
how each (epsilon, minPts) scheme partitions the operators, the
exhaustive-sweep optimal frequency of every resulting block, and a DOT
rendering of the winning power view you can pipe into Graphviz.

Run:  python examples/power_view_explorer.py [model_name]
"""

import sys

from repro.core.clustering import cluster_power_blocks
from repro.core.features import DepthwiseFeatureExtractor
from repro.core.labeling import best_scheme_for_graph
from repro.core.power_view import PowerView
from repro.core.schemes import default_scheme_grid
from repro.hw import jetson_tx2
from repro.hw.analytic import AnalyticEvaluator
from repro.models import build_model


def main() -> None:
    model_name = sys.argv[1] if len(sys.argv) > 1 else "vgg19"
    graph = build_model(model_name)
    platform = jetson_tx2()
    evaluator = AnalyticEvaluator(platform)

    features = DepthwiseFeatureExtractor().extract_scaled(graph)
    print(f"{graph.name}: {features.shape[0]} operators, "
          f"{features.shape[1]} depthwise features each")

    schemes = default_scheme_grid()
    print(f"\n{'scheme':<24s} {'blocks':>6s} {'per-block levels'}")
    best_idx, best_blocks, qualities = best_scheme_for_graph(
        evaluator, graph, features, schemes)
    table = evaluator.profile_table(graph, 16)
    for i, scheme in enumerate(schemes):
        blocks = cluster_power_blocks(features, scheme.eps,
                                      scheme.min_pts)
        levels = table.levels(PowerView.from_blocks(graph, blocks).spans(),
                              0.25)
        marker = " <- selected" if i == best_idx else ""
        print(f"{scheme.label():<24s} {len(blocks):>6d} "
              f"{levels}{marker}")

    view = PowerView.from_blocks(graph, best_blocks)
    levels = table.levels(view.spans(), 0.25)
    print(f"\n{view.summary()}")
    print("per-block target levels:", levels)

    dot_path = f"/tmp/{graph.name}_power_view.dot"
    with open(dot_path, "w") as fh:
        fh.write(view.to_dot())
    print(f"\npower view DOT written to {dot_path} "
          f"(render: dot -Tpng {dot_path} -o view.png)")


if __name__ == "__main__":
    main()

"""Ablation variants of Table 2.

* **P-R** — the clustering algorithm is replaced by *random block
  partitioning*: operators are shuffled into groups with no regard for
  power behaviour or adjacency.  Groups are generally non-contiguous, so
  executing the plan forces a frequency retarget at almost every group
  boundary along the operator sequence — the frequency thrash (plus the
  mismatched group features fed to the decision model) is what costs
  P-R 40-55 % energy efficiency in the paper.
* **P-N** — *no clustering*: the whole network is a single block and the
  decision model picks one frequency for all of it, losing the per-block
  adaptation worth ~15-18 %.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.features import GlobalFeatureExtractor
from repro.core.pipeline import PowerLens
from repro.governors.preset import FrequencyPlan, PlanStep
from repro.graph import Graph


def random_partition(n_ops: int, n_blocks: int,
                     seed: int = 0) -> List[List[int]]:
    """Shuffle ``range(n_ops)`` into ``n_blocks`` non-empty groups."""
    if n_blocks < 1:
        raise ValueError("need at least one block")
    n_blocks = min(n_blocks, n_ops)
    rng = random.Random(seed)
    indices = list(range(n_ops))
    rng.shuffle(indices)
    # Random cut points guarantee non-empty groups.
    cuts = sorted(rng.sample(range(1, n_ops), n_blocks - 1)) \
        if n_blocks > 1 else []
    groups: List[List[int]] = []
    start = 0
    for cut in [*cuts, n_ops]:
        groups.append(sorted(indices[start:cut]))
        start = cut
    return groups


def random_partition_plan(lens: PowerLens, graph: Graph,
                          n_blocks: Optional[int] = None,
                          seed: int = 0) -> FrequencyPlan:
    """P-R: random groups, decision model levels, per-operator plan.

    ``n_blocks`` defaults to the PowerLens block count but never below
    four groups: random partitioning is a *clustering replacement*, so
    it partitions at clustering granularity even when the power view
    would have merged everything (a single random "group" would be
    indistinguishable from P-N).
    """
    lens._require_fitted()
    assert lens.decision_model is not None
    if n_blocks is None:
        n_blocks = max(4, lens.analyze(graph).n_blocks)
    n_ops = len(graph.compute_nodes())
    groups = random_partition(n_ops, n_blocks, seed=seed)

    extractor = GlobalFeatureExtractor()
    features = [extractor.extract(graph, group).vector for group in groups]
    levels = lens.decision_model.predict_levels(features)

    # Map each operator to its group's level, then emit a plan step at
    # every point the level changes along the execution order.
    level_of_op = [0] * n_ops
    for group, level in zip(groups, levels):
        for op in group:
            level_of_op[op] = level
    steps: List[PlanStep] = []
    prev: Optional[int] = None
    for op, level in enumerate(level_of_op):
        if prev is None or level != prev:
            steps.append(PlanStep(op_index=op, level=level))
        prev = level
    return FrequencyPlan(graph_name=graph.name, steps=steps)


def no_clustering_plan(lens: PowerLens, graph: Graph) -> FrequencyPlan:
    """P-N: one decision for the entire network."""
    lens._require_fitted()
    assert lens.decision_model is not None
    extractor = GlobalFeatureExtractor()
    features = extractor.extract(graph).vector
    level = lens.decision_model.predict_levels(features[None, :])[0]
    return FrequencyPlan(graph_name=graph.name,
                         steps=[PlanStep(op_index=0, level=level)])

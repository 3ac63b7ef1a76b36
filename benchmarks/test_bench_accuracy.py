"""Benchmark: regenerate the section-2.2 prediction-model numbers.

Paper: 8000 networks / 31242 blocks, 80/10/10 split; 92.6% test accuracy
for the clustering hyper-parameter model and 94.2% for the decision
model, with decision errors one or two levels off.  The corpus size here
is configurable (POWERLENS_BENCH_NETWORKS); the decision model and the
scheme-equivalent hyper-parameter accuracy land in the paper's regime
already at a few hundred networks.
"""

import pytest

from repro.experiments.accuracy import run_accuracy


@pytest.mark.benchmark(group="accuracy")
def test_accuracy_tx2(benchmark, tx2_context):
    result = benchmark.pedantic(
        lambda: run_accuracy("tx2", lens=tx2_context.lens),
        rounds=1, iterations=1)
    print()
    print(result.format_table())
    rep = result.summary.decision_report
    assert rep.test_accuracy > 0.75
    assert rep.within_1_accuracy > 0.95
    assert rep.within_2_accuracy > 0.98
    assert result.summary.hyperparam_report.equivalent_accuracy > 0.75
    # The paper's 80/10/10 protocol.
    n_blocks = result.summary.generation.n_blocks
    assert rep.n_train == pytest.approx(0.8 * n_blocks, abs=1)


@pytest.mark.benchmark(group="accuracy")
def test_accuracy_agx(benchmark, agx_context):
    result = benchmark.pedantic(
        lambda: run_accuracy("agx", lens=agx_context.lens),
        rounds=1, iterations=1)
    print()
    print(result.format_table())
    assert result.summary.decision_report.within_1_accuracy > 0.9

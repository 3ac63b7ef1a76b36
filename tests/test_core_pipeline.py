"""End-to-end PowerLens pipeline tests (uses the session-scoped fitted
lens from conftest)."""

import pytest

from repro.core import PowerLens, PowerLensConfig
from repro.governors.preset import PresetGovernor
from repro.hw import InferenceJob, InferenceSimulator
from repro.models import build_model


class TestFitting:
    def test_unfitted_analyze_raises(self, tx2, small_cnn):
        lens = PowerLens(tx2)
        with pytest.raises(RuntimeError, match="not fitted"):
            lens.analyze(small_cnn)

    def test_training_summary(self, fitted_lens):
        s = fitted_lens.training_summary
        assert s is not None
        assert s.generation.n_networks == 25
        assert s.generation.n_blocks >= 25
        assert 0 <= s.decision_report.test_accuracy <= 1
        text = s.format()
        assert "decision model" in text

    def test_one_network_summary_reports_no_test_accuracy(self, tx2):
        # One network splits 1/0/0: there is nothing to test the
        # hyper-parameter model on, which is not the same as 0 %.
        s = PowerLens(tx2, PowerLensConfig(
            n_networks=1, seed=0, n_jobs=1, use_cache=False)).fit()
        h = s.hyperparam_report
        assert h.n_test == 0
        assert h.test_accuracy == 0.0  # FitReport fields are unchanged
        line = s.format().splitlines()[-2]
        assert line.startswith("hyperparameter model: test acc n/a "
                               "(0 test samples), scheme-equivalent n/a "
                               "(0 test samples) (")
        assert "0.0%" not in line


class TestAnalyze:
    def test_plan_covers_graph(self, fitted_lens, small_cnn):
        plan = fitted_lens.analyze(small_cnn)
        n = len(small_cnn.compute_nodes())
        covered = sorted(i for b in plan.view.blocks
                         for i in b.op_indices)
        assert covered == list(range(n))
        assert len(plan.levels) == plan.n_blocks
        assert plan.plan.steps[0].op_index == 0

    def test_levels_within_ladder(self, fitted_lens, small_cnn, tx2):
        plan = fitted_lens.analyze(small_cnn)
        assert all(0 <= lvl <= tx2.max_level for lvl in plan.levels)

    def test_summary_text(self, fitted_lens, small_cnn):
        text = fitted_lens.analyze(small_cnn).summary()
        assert "block 0 -> level" in text

    def test_oracle_plan_needs_no_models(self, tx2, small_cnn):
        lens = PowerLens(tx2, PowerLensConfig(n_networks=5))
        plan = lens.oracle_plan(small_cnn)
        assert plan.n_blocks >= 1

    def test_overhead_report_populated(self, fitted_lens, small_cnn):
        fitted_lens.analyze(small_cnn)
        report = fitted_lens.overhead_report()
        stages = [name for name, _ in report.workflow]
        assert "feature extraction" in stages
        assert "clustering" in stages
        text = report.format_table("tx2")
        assert "Model Training" in text


class TestGovernorIntegration:
    def test_governor_carries_plans(self, fitted_lens, small_cnn):
        gov = fitted_lens.governor([small_cnn])
        assert isinstance(gov, PresetGovernor)
        assert gov.plan_for(small_cnn.name) is not None
        assert gov.name == "powerlens"

    def test_oracle_governor_name(self, fitted_lens, small_cnn):
        plan = fitted_lens.oracle_plan(small_cnn).plan
        gov = PresetGovernor([plan], name="powerlens-oracle")
        assert gov.name == "powerlens-oracle"
        assert gov.plan_for(small_cnn.name) is plan

    def test_powerlens_beats_max_frequency(self, fitted_lens, tx2):
        """Headline claim: the fitted framework improves EE over pinned
        maximum frequency on an unseen real network."""
        from repro.governors import StaticGovernor
        graph = build_model("resnet18")
        gov = PresetGovernor([fitted_lens.oracle_plan(graph).plan],
                             name="powerlens-oracle")
        job = InferenceJob(graph=graph, batch_size=16, n_batches=3,
                           cpu_work_per_image=5e7)
        ee_pl = InferenceSimulator(tx2, keep_trace=False).run(
            [job], gov).report.energy_efficiency
        ee_max = InferenceSimulator(tx2, keep_trace=False).run(
            [job], StaticGovernor()).report.energy_efficiency
        assert ee_pl > ee_max * 1.2

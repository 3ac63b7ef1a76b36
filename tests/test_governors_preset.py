"""FrequencyPlan / PresetGovernor / exhaustive-sweep plan tests."""

import pytest

from repro.core.labeling import plan_levels_for_blocks
from repro.governors import FrequencyPlan, PlanStep, PresetGovernor
from repro.hw import InferenceJob, InferenceSimulator
from repro.hw.analytic import AnalyticEvaluator


def sweep_plan(platform, graph, blocks, batch_size):
    """Each block at the level an exhaustive frequency sweep selects
    (the Dataset-B labeling rule)."""
    levels = plan_levels_for_blocks(AnalyticEvaluator(platform), graph,
                                    blocks, batch_size=batch_size)
    return FrequencyPlan(
        graph_name=graph.name,
        steps=[PlanStep(op_index=min(block), level=level)
               for block, level in zip(blocks, levels)])


class TestFrequencyPlan:
    def test_requires_steps(self):
        with pytest.raises(ValueError):
            FrequencyPlan(graph_name="g", steps=[])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            FrequencyPlan(graph_name="g", steps=[PlanStep(3, 1)])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            FrequencyPlan(graph_name="g",
                          steps=[PlanStep(0, 1), PlanStep(0, 2)])
        with pytest.raises(ValueError):
            FrequencyPlan(graph_name="g",
                          steps=[PlanStep(0, 1), PlanStep(5, 2),
                                 PlanStep(3, 1)])

    def test_level_for_op(self):
        plan = FrequencyPlan(graph_name="g", steps=[
            PlanStep(0, 2), PlanStep(10, 7), PlanStep(20, 4)])
        assert plan.level_for_op(0) == 2
        assert plan.level_for_op(9) == 2
        assert plan.level_for_op(10) == 7
        assert plan.level_for_op(25) == 4
        assert plan.n_blocks == 3

    def test_switch_indices_skip_no_ops(self):
        plan = FrequencyPlan(graph_name="g", steps=[
            PlanStep(0, 2), PlanStep(10, 2), PlanStep(20, 5)])
        assert plan.switch_indices() == [0, 20]


class TestPresetGovernor:
    def test_plan_lookup(self, small_cnn):
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 3)])
        gov = PresetGovernor([plan])
        assert gov.plan_for(small_cnn.name) is plan
        assert gov.plan_for("missing") is None

    def test_add_plan(self, small_cnn):
        gov = PresetGovernor([FrequencyPlan("a", [PlanStep(0, 1)])])
        gov.add_plan(FrequencyPlan("b", [PlanStep(0, 2)]))
        assert gov.plan_for("b") is not None

    def test_on_op_start_fires_only_at_steps(self, tx2, small_cnn):
        plan = FrequencyPlan(graph_name=small_cnn.name,
                             steps=[PlanStep(0, 3), PlanStep(4, 8)])
        gov = PresetGovernor([plan])
        gov.reset(tx2)
        job = InferenceJob(graph=small_cnn)
        gov.on_job_start(0, job)
        assert gov.on_op_start(0, 0, None) == 3
        assert gov.on_op_start(0, 1, None) is None
        assert gov.on_op_start(0, 4, None) == 8


class TestOracle:
    def test_oracle_plan_structure(self, tx2, small_cnn):
        n = len(small_cnn.compute_nodes())
        blocks = [list(range(n // 2)), list(range(n // 2, n))]
        plan = sweep_plan(tx2, small_cnn, blocks, batch_size=8)
        assert plan.graph_name == small_cnn.name
        assert plan.n_blocks == 2
        assert plan.steps[0].op_index == 0
        assert plan.steps[1].op_index == n // 2
        assert all(0 <= s.level <= tx2.max_level for s in plan.steps)

    def test_oracle_governor_beats_max_frequency(self, tx2, small_cnn):
        """The exhaustive per-block optimum must improve EE over pinned
        maximum frequency — the core premise of the whole paper."""
        from repro.governors import StaticGovernor
        n = len(small_cnn.compute_nodes())
        blocks = [list(range(n))]
        gov = PresetGovernor([sweep_plan(tx2, small_cnn, blocks, 8)])
        job = InferenceJob(graph=small_cnn, batch_size=8, n_batches=3,
                           cpu_work_per_image=1e7)
        sim = InferenceSimulator(tx2)
        ee_oracle = sim.run([job], gov).report.energy_efficiency
        ee_max = InferenceSimulator(tx2).run(
            [job], StaticGovernor()).report.energy_efficiency
        assert ee_oracle > ee_max

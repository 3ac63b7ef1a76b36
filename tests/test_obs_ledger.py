"""Energy-attribution ledger: the reconciliation invariant (attributed
energy/time equals the simulator's own totals to <= 1e-9 relative
error) property-tested across random networks, fault profiles and every
governor family, plus the misprediction sweep and rendering."""

import json
import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.governors import FrequencyPlan, OndemandGovernor, PlanStep, \
    PresetGovernor, StaticGovernor, fpg_g
from repro.hw import FaultProfile, InferenceJob, InferenceSimulator, \
    jetson_tx2
from repro.models.random_gen import RandomDNNConfig, RandomDNNGenerator
from repro.hw.simulator import SimulationResult
from repro.hw.telemetry import KIND_CPU, KIND_GPU_OP, KIND_IDLE, \
    KIND_SWITCH, Trace, TraceSegment, report_from_trace
from repro.obs.ledger import EnergyLedger, OVERHEAD_KINDS, \
    RECONCILIATION_TOLERANCE

from tests.conftest import build_small_cnn

pytestmark = pytest.mark.obs

_TINY_DNNS = RandomDNNConfig(min_stages=1, max_stages=2,
                             max_blocks_per_stage=2)

_FAULTS = (
    None,
    FaultProfile(switch_drop_rate=0.4, seed=5),
    FaultProfile(telemetry_noise_std=0.5, switch_delay_rate=0.5,
                 switch_delay_s=0.02, seed=9),
)

_GOVERNOR_NAMES = ("preset", "ondemand", "static", "fpg")


def _governor_and_plan(name, graph):
    """Governor under test plus the plan to attribute against (None for
    the reactive families — they run as one whole-graph block)."""
    if name == "preset":
        n_ops = len(graph.compute_nodes())
        steps = [PlanStep(0, 2)]
        if n_ops > 3:
            steps.append(PlanStep(3, 9))
        if n_ops > 6:
            steps.append(PlanStep(6, 5))
        plan = FrequencyPlan(graph_name=graph.name, steps=steps)
        return PresetGovernor([plan]), plan
    if name == "ondemand":
        return OndemandGovernor(), None
    if name == "static":
        return StaticGovernor(level=4), None
    return fpg_g(), None


def _assert_matches_tuple_loop(ledger, trace):
    """The ledger's fold attributes every segment exactly as a loop over
    ``TraceSegment`` tuples and their ``duration`` and ``energy``
    properties does, bit for bit."""
    starts = [b.op_start for b in ledger.blocks]
    n_ops = ledger.blocks[-1].op_stop
    blocks = [(0.0, 0.0, {}) for _ in starts]
    over = {}
    for seg in trace.segments:
        dt, energy = seg.duration, seg.energy
        if seg.kind == KIND_GPU_OP and 0 <= seg.op_index < n_ops:
            i = bisect_right(starts, seg.op_index) - 1
            t, e, levels = blocks[i]
            levels[seg.gpu_level] = levels.get(seg.gpu_level, 0.0) + dt
            blocks[i] = (t + dt, e + energy, levels)
        else:
            kind = seg.kind if seg.kind in OVERHEAD_KINDS \
                else "unattributed"
            t, e = over.get(kind, (0.0, 0.0))
            over[kind] = (t + dt, e + energy)
    assert [(b.time_s, b.energy_j, b.level_time)
            for b in ledger.blocks] == blocks
    assert ledger.overheads == {k: v for k, v in over.items() if any(v)}


class TestReconciliationProperty:
    @settings(max_examples=16, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           governor=st.sampled_from(_GOVERNOR_NAMES),
           fault_idx=st.integers(min_value=0, max_value=len(_FAULTS) - 1))
    def test_attribution_closes_against_simulator_totals(
            self, seed, governor, fault_idx):
        graph = RandomDNNGenerator(seed=seed % 13,
                                   config=_TINY_DNNS).generate()
        gov, plan = _governor_and_plan(governor, graph)
        sim = InferenceSimulator(jetson_tx2(), seed=seed,
                                 keep_trace=True,
                                 faults=_FAULTS[fault_idx])
        result = sim.run(
            [InferenceJob(graph=graph, batch_size=4, n_batches=2)], gov)
        ledger = EnergyLedger.from_result(result, plan=plan, graph=graph)
        _assert_matches_tuple_loop(ledger, result.trace)

        rec = ledger.reconciliation
        assert rec.ok
        assert rec.energy_rel_err <= RECONCILIATION_TOLERANCE
        assert rec.time_rel_err <= RECONCILIATION_TOLERANCE
        # Block + overhead partition is exhaustive and non-overlapping.
        block_energy = math.fsum(b.energy_j for b in ledger.blocks)
        overhead_energy = math.fsum(
            e for _, e in ledger.overheads.values())
        assert math.isclose(block_energy + overhead_energy,
                            ledger.total_energy_j, rel_tol=1e-12)
        # Per-level residency inside each block sums to the block time.
        for block in ledger.blocks:
            if block.level_time:
                assert math.isclose(sum(block.level_time.values()),
                                    block.time_s, rel_tol=1e-9)

    def test_single_block_without_plan_covers_every_op(self):
        graph = build_small_cnn()
        sim = InferenceSimulator(jetson_tx2(), keep_trace=True)
        result = sim.run([InferenceJob(graph=graph, n_batches=2)],
                         OndemandGovernor())
        ledger = EnergyLedger.from_result(result, graph=graph)
        _assert_matches_tuple_loop(ledger, result.trace)
        assert len(ledger.blocks) == 1
        block = ledger.blocks[0]
        assert (block.op_start, block.op_stop) == \
            (0, len(graph.compute_nodes()))
        assert ledger.reconciliation.ok


def _hand_built(*segments):
    """A result around a trace of the given ``TraceSegment`` fields."""
    trace = Trace()
    for fields in segments:
        trace.append(TraceSegment(*fields))
    return SimulationResult(report=report_from_trace(trace, 4),
                            trace=trace, samples=[], switch_count=0,
                            reversal_count=0)


class TestFoldBuckets:
    """The bucket rules of the fold, on hand-built traces."""

    def test_zero_length_segment_keeps_its_level_key(self):
        result = _hand_built(
            (0.0, 0.5, KIND_GPU_OP, 3, 5.0, 1.0, 2.0, 0.5, 0.5, "a", 0),
            (0.5, 0.5, KIND_GPU_OP, 7, 5.0, 1.0, 2.0, 0.5, 0.5, "a", 0),
            (0.5, 1.0, KIND_GPU_OP, 3, 4.0, 1.0, 2.0, 0.5, 0.5, "b", 1))
        ledger = EnergyLedger.from_result(result)
        _assert_matches_tuple_loop(ledger, result.trace)
        [block] = ledger.blocks
        assert block.level_time == {3: 1.0, 7: 0.0}
        assert list(block.level_time) == [3, 7]
        assert ledger.to_dict()["blocks"][0]["level_time"] == \
            {"3": 1.0, "7": 0.0}

    def test_ops_outside_every_block_are_unattributed(self):
        graph = build_small_cnn()
        n_ops = len(graph.compute_nodes())
        result = _hand_built(
            (0.0, 1.0, KIND_GPU_OP, 2, 5.0, 1.0, 2.0, 0.5, 0.5, "a", 0),
            (1.0, 2.0, KIND_GPU_OP, 2, 3.0, 1.0, 2.0, 0.5, 0.5, "?", -1),
            (2.0, 4.0, KIND_GPU_OP, 2, 3.0, 1.0, 2.0, 0.5, 0.5, "z",
             n_ops),
            (4.0, 4.5, "custom", 2, 1.0, 1.0, 2.0, 0.0, 0.0, "", -1),
            (4.5, 5.0, KIND_IDLE, 2, 1.0, 0.5, 2.0, 0.0, 0.0, "", -1))
        ledger = EnergyLedger.from_result(result, graph=graph)
        _assert_matches_tuple_loop(ledger, result.trace)
        assert [(b.time_s, b.energy_j) for b in ledger.blocks] == \
            [(1.0, 8.0)]
        assert ledger.overheads == {"unattributed": (3.5, 20.0),
                                    KIND_IDLE: (0.5, 1.75)}
        assert ledger.reconciliation.ok

    def test_trace_without_gpu_op_segments(self):
        result = _hand_built(
            (0.0, 1.0, KIND_CPU, 4, 1.0, 3.0, 2.0, 0.0, 0.0, "t:cpu", -1),
            (1.0, 1.25, KIND_SWITCH, 4, 1.0, 3.0, 2.0, 0.0, 0.0,
             "dvfs:4->2", -1))
        ledger = EnergyLedger.from_result(result)
        _assert_matches_tuple_loop(ledger, result.trace)
        [block] = ledger.blocks
        assert (block.op_start, block.op_stop, block.time_s,
                block.energy_j, block.level_time) == (0, 1, 0.0, 0.0, {})
        assert ledger.overheads == {KIND_CPU: (1.0, 6.0),
                                    KIND_SWITCH: (0.25, 1.5)}
        assert ledger.reconciliation.ok

    def test_empty_trace(self):
        result = _hand_built()
        ledger = EnergyLedger.from_result(result)
        _assert_matches_tuple_loop(ledger, result.trace)
        assert [(b.op_start, b.op_stop, b.time_s, b.energy_j, b.level_time)
                for b in ledger.blocks] == [(0, 1, 0.0, 0.0, {})]
        assert ledger.overheads == {}
        assert ledger.reconciliation.ok
        assert ledger.total_energy_j == 0.0


class TestMisprediction:
    def test_fitted_sweep_labels_every_block(self, fitted_lens):
        graph = build_small_cnn()
        governor = fitted_lens.governor([graph])
        sim = InferenceSimulator(fitted_lens.platform, keep_trace=True)
        result = sim.run([InferenceJob(graph=graph, n_batches=2)],
                         governor)
        ledger = fitted_lens.ledger(result, graph,
                                    plan=governor.plan_for(graph.name))
        assert ledger.reconciliation.ok
        for block in ledger.blocks:
            assert block.best_level is not None
            assert block.planned_energy_j is not None
            assert block.best_energy_j is not None
            # The sweep winner can never be beaten by the planned level.
            assert block.best_energy_j <= block.planned_energy_j + 1e-12
            if block.mispredicted:
                assert block.best_level != block.planned_level
                assert block.predicted_savings_frac > 0.005

    def test_planned_level_winning_is_not_flagged(self, fitted_lens):
        graph = build_small_cnn()
        table = fitted_lens.evaluator.profile_table(
            graph, fitted_lens.config.batch_size)
        [best] = table.levels([(0, table.n_ops)],
                              fitted_lens.config.latency_slack)
        plan = FrequencyPlan(graph_name=graph.name,
                             steps=[PlanStep(0, best)])
        sim = InferenceSimulator(fitted_lens.platform, keep_trace=True)
        result = sim.run([InferenceJob(graph=graph, n_batches=1)],
                         PresetGovernor([plan]))
        ledger = fitted_lens.ledger(result, graph, plan=plan)
        assert ledger.mispredicted_blocks() == []

    def test_model_ledger_sweeps_at_the_simulated_batch_size(
            self, fitted_lens):
        """``powerlens ledger --batch-size 4`` sweeps the batch-4
        workload it simulated, not the config's batch size."""
        from repro.experiments.common import (ExperimentContext,
                                              run_model_ledger)

        assert fitted_lens.config.batch_size != 4
        ctx = ExperimentContext(platform=fitted_lens.platform,
                                lens=fitted_lens)
        result, ledger = run_model_ledger(ctx, "alexnet", n_batches=1,
                                          batch_size=4)
        graph = ctx.graph("alexnet")
        plan = ctx.powerlens_governor(["alexnet"]).plan_for(graph.name)
        expected = EnergyLedger.from_result(
            result, plan=plan, graph=graph,
            evaluator=fitted_lens.evaluator, batch_size=4,
            latency_slack=fitted_lens.config.latency_slack)
        assert ledger.to_dict() == expected.to_dict()


class TestLedgerInterface:
    @pytest.mark.parametrize("last_step, with_graph", [
        (lambda n: 6, True),          # multi-step plan
        (lambda n: n - 1, True),      # last step on the graph's last op
        (lambda n: 6, False),         # ops counted from the trace
        (lambda n: n + 2, True),      # a step past the graph's end
    ], ids=["multi_step", "last_op", "no_graph", "past_end"])
    def test_block_rows_follow_plan_blocks(self, last_step, with_graph):
        graph = build_small_cnn()
        n_graph_ops = len(graph.compute_nodes())
        plan = FrequencyPlan(graph_name=graph.name, steps=[
            PlanStep(0, 2), PlanStep(3, 9),
            PlanStep(last_step(n_graph_ops), 5)])
        sim = InferenceSimulator(jetson_tx2(), keep_trace=True)
        result = sim.run([InferenceJob(graph=graph, n_batches=1)],
                         PresetGovernor([plan]))
        ledger = EnergyLedger.from_result(
            result, plan=plan, graph=graph if with_graph else None)
        n_ops = max(n_graph_ops, plan.max_op_index + 1)
        assert [(b.op_start, b.op_stop) for b in ledger.blocks] == \
            plan.spans(n_ops)
        assert [b.planned_level for b in ledger.blocks] == [2, 9, 5]
        assert ledger.reconciliation.ok

    def test_requires_kept_trace(self):
        graph = build_small_cnn()
        sim = InferenceSimulator(jetson_tx2(), keep_trace=False)
        result = sim.run([InferenceJob(graph=graph, n_batches=1)],
                         OndemandGovernor())
        with pytest.raises(ValueError, match="keep_trace"):
            EnergyLedger.from_result(result)

    def test_to_dict_is_json_serializable(self):
        graph = build_small_cnn()
        gov, plan = _governor_and_plan("preset", graph)
        sim = InferenceSimulator(jetson_tx2(), keep_trace=True)
        result = sim.run([InferenceJob(graph=graph, n_batches=1)], gov)
        ledger = EnergyLedger.from_result(result, plan=plan, graph=graph)
        payload = json.loads(json.dumps(ledger.to_dict()))
        assert payload["reconciliation"]["ok"] is True
        assert len(payload["blocks"]) == len(ledger.blocks)
        assert payload["images"] == result.report.images

    def test_format_table_reports_reconciliation_and_overheads(self):
        graph = build_small_cnn()
        gov, plan = _governor_and_plan("preset", graph)
        sim = InferenceSimulator(jetson_tx2(), keep_trace=True)
        result = sim.run([InferenceJob(graph=graph, n_batches=2)], gov)
        ledger = EnergyLedger.from_result(result, plan=plan, graph=graph)
        table = ledger.format_table()
        assert "reconciliation:" in table
        assert "(ok)" in table
        assert "cpu" in table        # CPU preprocessing bucket rendered
        assert "verdict" in table

    def test_ledger_is_observe_only(self):
        """Building the ledger must not mutate the result it reads."""
        graph = build_small_cnn()
        sim = InferenceSimulator(jetson_tx2(), keep_trace=True)
        result = sim.run([InferenceJob(graph=graph, n_batches=2)],
                         OndemandGovernor())
        segments = list(result.trace.segments)
        report = result.report
        EnergyLedger.from_result(result, graph=graph)
        assert result.trace.segments == segments
        assert result.report == report

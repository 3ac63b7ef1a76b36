"""Closed-form evaluator tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw.analytic import AnalyticEvaluator, LevelProfile
from repro.hw.perf import LatencyModel
from tests.oracles import block_profile_reference, graph_time


@pytest.fixture()
def evaluator(tx2):
    return AnalyticEvaluator(tx2)


def _whole(evaluator, graph, batch_size=8):
    """Whole-graph profile: the span of every op."""
    table = evaluator.profile_table(graph, batch_size)
    return table.span_profile(0, table.n_ops)


class TestProfile:
    def test_profile_shapes(self, evaluator, small_cnn, tx2):
        p = _whole(evaluator, small_cnn)
        assert p.times.shape == (tx2.n_levels,)
        assert p.energies.shape == (tx2.n_levels,)
        assert np.all(p.times > 0)
        assert np.all(p.energies > 0)

    def test_times_non_increasing_in_level(self, evaluator, small_cnn):
        p = _whole(evaluator, small_cnn)
        assert np.all(np.diff(p.times) <= 1e-12)

    def test_profile_matches_latency_model(self, evaluator, small_cnn,
                                           tx2):
        """Per-level time must equal the scalar roofline model summed
        over operators."""
        latency = LatencyModel(tx2)
        p = _whole(evaluator, small_cnn)
        for level in (0, 5, tx2.max_level):
            expected = graph_time(latency, small_cnn, level, batch_size=8)
            assert p.times[level] == pytest.approx(expected, rel=1e-9)

    def test_block_profile_sums_to_graph(self, evaluator, small_cnn):
        n = len(small_cnn.compute_nodes())
        half = n // 2
        table = evaluator.profile_table(small_cnn, 8)
        p_a = table.span_profile(0, half)
        p_b = table.span_profile(half, n)
        p_full = _whole(evaluator, small_cnn)
        assert np.allclose(p_a.times + p_b.times, p_full.times)
        assert np.allclose(p_a.energies + p_b.energies, p_full.energies)

    def test_ee_is_reciprocal_energy(self, evaluator, small_cnn):
        p = _whole(evaluator, small_cnn)
        assert np.allclose(p.ee, 1.0 / p.energies)


class TestBestLevel:
    def test_feasibility_respected(self, evaluator, small_cnn):
        p = _whole(evaluator, small_cnn)
        for slack in (0.0, 0.1, 0.25, 1.0):
            lvl = p.best_level(slack)
            assert p.times[lvl] <= (1 + slack) * p.times[-1] * (1 + 1e-9)

    def test_zero_slack_pins_near_max(self, evaluator, small_cnn, tx2):
        p = _whole(evaluator, small_cnn)
        lvl = p.best_level(0.0)
        # With no slowdown budget only levels as fast as fmax qualify.
        assert p.times[lvl] <= p.times[tx2.max_level] * (1 + 1e-9)

    def test_larger_slack_never_worsens_ee(self, evaluator, small_cnn):
        p = _whole(evaluator, small_cnn)
        ee_small = p.ee[p.best_level(0.1)]
        ee_large = p.ee[p.best_level(0.5)]
        # The tolerance tie-break may pick a slightly lower-EE level
        # within 0.5%, so compare with that allowance.
        assert ee_large >= ee_small * 0.995

    def test_tolerance_prefers_higher_level(self, evaluator, small_cnn,
                                           monkeypatch):
        """Among EE-near-ties the faster (higher) level is chosen."""
        import repro.hw.analytic as analytic

        p = _whole(evaluator, small_cnn)
        monkeypatch.setattr(analytic, "EE_TOLERANCE", 0.0)
        strict = p.best_level(0.25)
        monkeypatch.setattr(analytic, "EE_TOLERANCE", 0.05)
        loose = p.best_level(0.25)
        assert loose >= strict

    def test_no_feasible_level_falls_back_to_top(self):
        p = LevelProfile(times=np.array([1.0, np.nan]),
                         energies=np.array([1.0, 1.0]))
        assert p.best_level(0.25) == 1

    @pytest.mark.parametrize("start,stop,slack", [
        (0, 3, 0.25), (2, 5, 0.25), (2, 5, 0.0), (4, 5, 0.5)])
    def test_block_sweep_memoizes_the_unmemoized_sweep(
            self, evaluator, small_cnn, start, stop, slack):
        """The span's memoized level is the shared rule applied to the
        per-op reference profile."""
        table = evaluator.profile_table(small_cnn, 8, 0.3)
        [best] = table.levels([(start, stop)], slack)
        profile = table.span_profile(start, stop)
        expected = block_profile_reference(evaluator, small_cnn,
                                           range(start, stop), 8, 0.3)
        assert profile.times.tobytes() == expected.times.tobytes()
        assert profile.energies.tobytes() == expected.energies.tobytes()
        assert best == expected.best_level(slack)
        assert table.span_profile(start, stop) is profile
        assert table._levels[(start, stop, slack)] == best

    def test_best_level_for_block(self, evaluator, small_cnn, tx2):
        [lvl] = evaluator.profile_table(small_cnn, 8).levels([(0, 3)],
                                                             0.25)
        assert 0 <= lvl <= tx2.max_level

    def test_levels_one_per_span_in_order(self, evaluator, small_cnn):
        table = evaluator.profile_table(small_cnn, 8)
        spans = [(0, 2), (2, 5), (5, 6)]
        assert table.levels(spans, 0.25) == [
            table.span_profile(a, b).best_level(0.25) for a, b in spans]


class TestPlanEnergy:
    def test_uniform_plan_matches_graph_profile(self, evaluator,
                                                small_cnn):
        n = len(small_cnn.compute_nodes())
        p = _whole(evaluator, small_cnn)
        e, t = evaluator.profile_table(small_cnn, 8).plan_energy_time(
            [(0, n)], [5])
        assert e == pytest.approx(float(p.energies[5]))
        assert t == pytest.approx(float(p.times[5]))

    def test_switch_cost_added_between_blocks(self, evaluator, small_cnn,
                                              tx2):
        n = len(small_cnn.compute_nodes())
        spans = [(0, n // 2), (n // 2, n)]
        table = evaluator.profile_table(small_cnn, 8)
        e_same, t_same = table.plan_energy_time(spans, [5, 5])
        e_diff, t_diff = table.plan_energy_time(spans, [5, 8])
        # Same level: no boundary cost; different levels: one stall.
        assert t_diff - t_same != pytest.approx(0.0) or \
            e_diff != pytest.approx(e_same)

    def test_mismatched_lengths_rejected(self, evaluator, small_cnn):
        with pytest.raises(ValueError):
            evaluator.profile_table(small_cnn, 8).plan_energy_time(
                [(0, 1)], [1, 2])

    def test_empty_block_costs_nothing_but_its_switch(self, evaluator,
                                                      small_cnn):
        table = evaluator.profile_table(small_cnn, 8)
        e, t = table.plan_energy_time([(0, 2), (2, 4)], [5, 8])
        e_empty, t_empty = table.plan_energy_time([(0, 2), (2, 2), (2, 4)],
                                                  [5, 8, 8])
        # The same terms, summed in another order.
        assert e_empty == pytest.approx(e, rel=1e-12)
        assert t_empty == pytest.approx(t, rel=1e-12)

    def test_plan_blocks_priced_through_the_span_memo(self, evaluator,
                                                      small_cnn):
        table = evaluator.profile_table(small_cnn, 8, 0.7)
        table.plan_energy_time([(0, 3), (3, 5)], [5, 8])
        assert set(table._spans) == {(0, 3), (3, 5)}
        assert table.span_profile(0, 3) is table.span_profile(0, 3)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(level=st.integers(0, 12), batch=st.integers(1, 32))
    def test_energy_time_positive(self, evaluator, small_cnn, level,
                                  batch):
        n = len(small_cnn.compute_nodes())
        e, t = evaluator.profile_table(small_cnn, batch).plan_energy_time(
            [(0, n)], [level])
        assert e > 0 and t > 0


class TestOverheadPower:
    def test_overhead_includes_board(self, evaluator, tx2):
        assert evaluator.overhead_power >= tx2.board_power

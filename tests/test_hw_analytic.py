"""Closed-form evaluator tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw.analytic import AnalyticEvaluator
from repro.hw.perf import LatencyModel, OpWork


@pytest.fixture()
def evaluator(tx2):
    return AnalyticEvaluator(tx2)


class TestProfile:
    def test_profile_shapes(self, evaluator, small_cnn, tx2):
        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        assert p.times.shape == (tx2.n_levels,)
        assert p.energies.shape == (tx2.n_levels,)
        assert np.all(p.times > 0)
        assert np.all(p.energies > 0)

    def test_times_non_increasing_in_level(self, evaluator, small_cnn):
        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        assert np.all(np.diff(p.times) <= 1e-12)

    def test_profile_matches_latency_model(self, evaluator, small_cnn,
                                           tx2):
        """Per-level time must equal the scalar roofline model summed
        over operators."""
        latency = LatencyModel(tx2)
        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        for level in (0, 5, tx2.max_level):
            expected = latency.graph_time(small_cnn, level, batch_size=8)
            assert p.times[level] == pytest.approx(expected, rel=1e-9)

    def test_block_profile_sums_to_graph(self, evaluator, small_cnn):
        n = len(small_cnn.compute_nodes())
        half = n // 2
        table = evaluator.profile_table(small_cnn, 8)
        p_a = table.block_profile(range(half))
        p_b = table.block_profile(range(half, n))
        p_full = evaluator.profile_table(small_cnn, 8).graph_profile()
        assert np.allclose(p_a.times + p_b.times, p_full.times)
        assert np.allclose(p_a.energies + p_b.energies, p_full.energies)

    def test_ee_is_reciprocal_energy(self, evaluator, small_cnn):
        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        assert np.allclose(p.ee, 1.0 / p.energies)


class TestBestLevel:
    def test_feasibility_respected(self, evaluator, small_cnn):
        for slack in (0.0, 0.1, 0.25, 1.0):
            p = evaluator.profile_table(small_cnn, 8).graph_profile()
            lvl = evaluator.best_level(p, latency_slack=slack)
            assert p.times[lvl] <= (1 + slack) * p.times[-1] * (1 + 1e-9)

    def test_zero_slack_pins_near_max(self, evaluator, small_cnn, tx2):
        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        lvl = evaluator.best_level(p, latency_slack=0.0)
        # With no slowdown budget only levels as fast as fmax qualify.
        assert p.times[lvl] <= p.times[tx2.max_level] * (1 + 1e-9)

    def test_larger_slack_never_worsens_ee(self, evaluator, small_cnn):
        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        ee_small = p.ee[evaluator.best_level(p, 0.1)]
        ee_large = p.ee[evaluator.best_level(p, 0.5)]
        # The tolerance tie-break may pick a slightly lower-EE level
        # within 0.5%, so compare with that allowance.
        assert ee_large >= ee_small * 0.995

    def test_tolerance_prefers_higher_level(self, evaluator, small_cnn,
                                           monkeypatch):
        """Among EE-near-ties the faster (higher) level is chosen."""
        import repro.hw.analytic as analytic

        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        monkeypatch.setattr(analytic, "EE_TOLERANCE", 0.0)
        strict = evaluator.best_level(p, 0.25)
        monkeypatch.setattr(analytic, "EE_TOLERANCE", 0.05)
        loose = evaluator.best_level(p, 0.25)
        assert loose >= strict

    def test_best_level_for_block(self, evaluator, small_cnn, tx2):
        lvl = evaluator.profile_table(small_cnn, 8).best_level_for_block(
            [0, 1, 2])
        assert 0 <= lvl <= tx2.max_level

    @pytest.mark.parametrize("start,stop,slack", [
        (0, 3, 0.25), (2, 5, 0.25), (2, 5, 0.0), (4, 5, 0.5)])
    def test_block_sweep_memoizes_the_unmemoized_sweep(
            self, evaluator, small_cnn, start, stop, slack):
        table = evaluator.profile_table(small_cnn, 8, 0.3)
        profile, best = table.block_sweep(start, stop, slack)
        ops = list(range(start, stop))
        expected = table.block_profile(ops)
        assert profile.times.tobytes() == expected.times.tobytes()
        assert profile.energies.tobytes() == expected.energies.tobytes()
        assert best == evaluator.best_level(expected, slack)
        assert table.block_sweep(start, stop, slack)[0] is profile


class TestPlanEnergy:
    def test_uniform_plan_matches_graph_profile(self, evaluator,
                                                small_cnn):
        n = len(small_cnn.compute_nodes())
        p = evaluator.profile_table(small_cnn, 8).graph_profile()
        e, t = evaluator.profile_table(small_cnn, 8).plan_energy_time(
            [list(range(n))], [5])
        assert e == pytest.approx(float(p.energies[5]))
        assert t == pytest.approx(float(p.times[5]))

    def test_switch_cost_added_between_blocks(self, evaluator, small_cnn,
                                              tx2):
        n = len(small_cnn.compute_nodes())
        blocks = [list(range(n // 2)), list(range(n // 2, n))]
        table = evaluator.profile_table(small_cnn, 8)
        e_same, t_same = table.plan_energy_time(blocks, [5, 5])
        e_diff, t_diff = table.plan_energy_time(blocks, [5, 8])
        # Same level: no boundary cost; different levels: one stall.
        assert t_diff - t_same != pytest.approx(0.0) or \
            e_diff != pytest.approx(e_same)
        p = evaluator.profile_table(small_cnn, 8).graph_profile()

    def test_mismatched_lengths_rejected(self, evaluator, small_cnn):
        with pytest.raises(ValueError):
            evaluator.profile_table(small_cnn, 8).plan_energy_time(
                [[0]], [1, 2])

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(level=st.integers(0, 12), batch=st.integers(1, 32))
    def test_energy_time_positive(self, evaluator, small_cnn, level,
                                  batch):
        n = len(small_cnn.compute_nodes())
        e, t = evaluator.profile_table(small_cnn, batch).plan_energy_time(
            [list(range(n))], [level])
        assert e > 0 and t > 0


class TestOverheadPower:
    def test_overhead_includes_board(self, evaluator, tx2):
        assert evaluator.overhead_power >= tx2.board_power

"""Analysis tooling tests: roofline, curves, ping-pong diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    analyze_trace,
    level_curve,
    render_curve,
    roofline_report,
)
from repro.governors import OndemandGovernor, StaticGovernor
from repro.hw import InferenceJob, InferenceSimulator
from repro.hw.analytic import AnalyticEvaluator, LevelProfile
from repro.models import build_model


@pytest.fixture(scope="module")
def vgg19():
    return build_model("vgg19")


class TestRoofline:
    def test_report_covers_all_ops(self, tx2, vgg19):
        report = roofline_report(tx2, vgg19, batch_size=16)
        assert len(report.ops) == len(vgg19.compute_nodes())
        assert report.total_time > 0

    def test_memory_bound_share_meaningful(self, tx2, vgg19):
        """At the calibrated TX2 top clock, most of vgg19's runtime is
        memory-limited — the premise of the whole DVFS opportunity."""
        report = roofline_report(tx2, vgg19, batch_size=16)
        assert report.memory_bound_time_share() > 0.5

    def test_low_level_flips_to_compute_bound(self, tx2, vgg19):
        top = roofline_report(tx2, vgg19, batch_size=16)
        bottom = roofline_report(tx2, vgg19, batch_size=16, ref_level=0)
        assert bottom.memory_bound_time_share() < \
            top.memory_bound_time_share()

    def test_category_shares_sum_to_one(self, tx2, vgg19):
        shares = roofline_report(tx2, vgg19).time_share_by_category()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_format_table(self, tx2, vgg19):
        text = roofline_report(tx2, vgg19).format_table(top_n=5)
        assert "memory-bound time share" in text
        assert vgg19.name in text


class TestCurves:
    def test_curve_shapes(self, tx2, vgg19):
        curve = level_curve(tx2, vgg19, batch_size=16)
        assert curve.freqs_hz.shape == (tx2.n_levels,)
        assert np.all(curve.energies_j > 0)
        assert np.all(np.diff(curve.times_s) <= 1e-12)

    def test_interior_optimum_exists(self, tx2, vgg19):
        """The EE curve must peak strictly inside the ladder — the
        paper's core empirical claim."""
        curve = level_curve(tx2, vgg19, batch_size=16)
        opt = curve.optimal_level()
        assert 0 < opt < tx2.max_level
        assert curve.headroom() > 0.2

    def test_slack_constrains_optimum(self, tx2, vgg19):
        """A latency slack only moves the planners' level
        (:meth:`LevelProfile.best_level`) up from the unconstrained EE
        peak."""
        curve = level_curve(tx2, vgg19, batch_size=16)
        profile = LevelProfile(times=curve.times_s,
                               energies=curve.energies_j)
        assert profile.best_level(0.05) >= curve.optimal_level()

    def test_curve_level_is_the_planners_level(self, tx2):
        """The whole-graph level of a curve's profile is the level every
        planner takes from the profile table: googlenet at batch 16 and
        slack 0.25 runs at 5 (a plain argmax over the budget said 4)."""
        graph = build_model("googlenet")
        curve = level_curve(tx2, graph, batch_size=16)
        level = LevelProfile(times=curve.times_s,
                             energies=curve.energies_j).best_level(0.25)
        table = AnalyticEvaluator(tx2).profile_table(graph, 16)
        assert level == table.levels([(0, table.n_ops)], 0.25)[0] == 5

    def test_block_curve(self, tx2, vgg19):
        n = len(vgg19.compute_nodes())
        head = level_curve(tx2, vgg19, batch_size=16, span=(n - 8, n))
        trunk = level_curve(tx2, vgg19, batch_size=16, span=(0, n - 8))
        # The fc head is far more memory-bound: its optimum sits lower.
        assert head.optimal_level() <= trunk.optimal_level()

    def test_render_metrics(self, tx2, vgg19):
        curve = level_curve(tx2, vgg19)
        for metric in ("ee", "energy", "time", "power"):
            text = render_curve(curve, metric)
            assert "MHz" in text
        assert "optimum" in render_curve(curve, "ee")
        with pytest.raises(ValueError):
            render_curve(curve, "bogus")


class TestPingPong:
    def _trace(self, tx2, governor, graph):
        sim = InferenceSimulator(tx2, sample_period=0.01)
        job = InferenceJob(graph=graph, batch_size=16, n_batches=3,
                           cpu_work_per_image=2e8)
        return sim.run([job], governor)

    def test_ondemand_shows_lag(self, tx2):
        graph = build_model("resnet34")
        run = self._trace(tx2, OndemandGovernor(), graph)
        report = analyze_trace(run.trace, tx2.n_levels,
                               run.switch_count, run.reversal_count)
        assert report.switch_count > 0
        assert report.total_lag_s > 0
        assert len(report.lag_events) >= 1
        assert "lag" in report.format_table()

    def test_static_has_no_lag_or_reversals(self, tx2):
        graph = build_model("resnet18")
        run = self._trace(tx2, StaticGovernor(), graph)
        report = analyze_trace(run.trace, tx2.n_levels,
                               run.switch_count, run.reversal_count)
        assert report.reversal_count == 0
        assert report.total_lag_s == 0.0
        assert sum(report.level_residency) == pytest.approx(1.0)

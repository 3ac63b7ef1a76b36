"""Stage timer and overhead report tests."""

import time

import pytest

from repro.core.overhead import OverheadReport, StageTimer, _fmt_duration


class TestStageTimer:
    def test_accumulates(self):
        t = StageTimer()
        with t.stage("work"):
            time.sleep(0.01)
        with t.stage("work"):
            time.sleep(0.01)
        assert t.total("work") >= 0.02
        assert t.mean("work") == pytest.approx(t.total("work") / 2)

    def test_record_external(self):
        t = StageTimer()
        t.record("train", 3600.0)
        assert t.total("train") == 3600.0
        with pytest.raises(ValueError):
            t.record("train", -1.0)

    def test_unknown_stage_zero(self):
        t = StageTimer()
        assert t.total("nope") == 0.0
        assert t.mean("nope") == 0.0

    def test_stage_survives_exception(self):
        t = StageTimer()
        with pytest.raises(RuntimeError):
            with t.stage("failing"):
                raise RuntimeError("boom")
        assert t.total("failing") > 0


class TestOverheadReport:
    def test_format_durations(self):
        assert _fmt_duration(7200) == "2.0h"
        assert _fmt_duration(12.3) == "12.3s"
        assert _fmt_duration(0.32) == "320ms"

    def test_table_layout(self):
        r = OverheadReport(
            training=[("decision model", 3600.0)],
            workflow=[("clustering", 60.0),
                      ("hyperparameter prediction", 0.32)],
            dvfs_switch_overhead_s=0.05,
        )
        text = r.format_table("tx2")
        assert "decision model" in text
        assert "1.0h" in text
        assert "60.0s" in text
        assert "320ms" in text
        assert "50ms" in text

"""Result-object behaviour tests (pure data, no simulation)."""

import pytest

from repro.experiments.figure1 import MethodTrace
from repro.experiments.figure5 import Figure5Result, MethodOutcome
from repro.experiments.table1 import Table1Result, Table1Row
from repro.experiments.table2 import Table2Result, Table2Row


class TestTable1Result:
    def _row(self, pl=2.0, bim=1.0):
        return Table1Row(model="m", blocks=1, ee_powerlens=pl,
                         ee_by_method={"bim": bim, "fpg_g": 1.5,
                                       "fpg_cg": 1.6})

    def test_gain_over(self):
        row = self._row()
        assert row.gain_over("bim") == pytest.approx(1.0)
        assert row.gain_over("fpg_g") == pytest.approx(1 / 3)

    def test_zero_baseline_guarded(self):
        row = self._row(bim=0.0)
        assert row.gain_over("bim") == 0.0

    def test_average_gain(self):
        res = Table1Result(platform="p", rows=[self._row(), self._row(3.0)])
        assert res.average_gain("bim") == pytest.approx((1.0 + 2.0) / 2)

    def test_average_gain_empty(self):
        assert Table1Result(platform="p").average_gain("bim") == 0.0

    def test_format_has_all_rows(self):
        res = Table1Result(platform="p", rows=[self._row()])
        text = res.format_table()
        assert "m " in text or "m\t" in text or "m  " in text
        assert "BIM" in text and "Average" in text


class TestTable2Result:
    def test_averages(self):
        res = Table2Result(platform="p", rows=[
            Table2Row("a", -0.4, -0.1),
            Table2Row("b", -0.2, -0.3),
        ])
        assert res.average("pr") == pytest.approx(-0.3)
        assert res.average("pn") == pytest.approx(-0.2)

    def test_empty(self):
        assert Table2Result(platform="p").average("pr") == 0.0


class TestFigure5Result:
    def _result(self):
        return Figure5Result(platform="p", n_tasks=2, images=100,
                             outcomes={
                                 "bim": MethodOutcome("bim", 100.0, 10.0,
                                                      1.0),
                                 "powerlens": MethodOutcome(
                                     "powerlens", 60.0, 11.0, 5 / 3),
                             })

    def test_relative(self):
        res = self._result()
        assert res.relative("energy_j", "powerlens", "bim") == \
            pytest.approx(-0.4)
        assert res.relative("time_s", "powerlens", "bim") == \
            pytest.approx(0.1)

    def test_relative_zero_baseline(self):
        res = self._result()
        res.outcomes["bim"] = MethodOutcome("bim", 0.0, 0.0, 0.0)
        assert res.relative("energy_j", "powerlens", "bim") == 0.0

    def test_format(self):
        text = self._result().format_table()
        assert "powerlens vs bim" in text


class TestFigure1Trace:
    def test_sampled_levels_interpolates(self):
        trace = MethodTrace(method="x",
                            timeline=[(0.0, 1.0, 2), (1.0, 2.0, 7)],
                            switch_count=1, reversal_count=0,
                            energy_j=1.0, time_s=2.0)
        levels = trace.sampled_levels(n_samples=4)
        assert levels[0] == 2
        assert levels[-1] == 7
        assert len(levels) == 4

    def test_empty_timeline(self):
        trace = MethodTrace(method="x", timeline=[], switch_count=0,
                            reversal_count=0, energy_j=0, time_s=0)
        assert trace.sampled_levels() == []

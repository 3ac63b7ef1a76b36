"""The pair-comparison report of ``tools/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_LOWER = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
_HIGHER = {"name": "items_per_s", "unit": "items/s", "better": "higher",
           "bound": 0.25}


def test_equal_sides_are_ok_and_win_nothing():
    row = bench_pairs.summarize(_LOWER, [1.0] * 4, [1.0] * 4)
    assert row["verdict"] == "ok"
    assert row["wins"] == 0 and row["pairs"] == 4 and row["delta"] == 0.0


@pytest.mark.parametrize("metric,change,wins", [
    (_LOWER, [0.9, 0.9, 0.9, 0.9], 4),
    (_HIGHER, [1.1, 1.1, 1.1, 0.9], 3),
])
def test_wins_follow_the_better_direction(metric, change, wins):
    row = bench_pairs.summarize(metric, [1.0] * 4, change)
    assert row["wins"] == wins and row["verdict"] == "ok"


@pytest.mark.parametrize("metric,change", [
    (_LOWER, [1.3] * 4),
    (_HIGHER, [0.7] * 4),
])
def test_worse_than_the_bound(metric, change):
    assert bench_pairs.summarize(metric, [1.0] * 4, change)["verdict"] \
        == "worse"


def test_wide_spread_is_unresolved():
    row = bench_pairs.summarize(_LOWER, [0.5, 1.0, 1.0, 1.5],
                                [1.0, 1.0, 1.0, 1.0])
    assert row["verdict"] == "unresolved"


def test_digest_lines_parse():
    line = ('seed 2: {"switches": 40}; output repeats over 1 round(s) '
            '(679b522fcfa3dfad)')
    m = bench_pairs.DIGEST_LINE.match(line)
    assert m.groups() == ("2", "679b522fcfa3dfad")
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_cpu_shares_report_min_and_median():
    runs = [(9.0, 10.0), (5.0, 10.0), (10.0, 10.0)]
    assert bench_pairs.cpu_shares(runs) == (0.5, 0.9)

"""Benchmark diff (``powerlens bench-diff``): per-key tolerance
semantics, structural-drift handling, and the CLI exit-code contract
the CI smoke step relies on."""

import json

import pytest

from repro.obs.benchdiff import (
    BenchDiff,
    DEFAULT_REL_TOL,
    diff_benchmarks,
    format_diff,
    load_bench,
    parse_tolerance_specs,
)

pytestmark = pytest.mark.obs

_BASE = {
    "datagen_scaling": {
        "host_cpus": 1,
        "recorded_at": "2026-08-06T15:17:08",
        "n_networks": 100,
        "n_blocks": 1307,
        "serial": {"n_jobs": 1, "wall_time_s": 7.193,
                   "networks_per_s": 13.902},
    },
}


def _variant(**leaf_overrides):
    new = json.loads(json.dumps(_BASE))
    new["datagen_scaling"]["serial"].update(leaf_overrides)
    return new


class TestDiffSemantics:
    def test_identical_payloads_are_ok(self):
        diff = diff_benchmarks(_BASE, json.loads(json.dumps(_BASE)))
        assert diff.ok
        assert diff.failures == [] and diff.warnings == []

    def test_environment_stamps_are_ignored(self):
        new = json.loads(json.dumps(_BASE))
        new["datagen_scaling"]["host_cpus"] = 64
        new["datagen_scaling"]["recorded_at"] = "2030-01-01T00:00:00"
        new["datagen_scaling"]["pool_speedup_note"] = "whatever"
        new["datagen_scaling"]["host"] = {"python": "3.12.1", "cpus": 64}
        diff = diff_benchmarks(_BASE, new)
        assert diff.ok and diff.warnings == []

    def test_numeric_drift_within_tolerance_passes(self):
        assert diff_benchmarks(_BASE, _variant(wall_time_s=9.0)).ok

    def test_numeric_drift_beyond_tolerance_fails(self):
        diff = diff_benchmarks(_BASE, _variant(wall_time_s=72.0))
        assert not diff.ok
        [row] = diff.failures
        assert row.path == "datagen_scaling.serial.wall_time_s"
        assert "tolerance" in row.note

    def test_exact_keys_fail_on_any_change(self):
        new = json.loads(json.dumps(_BASE))
        new["datagen_scaling"]["n_blocks"] = 1308  # within any rel_tol
        diff = diff_benchmarks(_BASE, new, rel_tol=10.0)
        assert not diff.ok
        assert diff.failures[0].note == "exact key differs"

    def test_type_change_fails(self):
        diff = diff_benchmarks(_BASE, _variant(wall_time_s="7.193"))
        assert not diff.ok
        assert "type changed" in diff.failures[0].note

    def test_structural_drift_warns_then_fails_under_strict(self):
        new = json.loads(json.dumps(_BASE))
        del new["datagen_scaling"]["serial"]["networks_per_s"]
        new["datagen_scaling"]["extra_section"] = {"x": 1}
        diff = diff_benchmarks(_BASE, new)
        assert diff.ok and len(diff.warnings) == 2
        strict = diff_benchmarks(_BASE, new, strict=True)
        assert not strict.ok

    def test_per_key_tolerance_overrides(self):
        new = _variant(wall_time_s=7.193 * 1.4)  # inside default 0.5
        tight = diff_benchmarks(_BASE, new,
                                tolerances={"wall_time_s": 0.1})
        assert not tight.ok
        by_path = diff_benchmarks(
            _BASE, new,
            tolerances={"datagen_scaling.serial.wall_time_s": 0.1})
        assert not by_path.ok
        # Overriding an unrelated key leaves the default in force.
        assert diff_benchmarks(_BASE, new,
                               tolerances={"networks_per_s": 0.01}).ok

    def test_subpath_tolerance_covers_nested_dict(self):
        base = json.loads(json.dumps(_BASE))
        base["datagen_scaling"]["serial"]["stage_seconds"] = {
            "distance": 1.0, "cluster": 2.0}
        new = json.loads(json.dumps(base))
        new["datagen_scaling"]["serial"]["stage_seconds"]["distance"] = 4.0
        # 75% relative drift: outside the default 0.5, inside a 2.0
        # override addressed by the interior key name.
        assert not diff_benchmarks(base, new).ok
        assert diff_benchmarks(
            base, new, tolerances={"stage_seconds": 2.0}).ok
        # Full-path and leaf-name overrides still win over the sub-path.
        tight = diff_benchmarks(
            base, new, tolerances={"stage_seconds": 2.0,
                                   "distance": 0.1})
        assert not tight.ok

    def test_zero_values_compare_equal(self):
        assert diff_benchmarks({"a": {"v": 0.0}}, {"a": {"v": 0}}).ok

    def test_format_lists_failures_and_verdict(self):
        diff = diff_benchmarks(_BASE, _variant(wall_time_s=72.0))
        text = format_diff(diff)
        assert "FAIL datagen_scaling.serial.wall_time_s" in text
        assert text.endswith("FAIL")
        verbose = format_diff(diff, verbose=True)
        assert "  OK" in verbose

    def test_parse_tolerance_specs(self):
        assert parse_tolerance_specs(["speedup=0.25", "a.b=1"]) == \
            {"speedup": 0.25, "a.b": 1.0}
        with pytest.raises(ValueError, match="tolerance spec"):
            parse_tolerance_specs(["nonsense"])

    def test_rejects_negative_tolerance_and_non_object_files(
            self, tmp_path):
        with pytest.raises(ValueError, match="rel_tol"):
            diff_benchmarks({}, {}, rel_tol=-1)
        bad = tmp_path / "b.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_bench(bad)


class TestBenchDiffCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        path = self._write(tmp_path, "a.json", _BASE)
        assert main(["bench-diff", path, path]) == 0
        assert "-> OK" in capsys.readouterr().out

    def test_checked_in_benchmark_self_compares_clean(self, capsys):
        """The CI smoke step: the repo's own BENCH_datagen.json must
        diff cleanly against itself."""
        from pathlib import Path
        from repro.cli import main
        bench = Path(__file__).resolve().parent.parent / \
            "BENCH_datagen.json"
        assert bench.exists()
        assert main(["bench-diff", str(bench), str(bench)]) == 0

    def test_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main
        old = self._write(tmp_path, "old.json", _BASE)
        new = self._write(tmp_path, "new.json",
                          _variant(wall_time_s=72.0))
        assert main(["bench-diff", old, new]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_strict_and_tolerance_flags(self, tmp_path):
        from repro.cli import main
        drifted = json.loads(json.dumps(_BASE))
        drifted["datagen_scaling"]["new_metric"] = 1.0
        old = self._write(tmp_path, "old.json", _BASE)
        new = self._write(tmp_path, "new.json", drifted)
        assert main(["bench-diff", old, new]) == 0
        assert main(["bench-diff", old, new, "--strict"]) == 1
        within = self._write(tmp_path, "within.json",
                             _variant(wall_time_s=8.0))
        assert main(["bench-diff", old, within,
                     "--tolerance", "wall_time_s=0.01"]) == 1

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["bench-diff", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 2
        assert "bench-diff:" in capsys.readouterr().err

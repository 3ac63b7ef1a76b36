"""Adaptive retention experiment: the PR's headline claim, asserted.

``run_adaptive_retention`` sweeps fault scales over a drifting
workload (plans built at one batch size, traffic shifting to another)
and measures how much of the zero-fault EE gain each runtime keeps.
The claims pinned here:

* on the no-drift zero-fault anchor flow the adaptive runtime is
  **byte-identical** to the static preset runtime (same per-job
  energy / time / switch-count signatures) — the closed loop is free
  when nothing drifts;
* the anchor gain over BiM is positive (the preset runtime is worth
  deploying at all);
* under drift the adaptive runtime retains **strictly more** of that
  gain than the static runtime at *every* fault scale, and it does so
  by actually adopting at least one bounded correction.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import run_adaptive_retention
from repro.experiments.adaptive import (
    DRIFT_RUNTIMES,
    build_drift_net,
    shifted_faults,
)
from repro.hw.faults import CapWindow, FaultProfile

GOLDEN = Path(__file__).parent / "goldens" / "adaptive_retention.json"


@pytest.fixture(scope="module")
def retention():
    return run_adaptive_retention()


class TestRetentionSweep:
    def test_anchor_flow_is_byte_identical(self, retention):
        assert retention.anchor_identical

    def test_anchor_gain_positive(self, retention):
        assert retention.anchor_gain() > 0

    def test_sweep_shape(self, retention):
        assert retention.scales[0] == 0.0
        assert set(retention.ee) == set(DRIFT_RUNTIMES)
        for runtime in DRIFT_RUNTIMES:
            assert len(retention.ee[runtime]) == len(retention.scales)
            assert all(v > 0 for v in retention.ee[runtime])

    def test_adaptive_beats_static_at_every_scale(self, retention):
        for i, scale in enumerate(retention.scales):
            assert retention.gain("adaptive", i) \
                > retention.gain("static", i), \
                f"adaptive did not beat static at scale {scale}"
            assert retention.retention("adaptive", i) \
                > retention.retention("static", i)

    def test_loop_actually_acted(self, retention):
        # at least one bounded correction was adopted per scale — the
        # gain isn't an artifact of a different code path
        for health in retention.replan:
            assert health["adopted"] >= 1
            assert health["nudged_blocks"] >= 1

    def test_faults_injected_at_nonzero_scales(self, retention):
        for i, scale in enumerate(retention.scales):
            if scale >= 1.0:
                assert retention.fault_totals[i] > 0

    def test_outputs_render(self, retention):
        table = retention.format_table()
        assert "Adaptive retention under workload drift" in table
        assert "byte-identical to static: yes" in table
        payload = retention.to_dict()
        assert payload["anchor_identical"] is True
        assert payload["gain"]["adaptive"]
        assert payload["profile"] is not None


def _canonical(value):
    """``to_dict()`` with every float rounded to 10 significant digits
    (the rounding the other golden fixtures are stored in)."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def test_adaptive_retention_golden(update_goldens):
    """All four runtimes at fault scales 0 and 1, pinned: the canonical
    form of ``to_dict()`` plus the sha256 of its exact JSON text, so any
    change to plan selection, the replanner or the simulator shows."""
    data = run_adaptive_retention(scales=(0, 1)).to_dict()
    golden = {
        "sha256": hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()).hexdigest(),
        "result": _canonical(data),
    }
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    if update_goldens:
        GOLDEN.write_text(text)
        return
    assert GOLDEN.exists(), (
        f"golden fixture {GOLDEN} missing — generate it with "
        f"pytest tests/test_experiments_adaptive.py --update-goldens")
    assert text == GOLDEN.read_text(), (
        "adaptive-retention result drifted from its golden fixture; if "
        "the change is intended, rerun with --update-goldens and commit "
        "the diff")


class TestShiftedFaults:
    def test_none_and_zero_profiles_pass_through(self):
        assert shifted_faults(None, 1.0, seed=1) is None
        assert shifted_faults(FaultProfile(seed=0), 1.0, seed=1) is None

    def test_windows_slide_left_and_expire(self):
        profile = FaultProfile(seed=0, switch_drop_rate=0.1,
                               cap_windows=(CapWindow(2.0, 3.0, 1),))
        shifted = shifted_faults(profile, 2.5, seed=7)
        assert shifted.seed == 7
        assert shifted.cap_windows == (CapWindow(0.0, 0.5, 1),)
        # fully in the past: the window disappears, rates remain
        gone = shifted_faults(profile, 3.0, seed=8)
        assert gone.cap_windows == ()
        assert gone.switch_drop_rate == profile.switch_drop_rate

    def test_future_windows_keep_their_offset(self):
        profile = FaultProfile(seed=0,
                               cap_windows=(CapWindow(4.0, 6.0, 0),))
        shifted = shifted_faults(profile, 1.0, seed=1)
        assert shifted.cap_windows == (CapWindow(3.0, 5.0, 0),)


def test_drift_net_is_batch_sensitive():
    """The drift workload exists because the paper-zoo models have
    batch-invariant analytic plans; the synthetic net must not."""
    graph = build_drift_net()
    assert graph.name == "drift_net"
    assert len(graph.compute_nodes()) >= 16


class TestAdaptiveCLI:
    def test_robustness_adaptive_table(self, capsys):
        import repro.cli as cli
        rc = cli.main(["robustness", "--adaptive", "--scales", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Adaptive retention under workload drift" in out
        assert "byte-identical to static: yes" in out

    def test_robustness_adaptive_json(self, capsys):
        import json

        import repro.cli as cli
        rc = cli.main(["robustness", "--adaptive", "--scales", "0",
                       "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["anchor_identical"] is True
        assert payload["anchor_gain"] > 0
        scales = payload["scales"]
        for i in range(len(scales)):
            assert payload["gain"]["adaptive"][i] \
                > payload["gain"]["static"][i]

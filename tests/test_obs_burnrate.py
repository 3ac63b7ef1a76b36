"""SLO burn-rate monitor: calibration, window math, detection.

The calibration contract from the design: **zero false alerts** on a
clean (fault-free, generous-SLO) run of every governor × policy
conformance cell, while an injected burn — a fault storm with a tight
SLO, or a synthetic mass-violation stream — is detected.  Plus the
window mechanics in isolation: budget arithmetic, fast/slow pairing,
the ``min_events`` floor, episode open/close, and config validation.
"""

from __future__ import annotations

import math

import pytest

from repro.hw.faults import FaultProfile
from repro.obs.burnrate import BurnAlert, BurnRateConfig, BurnRateMonitor
from repro.serving import (
    DeviceConfig,
    Fleet,
    FleetScheduler,
    SERVING_GOVERNORS,
    SchedulerConfig,
    make_trace,
)
from tests.conftest import build_small_cnn

pytestmark = [pytest.mark.serving, pytest.mark.obs]

MODEL = "small_cnn"
POLICIES = ("fifo", "slo", "energy")


def _serve_with_burn(governor: str, policy: str, seed: int = 11,
                     rate: float = 30.0, duration: float = 0.5,
                     slo: float = math.inf, faults=None,
                     config: BurnRateConfig = None):
    fleet = Fleet.build([DeviceConfig("tx2-0", "tx2"),
                         DeviceConfig("agx-1", "agx")],
                        governor=governor, fleet_seed=seed,
                        faults=faults)
    fleet.add_graph(build_small_cnn(MODEL))
    trace = make_trace("poisson", rate_rps=rate, duration_s=duration,
                       models=[MODEL], seed=seed, slo_latency_s=slo)
    monitor = BurnRateMonitor(config or BurnRateConfig(
        fast_window_s=0.125, slow_window_s=0.5))
    FleetScheduler(fleet, SchedulerConfig(policy=policy),
                   sinks=[monitor]).run(trace)
    return monitor


# ----------------------------------------------------------------------
# calibration: clean runs never alert, storms do
# ----------------------------------------------------------------------
class TestCalibration:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("governor", SERVING_GOVERNORS)
    def test_zero_alerts_on_clean_runs(self, governor, policy):
        monitor = _serve_with_burn(governor, policy)
        assert monitor.alert_count == 0, (
            f"{governor}/{policy}: spurious burn alert on a clean run")
        assert monitor.bad_events == 0
        assert monitor.peak_fast_burn == 0.0
        assert monitor.peak_slow_burn == 0.0

    def test_fault_storm_with_tight_slo_detected(self):
        monitor = _serve_with_burn(
            "powerlens", "slo", seed=3, rate=200.0, slo=0.02,
            config=BurnRateConfig(fast_window_s=0.05,
                                  slow_window_s=0.1, min_events=3))
        assert monitor.alert_count > 0
        assert monitor.bad_events > 0
        assert monitor.peak_fast_burn >= monitor.config.threshold

    def test_hardware_fault_storm_detected(self):
        faults = FaultProfile(seed=3, telemetry_noise_std=0.8,
                              switch_drop_rate=0.2)
        monitor = _serve_with_burn(
            "powerlens", "fifo", seed=3, rate=60.0, duration=2.0,
            slo=0.5, faults=faults,
            config=BurnRateConfig(fast_window_s=0.25,
                                  slow_window_s=1.0, min_events=3))
        assert monitor.bad_events > 0
        assert monitor.peak_fast_burn > 0.0

    def test_metrics_registry_shape(self):
        monitor = _serve_with_burn("powerlens", "fifo")
        registry = monitor.metrics()
        assert registry.counter(
            "powerlens_slo_burn_events_total").value == monitor.events
        assert registry.counter(
            "powerlens_slo_burn_alerts_total").value == 0
        assert registry.gauge("powerlens_slo_burn_fast").value == 0.0


# ----------------------------------------------------------------------
# window math on synthetic streams
# ----------------------------------------------------------------------
class TestWindowMath:
    def test_budget_property(self):
        assert BurnRateConfig(objective=0.99).budget == pytest.approx(
            0.01)
        assert BurnRateConfig(objective=0.9).budget == pytest.approx(
            0.1)

    def test_all_ok_stream_never_fires(self):
        monitor = BurnRateMonitor(BurnRateConfig(min_events=1))
        for i in range(100):
            monitor.observe(i * 0.01, True)
        assert monitor.alert_count == 0
        assert monitor.peak_fast_burn == 0.0

    def test_all_bad_stream_fires_once_past_min_events(self):
        cfg = BurnRateConfig(objective=0.99, fast_window_s=0.5,
                             slow_window_s=2.0, threshold=4.0,
                             min_events=10)
        monitor = BurnRateMonitor(cfg)
        for i in range(30):
            monitor.observe(i * 0.01, False)
        # bad_fraction 1.0 → burn 100 ≫ threshold, one long episode,
        # still firing, so it ends at the last event.
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert isinstance(alert, BurnAlert)
        assert alert.peak_fast_burn == pytest.approx(100.0)
        assert alert.peak_slow_burn == pytest.approx(100.0)
        assert alert.t_end == 29 * 0.01
        assert alert.duration_s > 0

    def test_min_events_floor_suppresses_early_blip(self):
        cfg = BurnRateConfig(min_events=10, fast_window_s=0.1,
                             slow_window_s=0.1)
        monitor = BurnRateMonitor(cfg)
        for i in range(5):
            monitor.observe(i * 0.01, False)
        assert monitor.alert_count == 0
        # Burn was still recorded as a peak, just below alerting.
        assert monitor.peak_fast_burn > 0

    def test_episode_closes_when_burn_subsides(self):
        cfg = BurnRateConfig(objective=0.9, fast_window_s=0.2,
                             slow_window_s=0.2, threshold=2.0,
                             min_events=5)
        monitor = BurnRateMonitor(cfg)
        t = 0.0
        for _ in range(20):          # storm: all bad
            monitor.observe(t, False)
            t += 0.01
        for _ in range(200):         # recovery: all ok, windows slide
            monitor.observe(t, True)
            t += 0.01
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        # Closed by the recovery, not at the last event.
        assert alert.t_end < t - 0.01
        assert alert.bad_events > 0

    def test_slow_window_gates_fast_blip(self):
        # A short spike fills the fast window but the slow window's
        # bad fraction stays below threshold → no alert (the whole
        # point of multi-window burn).
        cfg = BurnRateConfig(objective=0.5, fast_window_s=0.05,
                             slow_window_s=10.0, threshold=1.9,
                             min_events=2)
        monitor = BurnRateMonitor(cfg)
        t = 0.0
        for _ in range(200):         # long good history
            monitor.observe(t, True)
            t += 0.01
        for _ in range(10):          # brief spike
            monitor.observe(t, False)
            t += 0.01
        assert monitor.alert_count == 0
        assert monitor.peak_fast_burn >= cfg.threshold

    def test_window_slides_by_virtual_time(self):
        cfg = BurnRateConfig(objective=0.9, fast_window_s=0.1,
                             slow_window_s=0.1, min_events=1)
        monitor = BurnRateMonitor(cfg)
        monitor.observe(0.0, False)
        # Far in the future the old bad event has left both windows.
        monitor.observe(10.0, True)
        assert monitor._fast.bad == 0
        assert len(monitor._fast.events) == 1

    def test_open_episode_closes_at_last_event(self):
        cfg = BurnRateConfig(objective=0.9, min_events=1,
                             threshold=1.0)
        monitor = BurnRateMonitor(cfg)
        for i in range(5):
            monitor({"seq": i, "t": i * 0.01, "event": "drop"})
        assert monitor.alert_count == 1   # open episode counted
        assert monitor.alerts[0].t_end == 4 * 0.01
        # Non-terminal events move the close time but not the windows.
        monitor({"seq": 5, "t": 0.2, "event": "readmit"})
        assert monitor.events == 5
        assert [a.t_end for a in monitor.alerts] == [0.2]
        # Reading is a projection: it never closes the episode itself.
        monitor({"seq": 6, "t": 0.21, "event": "drop"})
        assert len(monitor.alerts) == 1
        assert monitor.alerts[0].events == 6

    def test_span_rows_shape(self):
        cfg = BurnRateConfig(objective=0.9, min_events=1,
                             threshold=1.0)
        monitor = BurnRateMonitor(cfg)
        for i in range(5):
            monitor.observe(i * 0.01, False)
        rows = monitor.span_rows()
        assert len(rows) == 1
        name, t_start, t_end, attrs = rows[0]
        assert name == "slo_burn"
        assert t_start <= t_end
        assert attrs["objective"] == 0.9
        assert attrs["bad_events"] == 5

    def test_summary_digest(self):
        monitor = BurnRateMonitor()
        monitor.observe(0.0, True)
        digest = monitor.summary()
        assert digest["events"] == 1
        assert digest["alerts"] == 0
        assert digest["alert_spans"] == []


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    dict(objective=0.0), dict(objective=1.0), dict(objective=-0.5),
    dict(fast_window_s=0.0), dict(slow_window_s=-1.0),
    dict(fast_window_s=2.0, slow_window_s=1.0),
    dict(threshold=0.0), dict(min_events=0),
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        BurnRateConfig(**kwargs)

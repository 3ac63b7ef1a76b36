"""Unit tests for the deterministic fault-injection layer
(:mod:`repro.hw.faults`): profile validation/parsing/scaling, injector
determinism, per-category outcomes and the pure worker-fault function."""

import pytest

from repro.hw.faults import (
    OUTCOME_APPLIED,
    OUTCOME_DELAYED,
    OUTCOME_DROPPED,
    OUTCOME_PARTIAL,
    CapWindow,
    FaultInjector,
    FaultProfile,
    TransientWorkerError,
    worker_fault,
)
from repro.hw.telemetry import TelemetrySample

pytestmark = pytest.mark.faults


def _sample(t=1.0, power=5.0, util=0.5):
    return TelemetrySample(t=t, period=0.1, gpu_level=3, gpu_busy=util,
                           compute_util=util, memory_util=util,
                           gpu_power=power, cpu_power=power / 2,
                           total_power=power * 2)


class TestCapWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            CapWindow(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            CapWindow(2.0, 1.0, 3)
        with pytest.raises(ValueError):
            CapWindow(-0.5, 1.0, 3)
        with pytest.raises(ValueError):
            CapWindow(0.0, 1.0, -1)

    def test_active_at_half_open(self):
        w = CapWindow(1.0, 2.0, 3)
        assert not w.active_at(0.999)
        assert w.active_at(1.0)
        assert w.active_at(1.999)
        assert not w.active_at(2.0)


class TestFaultProfile:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(switch_drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(telemetry_drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultProfile(switch_delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultProfile(telemetry_noise_std=-0.2)

    def test_is_zero(self):
        assert FaultProfile.none().is_zero
        assert FaultProfile(seed=99, switch_delay_s=9.0).is_zero
        assert not FaultProfile(switch_drop_rate=0.01).is_zero
        assert not FaultProfile(telemetry_noise_std=0.1).is_zero
        assert not FaultProfile(
            cap_windows=(CapWindow(0.0, 1.0, 2),)).is_zero

    def test_representative(self):
        p = FaultProfile.representative(seed=3)
        assert p.seed == 3
        assert p.switch_drop_rate == pytest.approx(0.05)
        assert p.telemetry_drop_rate == pytest.approx(0.02)
        assert len(p.cap_windows) == 1
        # The thermal window clamps to the ladder floor.
        assert p.cap_windows[0].max_level == 0

    def test_representative_sized_to_horizon(self):
        p = FaultProfile.representative(horizon=200.0)
        (w,) = p.cap_windows
        assert w.t_start == pytest.approx(4.0)
        assert w.t_end == pytest.approx(20.0)

    def test_scaled_zero_is_zero(self):
        assert FaultProfile.representative().scaled(0.0).is_zero

    def test_scaled_rates_and_window_duration(self):
        p = FaultProfile(switch_drop_rate=0.3, telemetry_noise_std=0.1,
                         cap_windows=(CapWindow(1.0, 2.0, 4),))
        doubled = p.scaled(2.0)
        assert doubled.switch_drop_rate == pytest.approx(0.6)
        assert doubled.telemetry_noise_std == pytest.approx(0.2)
        assert doubled.cap_windows[0].t_start == pytest.approx(1.0)
        assert doubled.cap_windows[0].t_end == pytest.approx(3.0)
        # Rates clamp at 1.
        assert p.scaled(10.0).switch_drop_rate == 1.0
        # Identity scaling changes nothing.
        assert p.scaled(1.0) == p
        with pytest.raises(ValueError):
            p.scaled(-1.0)

    def test_parse_presets_and_spec(self):
        assert FaultProfile.parse("none").is_zero
        assert FaultProfile.parse("").is_zero
        assert FaultProfile.parse("representative") == \
            FaultProfile.representative()
        p = FaultProfile.parse(
            "seed=7,switch_drop_rate=0.1,cap=0.5:1.5:2,cap=2:3:4")
        assert p.seed == 7
        assert p.switch_drop_rate == pytest.approx(0.1)
        assert p.cap_windows == (CapWindow(0.5, 1.5, 2),
                                 CapWindow(2.0, 3.0, 4))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultProfile.parse("drop0.1")
        with pytest.raises(ValueError):
            FaultProfile.parse("no_such_field=1")
        with pytest.raises(ValueError):
            FaultProfile.parse("cap=1:2")

    def test_to_dict_json_friendly(self):
        p = FaultProfile.representative(seed=5)
        d = p.to_dict()
        assert d["seed"] == 5
        assert d["cap_windows"] == [
            [w.t_start, w.t_end, w.max_level] for w in p.cap_windows]


class TestFaultInjector:
    def test_maybe_none_for_zero(self):
        assert FaultInjector.maybe(None) is None
        assert FaultInjector.maybe(FaultProfile.none()) is None
        assert FaultInjector.maybe(
            FaultProfile(switch_drop_rate=0.5)) is not None

    def test_deterministic_streams(self):
        profile = FaultProfile(seed=11, switch_drop_rate=0.5,
                               telemetry_drop_rate=0.5)
        a, b = FaultInjector(profile), FaultInjector(profile)
        for _ in range(50):
            assert a.switch_outcome(0, 3) == b.switch_outcome(0, 3)
        # Telemetry draws never perturb the switch stream: an injector
        # that also consumed telemetry events still agrees on switches
        # with one that saw none.
        c, d = FaultInjector(profile), FaultInjector(profile)
        for i in range(50):
            c.deliver_sample(_sample(t=i * 0.1))
            assert c.switch_outcome(0, 3) == d.switch_outcome(0, 3)

    def test_drop_certain(self):
        inj = FaultInjector(FaultProfile(switch_drop_rate=1.0))
        achieved, outcome, stall = inj.switch_outcome(2, 5)
        assert (achieved, outcome, stall) == (2, OUTCOME_DROPPED, 0.0)
        assert inj.stats.switches_dropped == 1

    def test_partial_lands_one_short(self):
        inj = FaultInjector(FaultProfile(switch_partial_rate=1.0))
        assert inj.switch_outcome(2, 5) == (4, OUTCOME_PARTIAL, 0.0)
        assert inj.switch_outcome(5, 2) == (3, OUTCOME_PARTIAL, 0.0)
        # An adjacent-step partial degenerates to a drop.
        assert inj.switch_outcome(2, 3) == (2, OUTCOME_DROPPED, 0.0)

    def test_delay_charges_extra_stall(self):
        inj = FaultInjector(FaultProfile(switch_delay_rate=1.0,
                                         switch_delay_s=0.123))
        assert inj.switch_outcome(2, 5) == (5, OUTCOME_DELAYED, 0.123)
        assert inj.stats.switches_delayed == 1

    def test_clean_profile_applies(self):
        inj = FaultInjector(FaultProfile(telemetry_drop_rate=0.5))
        assert inj.switch_outcome(2, 5) == (5, OUTCOME_APPLIED, 0.0)

    def test_active_cap_is_tightest(self):
        inj = FaultInjector(FaultProfile(
            switch_drop_rate=0.1,
            cap_windows=(CapWindow(0.0, 2.0, 5), CapWindow(1.0, 3.0, 2))))
        assert inj.active_cap(0.5) == 5
        assert inj.active_cap(1.5) == 2
        assert inj.active_cap(2.5) == 2
        assert inj.active_cap(3.5) is None

    def test_telemetry_drop(self):
        inj = FaultInjector(FaultProfile(telemetry_drop_rate=1.0))
        assert inj.deliver_sample(_sample()) is None
        assert inj.stats.telemetry_dropped == 1

    def test_telemetry_stuck_repeats_previous_window(self):
        inj = FaultInjector(FaultProfile(telemetry_stuck_rate=1.0))
        first = _sample(t=1.0, power=5.0)
        # Nothing to repeat yet: the first window passes through clean.
        assert inj.deliver_sample(first) == first
        second = inj.deliver_sample(_sample(t=2.0, power=9.0))
        assert second.faulty
        assert second.t == 2.0
        assert second.gpu_power == pytest.approx(first.gpu_power)
        assert inj.stats.telemetry_stuck == 1

    def test_telemetry_noise_flags_and_clamps(self):
        inj = FaultInjector(FaultProfile(seed=1, telemetry_noise_std=5.0))
        out = inj.deliver_sample(_sample(util=0.9))
        assert out.faulty
        assert 0.0 <= out.gpu_busy <= 1.0
        assert 0.0 <= out.compute_util <= 1.0
        assert out.gpu_power >= 0.0
        assert inj.stats.telemetry_noisy == 1

    def test_stats_total(self):
        inj = FaultInjector(FaultProfile(switch_drop_rate=1.0,
                                         telemetry_drop_rate=1.0))
        inj.switch_outcome(0, 1)
        inj.deliver_sample(_sample())
        inj.note_capped()
        assert inj.stats.total == 3


class TestWorkerFault:
    def test_no_profile_never_fails(self):
        assert not worker_fault(None, 0, 0)
        assert not worker_fault(FaultProfile.none(), 0, 0)

    def test_certain_failure(self):
        p = FaultProfile(worker_failure_rate=1.0)
        assert all(worker_fault(p, i, a)
                   for i in range(5) for a in range(3))

    def test_pure_function_of_identity(self):
        p = FaultProfile(seed=4, worker_failure_rate=0.5)
        draws = [worker_fault(p, i, a)
                 for i in range(20) for a in range(3)]
        again = [worker_fault(p, i, a)
                 for i in range(20) for a in range(3)]
        assert draws == again
        assert any(draws) and not all(draws)
        # Distinct identities draw independently.
        assert worker_fault(p, 0, 0) == worker_fault(p, 0, 0)

    def test_transient_error_is_runtime_error(self):
        assert issubclass(TransientWorkerError, RuntimeError)

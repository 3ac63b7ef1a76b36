"""DVFS controller and telemetry/trace accounting tests."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.dvfs import DVFSController, DVFSSwitch
from repro.hw.faults import OUTCOME_NOOP, FaultInjector, FaultProfile
from repro.hw.telemetry import (
    KIND_CPU,
    KIND_GPU_OP,
    KIND_IDLE,
    KIND_SWITCH,
    EnergyReport,
    TelemetrySample,
    Trace,
    TraceSegment,
    report_from_trace,
)


def _seg(t0, t1, kind=KIND_GPU_OP, level=3, gpu=5.0, cpu=1.0, board=2.0):
    return TraceSegment(t_start=t0, t_end=t1, kind=kind, gpu_level=level,
                        gpu_power=gpu, cpu_power=cpu, board_power=board)


class TestDVFSController:
    def test_noop_request_ignored(self, tx2):
        c = DVFSController(tx2, level=3)
        result = c.actuate(0.0, 3)
        assert result.switch is None and result.outcome == OUTCOME_NOOP
        assert c.switch_count() == 0

    def test_request_clamps(self, tx2):
        c = DVFSController(tx2, level=0)
        sw = c.actuate(0.0, 999).switch
        assert sw.to_level == tx2.max_level
        assert c.level == tx2.max_level

    def test_history_records(self, tx2):
        c = DVFSController(tx2, level=0)
        c.actuate(0.0, 5)
        c.actuate(1.0, 2)
        assert c.switch_count() == 2
        assert c.history[0] == DVFSSwitch(0.0, 0, 5, requested_level=5)
        assert c.history[1].direction == -1

    def test_reversal_counting(self, tx2):
        c = DVFSController(tx2, level=0)
        for t, lvl in enumerate([5, 2, 6, 1, 8]):  # up,down,up,down,up
            c.actuate(float(t), lvl)
        assert c.reversal_count() == 4

    def test_monotone_ramp_has_no_reversals(self, tx2):
        c = DVFSController(tx2, level=0)
        for t, lvl in enumerate([2, 4, 6, 8, 10]):
            c.actuate(float(t), lvl)
        assert c.reversal_count() == 0

    def test_freq_property(self, tx2):
        c = DVFSController(tx2, level=4)
        assert c.freq == tx2.freq_of_level(4)


class TestTrace:
    def test_energy_is_integral_of_power(self):
        tr = Trace()
        tr.append(_seg(0.0, 1.0, gpu=5.0, cpu=1.0, board=2.0))
        tr.append(_seg(1.0, 3.0, gpu=3.0, cpu=0.5, board=2.0))
        assert tr.total_time == pytest.approx(3.0)
        assert tr.gpu_energy == pytest.approx(5.0 + 2 * 3.0)
        assert tr.cpu_energy == pytest.approx(1.0 + 2 * 0.5)
        assert tr.board_energy == pytest.approx(2.0 + 2 * 2.0)
        assert tr.total_energy == pytest.approx(tr.gpu_energy
                                                + tr.cpu_energy
                                                + tr.board_energy)

    def test_negative_duration_rejected(self):
        tr = Trace()
        with pytest.raises(ValueError):
            tr.append(_seg(1.0, 0.5))

    def test_busy_time_counts_only_gpu_ops(self):
        tr = Trace()
        tr.append(_seg(0.0, 1.0, kind=KIND_GPU_OP))
        tr.append(_seg(1.0, 2.0, kind=KIND_CPU))
        assert tr.busy_gpu_time == pytest.approx(1.0)

    def test_switch_count(self):
        tr = Trace()
        tr.append(_seg(0.0, 0.001, kind=KIND_SWITCH))
        tr.append(_seg(0.001, 1.0))
        assert tr.switch_count == 1

    def test_segments_dropped_but_scalars_kept(self):
        tr = Trace(keep_segments=False)
        tr.append(_seg(0.0, 1.0))
        assert tr.segments == []
        assert tr.total_energy > 0

    def test_frequency_timeline_merges_runs(self):
        tr = Trace()
        tr.append(_seg(0.0, 1.0, level=3))
        tr.append(_seg(1.0, 2.0, level=3))
        tr.append(_seg(2.0, 3.0, level=7))
        timeline = tr.frequency_timeline()
        assert timeline == [(0.0, 2.0, 3), (2.0, 3.0, 7)]

    def test_level_residency_sums_to_one(self):
        tr = Trace()
        tr.append(_seg(0.0, 1.0, level=0))
        tr.append(_seg(1.0, 4.0, level=2))
        res = tr.level_residency(4)
        assert sum(res) == pytest.approx(1.0)
        assert res[2] == pytest.approx(0.75)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     -2.5e-310, 1.0]))
_NAMES = st.one_of(st.sampled_from([KIND_GPU_OP, KIND_CPU, KIND_IDLE,
                                    KIND_SWITCH, ""]),
                   st.text(max_size=6))
_SEGMENTS = st.lists(st.builds(
    TraceSegment, _FLOATS, _FLOATS, _NAMES,
    st.integers(-2 ** 31, 2 ** 31 - 1), _FLOATS, _FLOATS, _FLOATS,
    _FLOATS, _FLOATS, _NAMES,
    st.one_of(st.just(-1), st.integers(0, 2 ** 31 - 1))), max_size=40)


def _accumulators(trace):
    return repr((trace.total_time, trace.gpu_energy, trace.cpu_energy,
                 trace.board_energy, trace.busy_gpu_time,
                 trace.switch_count))


class TestColumnStore:
    """The kept segments round-trip through the columns exactly, and the
    accumulators are the plain sequential sums."""

    @settings(max_examples=150)
    @given(_SEGMENTS)
    def test_round_trip(self, segments):
        kept, dropped = Trace(), Trace(keep_segments=False)
        accepted = []
        total_time, gpu_e, cpu_e, board_e, busy, switches = \
            0.0, 0.0, 0.0, 0.0, 0.0, 0
        for seg in segments:
            dt = seg.t_end - seg.t_start
            if not math.isfinite(dt) or dt < 0:
                for trace in (kept, dropped):
                    before = _accumulators(trace)
                    with pytest.raises(ValueError, match="negative"):
                        trace.append(seg)
                    assert _accumulators(trace) == before
                assert len(kept.segments) == len(accepted)
                continue
            kept.append(seg)
            dropped.append(seg)
            accepted.append(seg)
            total_time = seg.t_end
            gpu_e += seg.gpu_power * dt
            cpu_e += seg.cpu_power * dt
            board_e += seg.board_power * dt
            if seg.kind == KIND_GPU_OP:
                busy += dt
            elif seg.kind == KIND_SWITCH:
                switches += 1
        ref = repr((total_time, gpu_e, cpu_e, board_e, busy, switches))

        view, n = kept.segments, len(accepted)
        assert len(view) == n
        assert repr(list(view)) == repr(accepted)
        assert all(type(seg) is TraceSegment for seg in view)
        assert [repr(view[i]) for i in range(-n, n)] == \
            [repr(accepted[i]) for i in range(-n, n)]
        for cut in (slice(None), slice(None, None, 2), slice(1, -1),
                    slice(None, None, -1), slice(-3, None),
                    slice(n + 5, None)):
            assert repr(view[cut]) == repr(accepted[cut])
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                view[bad]
        if not any(math.isnan(x) for seg in accepted for x in seg
                   if isinstance(x, float)):
            assert view == accepted
            assert view == kept.segments
        assert _accumulators(kept) == ref
        assert _accumulators(dropped) == ref
        assert dropped.segments == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["t_start", "t_end"])
    def test_non_finite_time_rejected(self, field, bad):
        times = {"t_start": 1.0, "t_end": 2.0, field: bad}
        for trace in (Trace(), Trace(keep_segments=False)):
            trace.append(_seg(0.0, 1.0))
            before = _accumulators(trace)
            with pytest.raises(ValueError, match="non-finite"):
                trace.add(times["t_start"], times["t_end"], KIND_GPU_OP, 3,
                          5.0, 1.0, 2.0, label="op")
            assert _accumulators(trace) == before
            assert trace.strings == (
                [KIND_GPU_OP, ""] if trace.keep_segments else [])
            assert len(trace.segments) == int(trace.keep_segments)

    def test_view_is_live_and_read_only(self):
        tr = Trace()
        view = tr.segments
        tr.append(_seg(0.0, 1.0))
        assert len(view) == 1 and view[0] == _seg(0.0, 1.0)
        with pytest.raises(AttributeError):
            tr.segments = []
        with pytest.raises(TypeError):
            view[0] = _seg(0.0, 2.0)

    def test_failed_store_keeps_nothing(self):
        tr = Trace()
        tr.append(_seg(0.0, 1.0))
        before = _accumulators(tr)
        with pytest.raises(struct.error):
            tr.add(1.0, 2.0, KIND_GPU_OP, 3, 5.0, 1.0, 2.0, 0.0, 0.0,
                   "op", 2 ** 31)
        assert _accumulators(tr) == before
        assert list(tr.segments) == [_seg(0.0, 1.0)]
        tr.append(_seg(1.0, 2.0))
        assert list(tr.segments) == [_seg(0.0, 1.0), _seg(1.0, 2.0)]

    def test_columns(self):
        tr = Trace()
        tr.add(0.0, 1.0, KIND_CPU, 2, 0.5, 1.5, 2.0, label="pre")
        tr.add(1.0, 3.0, KIND_GPU_OP, 4, 5.0, 1.0, 2.0, 0.7, 0.2, "conv",
               0)
        assert list(tr.column("t_end")) == [1.0, 3.0]
        assert list(tr.column("op_index")) == [-1, 0]
        assert [tr.strings[c] for c in tr.column("label")] == \
            ["pre", "conv"]
        assert [tr.strings[c] for c in tr.column("kind")] == \
            [KIND_CPU, KIND_GPU_OP]
        assert tr.code(KIND_GPU_OP) == tr.column("kind")[1]
        assert tr.code(KIND_SWITCH) == -1


class TestEnergyReport:
    def test_ee_definition_matches_equation_1(self):
        """EE = images / E = FPS / P-bar (equation 1 of the paper)."""
        r = EnergyReport(images=100, total_time=10.0, total_energy=50.0,
                         gpu_energy=30.0, cpu_energy=15.0,
                         board_energy=5.0, switch_count=0)
        assert r.energy_efficiency == pytest.approx(2.0)
        fps = r.images / r.total_time
        average_power = r.total_energy / r.total_time
        assert fps / average_power == pytest.approx(r.energy_efficiency)
        assert r.energy_per_image == pytest.approx(0.5)

    def test_zero_guards(self):
        r = EnergyReport(images=0, total_time=0.0, total_energy=0.0,
                         gpu_energy=0, cpu_energy=0, board_energy=0,
                         switch_count=0)
        assert r.energy_efficiency == 0.0
        assert r.energy_per_image == 0.0

    def test_report_from_trace(self):
        tr = Trace()
        tr.append(_seg(0.0, 2.0))
        r = report_from_trace(tr, images=4)
        assert r.images == 4
        assert r.total_energy == pytest.approx(tr.total_energy)


def _sample(t=1.5, power=6.0):
    return TelemetrySample(t=t, period=0.02, gpu_level=7, gpu_busy=0.5,
                           compute_util=0.5, memory_util=0.3,
                           gpu_power=power, cpu_power=0.8,
                           total_power=power + 2.8)


class TestRecordContract:
    """Segments and samples are tuples: immutable, hashable, with the
    field order, defaults and ``repr`` the goldens were recorded with."""

    def test_fields_and_defaults(self):
        assert TraceSegment._fields == (
            "t_start", "t_end", "kind", "gpu_level", "gpu_power",
            "cpu_power", "board_power", "compute_util", "memory_util",
            "label", "op_index")
        assert TraceSegment._field_defaults == {
            "compute_util": 0.0, "memory_util": 0.0, "label": "",
            "op_index": -1}
        assert TelemetrySample._fields == (
            "t", "period", "gpu_level", "gpu_busy", "compute_util",
            "memory_util", "gpu_power", "cpu_power", "total_power",
            "cpu_busy", "cpu_level", "faulty")
        assert TelemetrySample._field_defaults == {
            "cpu_busy": 0.0, "cpu_level": 0, "faulty": False}

    @pytest.mark.parametrize("record, name", [
        (_seg(0.0, 1.0), "gpu_power"),
        (_seg(0.0, 1.0), "op_index"),
        (_sample(), "gpu_busy"),
        (_sample(), "faulty"),
    ])
    def test_fields_are_read_only(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)

    def test_hashable_with_dataclass_repr(self):
        seg = _seg(0.0, 0.5)
        assert hash(seg) == hash(_seg(0.0, 0.5))
        assert repr(seg) == (
            "TraceSegment(t_start=0.0, t_end=0.5, kind='gpu_op', "
            "gpu_level=3, gpu_power=5.0, cpu_power=1.0, board_power=2.0, "
            "compute_util=0.0, memory_util=0.0, label='', op_index=-1)")
        assert seg.duration == 0.5
        assert seg.total_power == 8.0
        assert seg.energy == 4.0
        assert repr(_sample()).startswith(
            "TelemetrySample(t=1.5, period=0.02, gpu_level=7, ")

    def test_fault_copies_are_flagged_records(self):
        # Stuck and noisy windows are ``_replace`` copies: still
        # samples, flagged, with every field the fault leaves alone.
        stuck_inj = FaultInjector(FaultProfile(telemetry_stuck_rate=1.0))
        stuck_inj.deliver_sample(_sample(t=1.0, power=4.0))
        stuck = stuck_inj.deliver_sample(_sample(t=1.02, power=9.0))
        assert type(stuck) is TelemetrySample
        assert stuck == _sample(t=1.02, power=4.0)._replace(faulty=True)

        clean = _sample()
        noisy = FaultInjector(FaultProfile(telemetry_noise_std=0.2)
                              ).deliver_sample(clean)
        assert type(noisy) is TelemetrySample
        assert noisy.faulty is True and clean.faulty is False
        perturbed = ("gpu_busy", "compute_util", "memory_util",
                     "gpu_power", "cpu_power", "total_power")
        restored = noisy._replace(
            faulty=False, **{f: getattr(clean, f) for f in perturbed})
        assert restored == clean

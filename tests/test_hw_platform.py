"""Platform specification tests, pinned against the paper's section 3.1
hardware description."""

import pytest

from repro.hw import (
    CpuSpec,
    PlatformSpec,
    get_platform,
    jetson_agx_xavier,
    jetson_tx2,
)


class TestPaperFrequencyTables:
    def test_tx2_has_13_levels(self):
        p = jetson_tx2()
        assert p.n_levels == 13

    def test_tx2_range_matches_paper(self):
        p = jetson_tx2()
        assert p.f_min == pytest.approx(114.75e6)
        assert p.f_max == pytest.approx(1300.5e6)

    def test_agx_has_14_levels(self):
        p = jetson_agx_xavier()
        assert p.n_levels == 14

    def test_agx_range_matches_paper(self):
        p = jetson_agx_xavier()
        assert p.f_min == pytest.approx(114.75e6)
        assert p.f_max == pytest.approx(1377.0e6)

    def test_ladders_strictly_ascending(self):
        for p in (jetson_tx2(), jetson_agx_xavier()):
            freqs = p.gpu_freq_levels
            assert all(b > a for a, b in zip(freqs, freqs[1:]))


class TestLevelArithmetic:
    def test_freq_of_level_bounds(self, tx2):
        with pytest.raises(IndexError):
            tx2.freq_of_level(-1)
        with pytest.raises(IndexError):
            tx2.freq_of_level(tx2.n_levels)

    def test_clamp_level(self, tx2):
        assert tx2.clamp_level(-5) == 0
        assert tx2.clamp_level(999) == tx2.max_level
        assert tx2.clamp_level(3) == 3


class TestVoltageCurve:
    def test_voltage_monotonically_increasing(self):
        for p in (jetson_tx2(), jetson_agx_xavier()):
            volts = [p.voltage(f) for f in p.gpu_freq_levels]
            assert all(b > a for a, b in zip(volts, volts[1:]))

    def test_voltage_endpoints(self, tx2):
        assert tx2.voltage(tx2.f_min) == pytest.approx(tx2.v_min)
        assert tx2.voltage(tx2.f_max) == pytest.approx(tx2.v_max)

    def test_voltage_clamped_outside_ladder(self, tx2):
        assert tx2.voltage(1.0) == pytest.approx(tx2.v_min)
        assert tx2.voltage(1e12) == pytest.approx(tx2.v_max)

    def test_agx_top_steeper_than_tx2(self):
        """The AGX's wider V range drives its larger Table-1(b) gains."""
        tx2, agx = jetson_tx2(), jetson_agx_xavier()
        ratio_tx2 = tx2.voltage(tx2.f_max) / tx2.voltage(tx2.f_min)
        ratio_agx = agx.voltage(agx.f_max) / agx.voltage(agx.f_min)
        assert ratio_agx > ratio_tx2

    def test_cpu_voltage_curve(self, tx2):
        cpu = tx2.cpu
        assert cpu.voltage(cpu.f_min) == pytest.approx(cpu.v_min)
        assert cpu.voltage(cpu.f_max) == pytest.approx(cpu.v_max)


class TestBandwidth:
    def test_bandwidth_increases_with_freq(self, tx2):
        bws = [tx2.bandwidth_at(f) for f in tx2.gpu_freq_levels]
        assert all(b > a for a, b in zip(bws, bws[1:]))

    def test_bandwidth_peak_at_fmax(self, tx2):
        assert tx2.bandwidth_at(tx2.f_max) == \
            pytest.approx(tx2.mem_bandwidth)

    def test_bandwidth_floor(self, tx2):
        floor = tx2.mem_bandwidth * (1 - tx2.bw_freq_sensitivity)
        assert tx2.bandwidth_at(0) >= floor * 0.99


class TestConstruction:
    def test_presets_by_name(self):
        assert get_platform("tx2").name == "jetson_tx2"
        assert get_platform("agx").name == "jetson_agx_xavier"
        assert get_platform("JETSON_TX2").name == "jetson_tx2"

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_platform("rtx4090")

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            PlatformSpec(name="bad", gpu_freq_levels=(1e9,),
                         cpu=CpuSpec(freq_levels=(1e9, 2e9)))

    def test_descending_ladder_rejected(self):
        with pytest.raises(ValueError):
            PlatformSpec(name="bad", gpu_freq_levels=(2e9, 1e9),
                         cpu=CpuSpec(freq_levels=(1e9, 2e9)))

    def test_with_overrides(self, tx2):
        p2 = tx2.with_overrides(board_power=9.0)
        assert p2.board_power == 9.0
        assert tx2.board_power != 9.0
        assert p2.gpu_freq_levels == tx2.gpu_freq_levels

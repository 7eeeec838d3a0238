"""Tests for repro.params: Table II geometry and validation."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.params import (
    CacheParams,
    CoreParams,
    DramParams,
    LINES_PER_PAGE,
    LINES_PER_REGION,
    SystemParams,
    default_l1d,
    default_l2,
    default_llc,
)


class TestAddressGeometry:
    def test_lines_per_page_is_64(self):
        assert LINES_PER_PAGE == 64

    def test_lines_per_region_is_32(self):
        assert LINES_PER_REGION == 32


class TestCacheParams:
    def test_table2_l1d(self):
        l1 = default_l1d()
        assert l1.size == 48 * 1024
        assert l1.ways == 12
        assert l1.latency == 5
        assert l1.pq_entries == 8
        assert l1.mshr_entries == 16
        assert l1.sets == 64

    def test_table2_l2(self):
        l2 = default_l2()
        assert l2.size == 512 * 1024
        assert l2.ways == 8
        assert l2.latency == 10
        assert l2.pq_entries == 16
        assert l2.mshr_entries == 32

    def test_table2_llc_scales_with_cores(self):
        llc1 = default_llc(1)
        llc4 = default_llc(4)
        assert llc1.size == 2 * 1024 * 1024
        assert llc4.size == 8 * 1024 * 1024
        assert llc4.pq_entries == 4 * llc1.pq_entries
        assert llc4.mshr_entries == 4 * llc1.mshr_entries

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheParams("bad", 3 * 64 * 2, 2, 1, 1, 1)

    def test_rejects_size_not_multiple_of_way_line(self):
        with pytest.raises(ConfigurationError):
            CacheParams("bad", 1000, 2, 1, 1, 1)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigurationError):
            CacheParams("bad", 2 * 64 * 2, 2, 0, 1, 1)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            CacheParams("bad", -128, 2, 1, 1, 1)


class TestDramParams:
    def test_default_is_one_channel_ddr4_1600(self):
        dram = DramParams()
        assert dram.channels == 1
        assert dram.bandwidth_gbps == pytest.approx(12.8)

    def test_cycles_per_line_at_4ghz(self):
        dram = DramParams()
        # 12.8 GB/s at 4 GHz = 3.2 B/cycle -> 20 cycles per 64 B line.
        assert dram.cycles_per_line == pytest.approx(20.0)

    def test_low_bandwidth_raises_cycles_per_line(self):
        slow = DramParams(bandwidth_gbps=3.2)
        assert slow.cycles_per_line == pytest.approx(80.0)

    def test_rejects_zero_channels(self):
        with pytest.raises(ConfigurationError):
            DramParams(channels=0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            DramParams(bandwidth_gbps=0)

    @pytest.mark.parametrize("field", ["bandwidth_gbps", "core_ghz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_non_finite_or_nonpositive_rate(self, field, value):
        with pytest.raises(ConfigurationError):
            DramParams(**{field: value})


class TestCoreParams:
    def test_table2_defaults(self):
        core = CoreParams()
        assert core.width == 4
        assert core.rob_size == 256

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            CoreParams(width=0)


class TestSystemParams:
    def test_default_composition(self):
        system = SystemParams()
        assert system.l1d.name == "L1D"
        assert system.l2.name == "L2"
        assert system.llc.name == "LLC"
        assert system.core.rob_size == 256

"""Additional stats-layer tests: coverage of SimResult helpers and the
CacheStats properties not exercised elsewhere."""

import pytest

from repro.memsys.cache import CacheStats
from repro.sim.engine import SimResult


def result_with(l1=None, instructions=10_000, cycles=5_000,
                dram_reads=100, dram_writes=20):
    return SimResult(
        trace_name="t",
        prefetcher_name="p",
        instructions=instructions,
        cycles=cycles,
        l1=l1 or CacheStats(),
        l2=CacheStats(),
        llc=CacheStats(),
        dram_reads=dram_reads,
        dram_writes=dram_writes,
    )


class TestCacheStatsProperties:
    def test_coverage_zero_without_activity(self):
        assert CacheStats().coverage == 0.0

    def test_accuracy_zero_without_fills(self):
        assert CacheStats().accuracy == 0.0

    def test_miss_ratio(self):
        stats = CacheStats(demand_accesses=10, demand_misses=3)
        assert stats.miss_ratio == pytest.approx(0.3)

    def test_miss_ratio_no_accesses(self):
        assert CacheStats().miss_ratio == 0.0

    def test_coverage_formula(self):
        stats = CacheStats(pf_useful=30, uncovered_misses=70)
        assert stats.coverage == pytest.approx(0.3)

    def test_accuracy_formula(self):
        stats = CacheStats(pf_useful=40, pf_filled=50)
        assert stats.accuracy == pytest.approx(0.8)


class TestSimResultHelpers:
    def test_ipc(self):
        assert result_with().ipc == pytest.approx(2.0)

    def test_ipc_zero_cycles(self):
        assert result_with(cycles=0).ipc == 0.0

    def test_mpki_per_level(self):
        l1 = CacheStats(demand_misses=50)
        assert result_with(l1=l1).mpki("l1") == pytest.approx(5.0)

    def test_mpki_zero_instructions(self):
        assert result_with(instructions=0).mpki("l1") == 0.0

    def test_dram_bytes(self):
        assert result_with().dram_bytes == 120 * 64

    def test_speedup_over_zero_baseline(self):
        fast = result_with()
        stalled = result_with(cycles=0)
        assert fast.speedup_over(stalled) == 0.0

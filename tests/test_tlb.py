"""Tests for the TLB hierarchy."""

import pytest

from repro.errors import ConfigurationError
from repro.memsys.hierarchy import build_hierarchy
from repro.memsys.tlb import TlbHierarchy, TlbParams
from repro.params import SystemParams


class TestTlbParams:
    def test_table2_defaults(self):
        params = TlbParams()
        assert params.dtlb_entries == 64
        assert params.stlb_entries == 1536

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            TlbParams(dtlb_entries=0)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ConfigurationError):
            TlbParams(walk_penalty=-1)


class TestTlbHierarchy:
    def test_first_touch_pays_walk(self):
        tlb = TlbHierarchy()
        assert tlb.access(100) == TlbParams().walk_penalty

    def test_repeat_access_free(self):
        tlb = TlbHierarchy()
        tlb.access(100)
        assert tlb.access(100) == 0

    def test_dtlb_eviction_falls_back_to_stlb(self):
        tlb = TlbHierarchy(TlbParams(dtlb_entries=2, stlb_entries=64))
        tlb.access(1)
        tlb.access(2)
        tlb.access(3)  # evicts page 1 from the DTLB
        assert tlb.access(1) == TlbParams().stlb_penalty

    def test_stlb_eviction_pays_full_walk_again(self):
        tlb = TlbHierarchy(TlbParams(dtlb_entries=1, stlb_entries=2))
        tlb.access(1)
        tlb.access(2)
        tlb.access(3)  # page 1 leaves both levels
        assert tlb.access(1) == TlbParams().walk_penalty

    def test_stats_track_miss_rates(self):
        tlb = TlbHierarchy()
        tlb.access(1)
        tlb.access(1)
        assert tlb.stats.accesses == 2
        assert tlb.stats.dtlb_misses == 1

    def test_reset_keeps_contents(self):
        tlb = TlbHierarchy()
        tlb.access(1)
        tlb.reset_stats()
        assert tlb.stats.accesses == 0
        assert tlb.access(1) == 0  # still cached


class TestHierarchyIntegration:
    def test_tlb_enabled_by_default(self):
        hierarchy = build_hierarchy(SystemParams())
        assert hierarchy.tlb is not None

    def test_tlb_can_be_disabled(self):
        hierarchy = build_hierarchy(SystemParams(model_tlb=False))
        assert hierarchy.tlb is None

    def test_page_spread_loads_pay_translation(self):
        with_tlb = build_hierarchy(SystemParams())
        without = build_hierarchy(SystemParams(model_tlb=False))
        # Same virtual page mapping seeds -> same physical behaviour;
        # only the translation penalty differs on first touches.
        a = with_tlb.load(0x100_0000, 0x400, 0)
        b = without.load(0x100_0000, 0x400, 0)
        assert a >= b

    def test_translation_cached_after_first_touch(self):
        hierarchy = build_hierarchy(SystemParams())
        hierarchy.load(0x100_0000, 0x400, 0)
        misses_before = hierarchy.tlb.stats.dtlb_misses
        hierarchy.load(0x100_0040, 0x400, 1_000)  # same page
        assert hierarchy.tlb.stats.dtlb_misses == misses_before

"""Tests for hierarchy wiring: L1 -> L2 -> LLC -> DRAM, translation."""

from repro.core import IpcpL1
from repro.memsys.hierarchy import build_hierarchy
from repro.params import SystemParams
from repro.prefetchers.base import Prefetcher, PrefetchRequest


class TestDemandPath:
    def test_miss_fills_all_levels(self, hierarchy):
        hierarchy.load(0x1000, 0x400, 0)
        paddr = hierarchy.vmem.translate(0x1000)
        assert hierarchy.l1d.probe(paddr)
        assert hierarchy.l2.probe(paddr)
        assert hierarchy.llc.probe(paddr)

    def test_miss_latency_includes_all_levels(self, hierarchy):
        ready = hierarchy.load(0x1000, 0x400, 0)
        total_latency = (
            hierarchy.l1d.params.latency
            + hierarchy.l2.params.latency
            + hierarchy.llc.params.latency
            + hierarchy.dram.params.base_latency
        )
        assert ready >= total_latency

    def test_l1_hit_is_cheap(self, hierarchy):
        first = hierarchy.load(0x1000, 0x400, 0)
        second = hierarchy.load(0x1000, 0x400, first)
        assert second == first + hierarchy.l1d.params.latency

    def test_l2_hit_after_l1_eviction_path_exists(self, hierarchy):
        # Fill enough conflicting lines to evict from L1 but not L2.
        sets = hierarchy.l1d.params.sets
        ways = hierarchy.l1d.params.ways
        for i in range(ways + 2):
            hierarchy.load(0x100_0000 + i * sets * 64, 0x400, i * 10_000)
        first_paddr = hierarchy.vmem.translate(0x100_0000)
        assert not hierarchy.l1d.probe(first_paddr)
        assert hierarchy.l2.probe(first_paddr)

    def test_instruction_counter_feeds_mpki(self, hierarchy):
        for i in range(3_000):
            hierarchy.tick_instruction()
            if i % 3 == 0:
                hierarchy.load(0x200_0000 + i * 64, 0x400, i)
        assert hierarchy.l1d.mpki > 0


class TestVirtualPhysicalSplit:
    def test_l1_prefetcher_sees_virtual_addresses(self):
        seen = []

        class Recorder(Prefetcher):
            def __init__(self):
                super().__init__(name="rec")

            def on_access(self, ctx):
                seen.append(ctx.addr)
                return []

        hierarchy = build_hierarchy(SystemParams(), l1_prefetcher=Recorder())
        hierarchy.load(0x1234_5000, 0x400, 0)
        assert seen == [0x1234_5000]

    def test_l1_prefetch_addresses_are_translated(self):
        class NextLineVirtual(Prefetcher):
            def __init__(self):
                super().__init__(name="nl")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=ctx.addr + 64)]

        hierarchy = build_hierarchy(
            SystemParams(), l1_prefetcher=NextLineVirtual()
        )
        hierarchy.load(0x1234_5000, 0x400, 0)
        paddr = hierarchy.vmem.translate(0x1234_5040)
        assert hierarchy.l1d.probe(paddr)

    def test_l2_prefetcher_sees_physical_addresses(self):
        seen = []

        class Recorder(Prefetcher):
            def __init__(self):
                super().__init__(name="rec")

            def on_access(self, ctx):
                seen.append(ctx.addr)
                return []

        hierarchy = build_hierarchy(SystemParams(), l2_prefetcher=Recorder())
        hierarchy.load(0x1234_5000, 0x400, 0)
        paddr = hierarchy.vmem.translate(0x1234_5000)
        assert seen and seen[0] >> 6 == paddr >> 6


class TestMetadataChannel:
    def test_l1_metadata_reaches_l2_prefetcher(self):
        received = []

        class MetaSource(Prefetcher):
            def __init__(self):
                super().__init__(name="src")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=ctx.addr + 64, metadata=0x1AB)]

        class MetaSink(Prefetcher):
            def __init__(self):
                super().__init__(name="sink")

            def on_access(self, ctx):
                if ctx.metadata:
                    received.append(ctx.metadata)
                return []

        hierarchy = build_hierarchy(
            SystemParams(),
            l1_prefetcher=MetaSource(),
            l2_prefetcher=MetaSink(),
        )
        hierarchy.load(0x1000, 0x400, 0)
        assert received == [0x1AB]


class TestSharedLevels:
    def test_two_hierarchies_can_share_llc_and_dram(self):
        from repro.memsys.cache import Cache
        from repro.memsys.dram import Dram
        from repro.memsys.hierarchy import DramPort
        from repro.params import default_llc

        dram = Dram()
        llc = Cache(default_llc(2), DramPort(dram))
        h0 = build_hierarchy(shared_llc=llc, shared_dram=dram, asid=0)
        h1 = build_hierarchy(shared_llc=llc, shared_dram=dram, asid=1)
        h0.load(0x1000, 0x400, 0)
        h1.load(0x1000, 0x400, 0)
        assert h0.llc is h1.llc
        # Distinct ASIDs -> distinct physical lines in the shared LLC.
        assert llc.stats.demand_misses == 2

    def test_shared_llc_samples_every_core(self):
        # Private levels count their own core; a shared LLC samples MPKI
        # against every core's retired instructions.
        from repro.memsys.cache import Cache
        from repro.memsys.dram import Dram
        from repro.memsys.hierarchy import DramPort
        from repro.params import default_llc

        dram = Dram()
        llc = Cache(default_llc(2), DramPort(dram))
        h0 = build_hierarchy(shared_llc=llc, shared_dram=dram, asid=0)
        h1 = build_hierarchy(shared_llc=llc, shared_dram=dram, asid=1)
        h0.tick_instruction(5)
        h1.tick_instruction(7)
        assert h0.l2.instruction_counter.value == 5
        assert h1.l1d.instruction_counter.value == 7
        assert llc.instruction_counter.value == 12

    def test_shared_llc_mpki_window_spans_cores(self):
        # Neither core alone retires a full sampling window, together
        # they do: the LLC samples its demand misses against their sum.
        from repro.memsys.cache import Cache
        from repro.memsys.dram import Dram
        from repro.memsys.hierarchy import DramPort
        from repro.params import default_llc

        dram = Dram()
        llc = Cache(default_llc(2), DramPort(dram))
        h0 = build_hierarchy(shared_llc=llc, shared_dram=dram, asid=0)
        h1 = build_hierarchy(shared_llc=llc, shared_dram=dram, asid=1)
        h0.tick_instruction(Cache.MPKI_WINDOW // 2)
        h1.tick_instruction(Cache.MPKI_WINDOW // 2)
        h0.load(0x1000, 0x400, 0)
        assert llc.stats.demand_misses == 1
        assert llc.mpki == 1000.0 / Cache.MPKI_WINDOW

    def test_reset_stats_resets_all_levels(self, hierarchy):
        hierarchy.load(0x1000, 0x400, 0)
        hierarchy.reset_stats()
        assert hierarchy.l1d.stats.demand_accesses == 0
        assert hierarchy.l2.stats.demand_accesses == 0
        assert hierarchy.llc.stats.demand_accesses == 0
        assert hierarchy.dram.reads == 0


class TestIpcpIntegration:
    def test_ipcp_l1_installs_prefetches_into_l1(self):
        hierarchy = build_hierarchy(SystemParams(), l1_prefetcher=IpcpL1())
        # Constant stride 1: train then verify a prefetch landed.
        for i in range(12):
            hierarchy.load(0x3000_0000 + i * 64, 0x400_101, i * 50)
        future_paddr = hierarchy.vmem.translate(0x3000_0000 + 12 * 64)
        assert hierarchy.l1d.probe(future_paddr)


class TestLifetime:
    def test_dropped_hierarchy_is_freed_without_cyclic_gc(self):
        # The caches share a counter object, not a closure over the
        # hierarchy, so dropping the last reference frees the hierarchy
        # at once instead of leaving cyclic garbage for the collector.
        import gc
        import weakref

        from repro.core import IpcpL2
        from repro.sim.engine import simulate
        from repro.workloads import spec_trace

        trace = spec_trace("lbm_like", 0.02)
        hierarchy = build_hierarchy(SystemParams(), l1_prefetcher=IpcpL1(),
                                    l2_prefetcher=IpcpL2())
        enabled = gc.isenabled()
        gc.disable()
        try:
            simulate(trace, hierarchy=hierarchy)
            ref = weakref.ref(hierarchy)
            del hierarchy
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

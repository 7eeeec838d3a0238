"""Edge cases and failure-injection tests across the engine."""

import pytest

from repro.core import IpcpL1
from repro.errors import SimulationError
from repro.memsys.cache import Cache
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import DramPort, build_hierarchy
from repro.params import CacheParams, SystemParams
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    NullPrefetcher,
    Prefetcher,
    PrefetchRequest,
)
from repro.sim.engine import simulate
from repro.sim.trace import LOAD, OTHER, Trace


class TestEngineEdges:
    def test_empty_roi_after_full_warmup(self):
        trace = Trace([(OTHER, 0x400, 0, 0)] * 100)
        result = simulate(trace, warmup=100)
        assert result.instructions == 0
        assert result.ipc == 0.0

    def test_warmup_larger_than_trace_is_clamped(self):
        trace = Trace([(OTHER, 0x400, 0, 0)] * 10)
        result = simulate(trace, warmup=1_000)
        assert result.instructions == 0

    def test_single_instruction_trace(self):
        trace = Trace([(LOAD, 0x400, 0x1000, 0)])
        result = simulate(trace, warmup=0)
        assert result.instructions == 1
        assert result.cycles > 0

    def test_zero_max_instructions(self):
        trace = Trace([(OTHER, 0x400, 0, 0)] * 100)
        result = simulate(trace, warmup=0, max_instructions=0)
        assert result.instructions == 0


class TestNullPrefetcher:
    def test_never_prefetches(self):
        pf = NullPrefetcher()
        ctx = AccessContext(ip=1, addr=64, cache_hit=False,
                            kind=AccessType.LOAD, cycle=0)
        assert pf.on_access(ctx) == []
        assert pf.storage_bits == 0

    def test_bump_accumulates(self):
        pf = NullPrefetcher()
        pf.bump("x")
        pf.bump("x", 4)
        assert pf.stats == {"x": 5}


class TestMisbehavingPrefetcher:
    def test_prefetch_to_absurd_address_is_contained(self):
        class Wild(Prefetcher):
            def __init__(self):
                super().__init__(name="wild")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=(1 << 52))]

        hierarchy = build_hierarchy(SystemParams(), l1_prefetcher=Wild())
        # Must not crash; the request simply becomes a cold prefetch.
        hierarchy.load(0x1000, 0x400, 0)

    def test_huge_request_burst_is_bounded_by_pq(self):
        class Flood(Prefetcher):
            def __init__(self):
                super().__init__(name="flood")

            def on_access(self, ctx):
                line = ctx.addr >> 6
                return [PrefetchRequest(addr=(line + k) << 6)
                        for k in range(1, 64)]

        params = CacheParams("T", 64 * 4 * 64, 4, 1, 4, 8)
        cache = Cache(params, DramPort(Dram()), prefetcher=Flood())
        cache.demand(1 << 20, 0, True, 0)
        assert cache.stats.pf_dropped_pq > 0
        assert cache.stats.pf_issued <= 8 + 4  # PQ + drained slots


class TestDemandIntegrity:
    def test_demand_never_dropped(self):
        # Even under heavy prefetch pressure demands must be serviced.
        hierarchy = build_hierarchy(SystemParams(), l1_prefetcher=IpcpL1())
        for i in range(2_000):
            ready = hierarchy.load(0x200_0000 + i * 64, 0x400, i * 3)
            assert ready is not None and ready >= i * 3

    def test_dropped_demand_raises_simulation_error(self):
        class NullLevel:
            def demand(self, *args, **kwargs):
                return None

        params = CacheParams("T", 4 * 2 * 64, 2, 1, 4, 4)
        cache = Cache(params, NullLevel())
        with pytest.raises(SimulationError):
            cache.demand(0x1000, 0, True, 0)


class TestAddressExtremes:
    def test_address_zero_line(self, tiny_cache):
        # Line 0 is a legal cache line.
        ready = tiny_cache.demand(0x0, 0, True, 0)
        assert ready > 0
        assert tiny_cache.probe(0x0)

    def test_44_bit_addresses(self, hierarchy):
        high = (1 << 44) - 4096
        ready = hierarchy.load(high, 0x400, 0)
        assert ready > 0

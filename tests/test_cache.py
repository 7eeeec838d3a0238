"""Tests for the cache model: hits/misses, MSHR, PQ, prefetch accounting."""

import pytest

from repro.memsys.cache import Cache
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import DramPort
from repro.params import CacheParams
from repro.prefetchers.base import PrefetchRequest, Prefetcher


def make_cache(sets=4, ways=2, latency=1, pq=4, mshr=4, prefetcher=None):
    params = CacheParams("T", sets * ways * 64, ways, latency, pq, mshr)
    return Cache(params, DramPort(Dram()), prefetcher=prefetcher)


class TestBasicHitMiss:
    def test_first_access_misses(self):
        cache = make_cache()
        cache.demand(0x1000, 0, True, 0)
        assert cache.stats.demand_misses == 1
        assert cache.stats.demand_hits == 0

    def test_second_access_hits(self):
        cache = make_cache()
        cache.demand(0x1000, 0, True, 0)
        cache.demand(0x1000, 1000, True, 0)
        assert cache.stats.demand_hits == 1

    def test_same_line_different_offsets_hit(self):
        cache = make_cache()
        cache.demand(0x1000, 0, True, 0)
        cache.demand(0x103F, 1000, True, 0)
        assert cache.stats.demand_hits == 1

    def test_miss_latency_exceeds_hit_latency(self):
        cache = make_cache(latency=5)
        miss_ready = cache.demand(0x1000, 0, True, 0)
        hit_ready = cache.demand(0x1000, miss_ready, True, 0)
        assert miss_ready > 5
        assert hit_ready == miss_ready + 5

    def test_probe_has_no_side_effects(self):
        cache = make_cache()
        assert not cache.probe(0x1000)
        cache.demand(0x1000, 0, True, 0)
        assert cache.probe(0x1000)
        assert cache.stats.demand_accesses == 1

    def test_eviction_on_conflict(self):
        cache = make_cache(sets=1, ways=2)
        cache.demand(0x0000, 0, True, 0)
        cache.demand(0x0040, 0, True, 0)
        cache.demand(0x0080, 10_000, True, 0)  # evicts LRU
        assert not cache.probe(0x0000)
        assert cache.probe(0x0040)
        assert cache.probe(0x0080)


class TestStoresAndWritebacks:
    def test_store_marks_dirty_and_writeback_on_evict(self):
        cache = make_cache(sets=1, ways=1)
        cache.demand(0x0000, 0, False, 0)
        cache.demand(0x1000, 10_000, True, 0)  # evicts dirty line
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(sets=1, ways=1)
        cache.demand(0x0000, 0, True, 0)
        cache.demand(0x1000, 10_000, True, 0)
        assert cache.stats.writebacks == 0

    def test_incoming_writeback_installs_without_fetch(self):
        cache = make_cache()
        dram = cache.next_level.dram
        cache.writeback(0x2000, 0)
        assert cache.probe(0x2000)
        assert dram.reads == 0


class TestMshr:
    def test_demand_on_inflight_line_waits_for_fill(self):
        # Blocks install eagerly with a fill timestamp; a demand racing
        # an in-flight miss hits but pays the residual fill latency.
        cache = make_cache()
        first = cache.demand(0x1000, 0, True, 0)
        second = cache.demand(0x1000, 1, True, 0)
        assert cache.stats.demand_hits == 1
        assert second >= first

    def test_demand_stalls_when_mshr_full(self):
        cache = make_cache(mshr=2)
        cache.demand(0x0000, 0, True, 0)
        cache.demand(0x1000, 0, True, 0)
        cache.demand(0x2000, 0, True, 0)  # must wait for a slot
        assert cache.stats.mshr_full_stalls == 1

    def test_mshr_entries_retire_over_time(self):
        cache = make_cache(mshr=2)
        ready = cache.demand(0x0000, 0, True, 0)
        cache.demand(0x1000, 0, True, 0)
        # Far in the future both entries retired: no stall.
        cache.demand(0x2000, ready + 10_000, True, 0)
        assert cache.stats.mshr_full_stalls == 0

    def test_stall_waits_for_the_earliest_entry_only(self):
        class Fixed:  # the level below answers in 100 cycles, no queue
            def demand(self, addr, cycle, is_load, ip, vaddr=None):
                return cycle + 100

        params = CacheParams("T", 4 * 2 * 64, 2, 1, 4, 2)
        cache = Cache(params, Fixed())
        assert cache.demand(0x0000, 0, True, 0) == 101
        assert cache.demand(0x1000, 50_000, True, 0) == 50_101
        # Full at cycle 1: the miss starts when the earliest entry
        # retires (cycle 101), and only that entry retires.
        assert cache.demand(0x2000, 1, True, 0) == 202
        assert cache.stats.mshr_full_stalls == 1
        # Full again (entries ready at 202 and 50_101): wait for 202.
        assert cache.demand(0x3000, 102, True, 0) == 303
        assert cache.stats.mshr_full_stalls == 2


class TestPartialFill:
    @pytest.mark.parametrize("policy", ["lru", "srrip"])
    def test_a_set_evicts_only_once_full(self, policy):
        evicted = []

        class Fills(Prefetcher):
            def __init__(self):
                super().__init__(name="fills")

            def on_fill(self, addr, was_prefetch, metadata, evicted_addr):
                evicted.append(evicted_addr)

        params = CacheParams("T", 2 * 2 * 64, 2, 1, 4, 4, policy)
        cache = Cache(params, DramPort(Dram()), prefetcher=Fills())
        # Set 0 (even lines) takes a third line before set 1 sees any.
        for i, addr in enumerate((0x000, 0x080, 0x100, 0x040, 0x0C0, 0x140)):
            cache.demand(addr, i * 10_000, True, 0)
        # Set 1's first two fills take its empty ways although three of
        # the four slots were already filled; its third evicts.
        assert evicted == [None, None, 0x000, None, None, 0x040]
        assert [cache.probe(a) for a in (0x080, 0x100, 0x0C0, 0x140)] \
            == [True] * 4


class TestPrefetchIssue:
    def test_issue_prefetch_installs_with_prefetch_bit(self):
        cache = make_cache()
        sent = cache.issue_prefetch(PrefetchRequest(addr=0x3000), 0)
        assert sent
        assert cache.probe(0x3000)
        assert cache.stats.pf_issued == 1
        assert cache.stats.pf_filled == 1

    def test_demand_hit_on_prefetch_counts_useful(self):
        cache = make_cache()
        cache.issue_prefetch(PrefetchRequest(addr=0x3000), 0)
        cache.demand(0x3000, 100_000, True, 0)
        assert cache.stats.pf_useful == 1

    def test_useful_counted_once(self):
        cache = make_cache()
        cache.issue_prefetch(PrefetchRequest(addr=0x3000), 0)
        cache.demand(0x3000, 100_000, True, 0)
        cache.demand(0x3000, 100_001, True, 0)
        assert cache.stats.pf_useful == 1

    def test_late_prefetch_detected(self):
        cache = make_cache()
        cache.issue_prefetch(PrefetchRequest(addr=0x3000), 0)
        cache.demand(0x3000, 1, True, 0)  # fill still in flight
        assert cache.stats.pf_late == 1

    def test_prefetch_to_cached_line_dropped(self):
        cache = make_cache()
        cache.demand(0x3000, 0, True, 0)
        sent = cache.issue_prefetch(PrefetchRequest(addr=0x3000), 1)
        assert not sent
        assert cache.stats.pf_dropped_in_cache == 1

    def test_prefetch_to_inflight_line_dropped(self):
        cache = make_cache()
        cache.demand(0x4000, 0, True, 0)  # miss in flight
        # A non-filling prefetch skips the contents check but must still
        # be deduplicated against the outstanding MSHR entry.
        sent = cache.issue_prefetch(
            PrefetchRequest(addr=0x4000, fill_this_level=False), 1
        )
        assert not sent
        assert cache.stats.pf_dropped_in_flight == 1

    def test_pq_exhaustion_drops(self):
        cache = make_cache(pq=2)
        # Three prefetches in the same cycle: the PQ drains 1/cycle.
        for i in range(3):
            cache.issue_prefetch(PrefetchRequest(addr=0x10000 + i * 0x1000), 0)
        assert cache.stats.pf_dropped_pq == 1

    def test_demand_merging_into_prefetch_counts_useful_and_late(self):
        cache = make_cache()
        cache.issue_prefetch(PrefetchRequest(addr=0x5000), 0)
        cache.demand(0x5000, 1, True, 0)
        assert cache.stats.pf_useful == 1
        assert cache.stats.pf_late == 1
        # Covered miss does not count as uncovered.
        assert cache.stats.uncovered_misses == 0

    def test_fill_this_level_false_skips_install(self):
        cache = make_cache()
        cache.issue_prefetch(
            PrefetchRequest(addr=0x6000, fill_this_level=False), 0
        )
        assert not cache.probe(0x6000)

    def test_per_class_attribution(self):
        cache = make_cache()
        cache.issue_prefetch(PrefetchRequest(addr=0x7000, pf_class=3), 0)
        cache.demand(0x7000, 100_000, True, 0)
        assert cache.stats.pf_issued_by_class == {3: 1}
        assert cache.stats.pf_useful_by_class == {3: 1}


class TestPrefetcherHooks:
    def test_prefetcher_feedback_hooks_fire(self):
        events = []

        class Spy(Prefetcher):
            def __init__(self):
                super().__init__(name="spy")

            def on_prefetch_fill(self, addr, pf_class):
                events.append(("fill", pf_class))

            def on_prefetch_hit(self, addr, pf_class):
                events.append(("hit", pf_class))

        cache = make_cache(prefetcher=Spy())
        cache.issue_prefetch(PrefetchRequest(addr=0x9000, pf_class=2), 0)
        cache.demand(0x9000, 100_000, True, 0)
        assert ("fill", 2) in events
        assert ("hit", 2) in events

    def test_prefetcher_requests_issued_on_demand_access(self):
        class OneAhead(Prefetcher):
            def __init__(self):
                super().__init__(name="one")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=ctx.addr + 64)]

        cache = make_cache(prefetcher=OneAhead())
        cache.demand(0x1000, 0, True, 0)
        assert cache.stats.pf_issued == 1
        assert cache.probe(0x1040)


class TestStatsProperties:
    def test_coverage_and_accuracy_bounds(self):
        cache = make_cache(sets=16, ways=4)
        # Eight consecutive lines land in eight different sets.
        for i in range(8):
            cache.issue_prefetch(
                PrefetchRequest(addr=0x20000 + i * 64), i * 100
            )
        for i in range(4):
            cache.demand(0x20000 + i * 64, 100_000 + i, True, 0)
        assert 0.0 <= cache.stats.coverage <= 1.0
        assert 0.0 <= cache.stats.accuracy <= 1.0
        assert cache.stats.accuracy == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        cache.demand(0x1000, 0, True, 0)
        cache.reset_stats()
        assert cache.stats.demand_accesses == 0
        assert cache.probe(0x1000)

"""The frontend memory structures: L1-I cache and ITLB.

The fetch side reuses the existing memory-system building blocks
wherever they fit: the L1-I geometry is a
:class:`repro.params.CacheParams` (which validates power-of-two sets
exactly like the data caches), the L2's code presence is a
:class:`repro.memsys.tlb.LruSet` of fetch blocks, and the ITLB subclasses
:class:`repro.memsys.tlb.TlbHierarchy` — same two-level LRU structure
and Table-II-style penalties — adding the one capability the data side
never needed: *prefetch-triggered translation* (Jamet et al.), where an
instruction prefetch crossing a page boundary walks the page table off
the critical path and warms the ITLB for the later demand fetch.

Timing is deliberately lean — a fetch-block-granular presence model
with per-block LRU and a flat L2/DRAM penalty — because the frontend
claims compare prefetchers against each other on the same model, not
against silicon.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memsys.tlb import TlbHierarchy, TlbParams
from repro.params import CacheParams


def default_l1i() -> CacheParams:
    """32 KB 8-way L1-I, 1-cycle fetch (ChampSim/Table-II style)."""
    return CacheParams("L1I", 32 * 1024, 8, 1, 8, 8)


@dataclass(frozen=True)
class FrontendParams:
    """Knobs of the fetch-directed frontend model.

    ``l2_penalty`` is what an L1-I miss that hits the unified L2 costs;
    ``dram_penalty`` is a cold code fetch that misses the L2 presence
    set too.  ``l2_code_blocks`` bounds how many distinct fetch blocks
    the unified L2 retains (8192 blocks = 512 KB, the data-side L2
    size).  ``itlb`` carries the ITLB/STLB geometry and penalties in
    the same shape as the data-side :class:`~repro.memsys.tlb.TlbParams`.
    """

    l1i: CacheParams = field(default_factory=default_l1i)
    l2_penalty: int = 14
    dram_penalty: int = 160
    l2_code_blocks: int = 8192
    itlb: TlbParams = field(
        default_factory=lambda: TlbParams(dtlb_entries=64, stlb_entries=1536)
    )

    def __post_init__(self) -> None:
        if self.l2_penalty < 1 or self.dram_penalty < self.l2_penalty:
            raise ConfigurationError(
                "need dram_penalty >= l2_penalty >= 1 "
                f"(got l2={self.l2_penalty}, dram={self.dram_penalty})"
            )
        if self.l2_code_blocks < 1:
            raise ConfigurationError("l2_code_blocks must be positive")


@dataclass
class L1iStats:
    """Fetch-side counters, resettable at the end of warm-up.

    ``demand_misses`` counts only *uncovered* misses (the fetch paid the
    full L2/DRAM penalty).  A fetch that found its block brought in by a
    prefetch counts as ``pf_covered`` instead — and as ``pf_late`` too
    when the prefetch was still in flight and the fetch paid part of
    the latency.
    """

    fetch_blocks: int = 0
    demand_misses: int = 0
    dram_misses: int = 0
    pf_issued: int = 0
    pf_covered: int = 0
    pf_late: int = 0
    pf_duplicate: int = 0

    def mpki(self, instructions: int) -> float:
        """Uncovered L1-I misses per kilo-instruction."""
        return self.demand_misses * 1000.0 / instructions if instructions else 0.0


class InstructionCache:
    """Set-associative LRU presence model over fetch blocks.

    Blocks are installed eagerly when a prefetch is *issued* (the
    ready cycle lives in the engine's in-flight map), so prefetches
    compete for cache space and can pollute — the property that keeps
    the accuracy-throttled bouquet honest against a blast-everything
    baseline.  Each resident block carries a ``prefetched`` bit that is
    cleared on its first demand touch (that touch is the per-block
    "useful" event).
    """

    def __init__(self, params: CacheParams | None = None) -> None:
        self.params = params or default_l1i()
        self._set_mask = self.params.sets - 1
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.params.sets)
        ]

    def _set_of(self, block: int) -> OrderedDict[int, bool]:
        return self._sets[block & self._set_mask]

    def lookup(self, block: int) -> bool:
        """Probe for a fetch block; updates LRU order on hit."""
        cache_set = self._set_of(block)
        if block in cache_set:
            cache_set.move_to_end(block)
            return True
        return False

    def prefetched_bit(self, block: int) -> bool:
        """Return (and clear) the resident block's prefetched bit."""
        cache_set = self._set_of(block)
        was_prefetched = cache_set.get(block, False)
        if was_prefetched:
            cache_set[block] = False
        return was_prefetched

    def install(self, block: int, prefetched: bool) -> int | None:
        """Install a block; returns the evicted block, if any."""
        cache_set = self._set_of(block)
        if block in cache_set:
            cache_set.move_to_end(block)
            cache_set[block] = prefetched
            return None
        evicted = None
        if len(cache_set) >= self.params.ways:
            evicted, _ = cache_set.popitem(last=False)
        cache_set[block] = prefetched
        return evicted

    def __contains__(self, block: int) -> bool:
        return block in self._set_of(block)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


class Itlb(TlbHierarchy):
    """Instruction TLB: the data-side TLB hierarchy plus prefetch fills.

    Demand translation behaves exactly like the parent (ITLB hit free,
    STLB hit pays ``stlb_penalty``, miss pays ``walk_penalty``).  The
    addition is :meth:`prefetch_fill`: a TLB-aware instruction
    prefetcher that crosses a page boundary triggers the translation at
    prefetch time, off the critical path, so the later demand fetch
    hits.  ``prefetch_walks`` counts those speculative walks.
    """

    def __init__(self, params: TlbParams | None = None) -> None:
        super().__init__(params)
        self.prefetch_walks = 0

    def prefetch_fill(self, vpage: int) -> None:
        """Translate ``vpage`` speculatively and warm both TLB levels.

        An STLB hit is a free promotion into the ITLB; only a miss in
        both levels costs a (speculative, off-critical-path) walk.
        """
        if self._dtlb.touch(vpage) or self._stlb.touch(vpage):
            return
        self.prefetch_walks += 1

    def resident(self) -> tuple[int, int]:
        """Current (ITLB, STLB) occupancy — for capacity invariants."""
        return len(self._dtlb), len(self._stlb)

    def reset_stats(self) -> None:
        """Zero demand and prefetch counters (contents persist)."""
        super().reset_stats()
        self.prefetch_walks = 0

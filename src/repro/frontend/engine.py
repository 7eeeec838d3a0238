"""Fetch-directed frontend simulation loop.

The loop walks a trace's *instruction pointers* (the data side walks
its addresses): every retired instruction costs one base cycle, and a
fetch-block transition probes the ITLB and the L1-I.  Misses stall the
front end for the L2 (or, for cold code, DRAM) penalty; prefetched
blocks that are still in flight charge only the remaining latency
("late" prefetches).  Prefetch requests install eagerly — they occupy
L1-I ways and can pollute — and a request that crosses the demand page
triggers the speculative ITLB translation (see
:meth:`repro.frontend.model.Itlb.prefetch_fill`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.model import (
    FrontendParams,
    InstructionCache,
    Itlb,
    L1iStats,
)
from repro.memsys.tlb import LruSet
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetcherSummary,
)
from repro.sim.engine import warmup_length
from repro.sim.trace import Trace


@dataclass(frozen=True)
class FrontendResult:
    """Outcome of one frontend run (picklable, summary-only).

    ``cycles``/``instructions`` cover the post-warm-up ROI.
    ``itlb_accesses``/``itlb_misses``/``demand_walks`` are the demand
    translation counters; ``prefetch_walks`` counts speculative
    prefetch-triggered walks (TLB-aware policy only).
    """

    trace_name: str
    prefetcher: PrefetcherSummary
    instructions: int
    cycles: int
    l1i: L1iStats
    itlb_accesses: int
    itlb_misses: int
    demand_walks: int
    prefetch_walks: int

    @property
    def l1i_mpki(self) -> float:
        """Uncovered L1-I misses per kilo-instruction."""
        return self.l1i.mpki(self.instructions)

    @property
    def walks_pki(self) -> float:
        """Demand page walks per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return self.demand_walks * 1000.0 / self.instructions

    def speedup_over(self, baseline: "FrontendResult") -> float:
        """Fetch-side speedup of this run relative to ``baseline``."""
        if not self.cycles or not baseline.cycles:
            return 0.0
        return (baseline.cycles / baseline.instructions) / \
            (self.cycles / self.instructions)

    def coverage_over(self, baseline: "FrontendResult") -> float:
        """Fraction of the baseline's L1-I misses this run removed."""
        if not baseline.l1i.demand_misses:
            return 0.0
        return 1.0 - self.l1i.demand_misses / baseline.l1i.demand_misses


def simulate_frontend(
    trace: Trace,
    prefetcher: Prefetcher | None = None,
    params: FrontendParams | None = None,
    warmup: int | None = None,
) -> FrontendResult:
    """Run one trace's instruction stream through the frontend model.

    ``warmup`` defaults to 20% of the trace (same convention as the
    data-side :func:`~repro.sim.engine.simulate`); statistics and the
    cycle counter reset at the ROI boundary while all model state
    (cache contents, TLB contents, prefetcher tables) persists.
    """
    params = params or FrontendParams()

    l1i = InstructionCache(params.l1i)
    # The fetch blocks the unified L2 still holds: an L1-I miss pays
    # the L2 penalty on a hit, DRAM's for cold or evicted code.
    l2_code = LruSet(params.l2_code_blocks)
    itlb = Itlb(params.itlb)
    stats = L1iStats()
    inflight: dict[int, tuple[int, int]] = {}  # block -> (ready, pf_class)

    warmup = warmup_length(trace, warmup)

    cycle = 0
    roi_start_cycle = 0
    instructions = 0
    roi_instructions = 0
    misses_seen = 0  # running total for the NL MPKI gate (never reset)
    current_block: int | None = None

    for position, record in enumerate(trace):
        if position == warmup:
            stats = L1iStats()
            itlb.reset_stats()
            roi_start_cycle = cycle
            roi_instructions = instructions
        ip = record[1]
        cycle += 1
        instructions += 1
        block = ip >> 6
        if block == current_block:
            continue
        current_block = block
        stats.fetch_blocks += 1
        page = ip >> 12
        cycle += itlb.access(page)

        hit = l1i.lookup(block)
        if hit:
            if l1i.prefetched_bit(block):
                ready_entry = inflight.pop(block, None)
                pf_class = ready_entry[1] if ready_entry else 0
                if ready_entry and ready_entry[0] > cycle:
                    stats.pf_late += 1
                    cycle += ready_entry[0] - cycle
                stats.pf_covered += 1
                if prefetcher is not None:
                    prefetcher.on_prefetch_hit(block << 6, pf_class)
        else:
            inflight.pop(block, None)
            stats.demand_misses += 1
            misses_seen += 1
            if l2_code.touch(block):
                cycle += params.l2_penalty
            else:
                stats.dram_misses += 1
                cycle += params.dram_penalty
            l1i.install(block, prefetched=False)

        if prefetcher is None:
            continue
        mpki = misses_seen * 1000.0 / instructions
        requests = prefetcher.on_access(AccessContext(
            ip=ip, addr=ip, cache_hit=hit, kind=AccessType.LOAD,
            cycle=cycle, mpki=mpki,
        ))
        for request in requests:
            target = request.addr >> 6
            if target in l1i or target in inflight:
                stats.pf_duplicate += 1
                continue
            stats.pf_issued += 1
            in_l2 = l2_code.touch(target)
            latency = params.l2_penalty if in_l2 else params.dram_penalty
            inflight[target] = (cycle + latency, request.pf_class)
            evicted = l1i.install(target, prefetched=True)
            if evicted is not None:
                inflight.pop(evicted, None)
            target_page = request.addr >> 12
            if target_page != page:
                itlb.prefetch_fill(target_page)
            prefetcher.on_prefetch_fill(request.addr, request.pf_class)

    summary = (prefetcher.summary() if prefetcher is not None
               else PrefetcherSummary(name="none", storage_bits=0))
    return FrontendResult(
        trace_name=trace.name,
        prefetcher=summary,
        instructions=instructions - roi_instructions,
        cycles=cycle - roi_start_cycle,
        l1i=stats,
        itlb_accesses=itlb.stats.accesses,
        itlb_misses=itlb.stats.dtlb_misses,
        demand_walks=itlb.stats.stlb_misses,
        prefetch_walks=itlb.prefetch_walks,
    )

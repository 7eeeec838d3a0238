"""Set-associative cache with MSHRs, a bounded prefetch queue and
prefetcher hooks.

The timing model is "lazy event" rather than event-queue driven: every
access returns the cycle at which its data is available, and fills are
installed eagerly with a ``fill_cycle`` timestamp.  A later demand that
hits a block whose fill is still in flight pays the residual latency
(a *late* prefetch).  This captures hit/miss behaviour, MSHR merging
and occupancy stalls, prefetch-queue drops, and prefetch timeliness —
the mechanisms the paper's evaluation leans on — without a full
discrete-event core.

Accounting distinguishes:

* ``demand_misses``   — misses for timing/MPKI purposes (includes
  demands that merged into an in-flight prefetch);
* ``uncovered_misses`` — misses that no prefetch helped at all, which is
  the denominator partner for prefetch *coverage*;
* ``pf_useful`` / ``pf_late`` — demand hits on prefetched blocks
  (late when the block was still in flight).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

from repro.errors import SimulationError
from repro.memsys.replacement import DrripPolicy, make_replacement_policy
from repro.params import CacheParams, LINE_BITS
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)


class AccessKind(IntEnum):
    """Kinds of traffic a cache level services."""

    LOAD = 0
    STORE = 1
    PREFETCH = 2
    WRITEBACK = 3


@dataclass
class CacheStats:
    """Per-level counters, resettable at the end of warm-up."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    load_accesses: int = 0
    load_misses: int = 0
    uncovered_misses: int = 0
    mshr_merges: int = 0
    mshr_full_stalls: int = 0
    pf_requested: int = 0
    pf_issued: int = 0
    pf_filled: int = 0
    pf_useful: int = 0
    pf_late: int = 0
    pf_dropped_pq: int = 0
    pf_dropped_mshr: int = 0
    pf_dropped_in_cache: int = 0
    pf_dropped_in_flight: int = 0
    pf_unused_evicted: int = 0
    writebacks: int = 0
    pf_issued_by_class: dict[int, int] = field(default_factory=dict)
    pf_useful_by_class: dict[int, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of would-be demand misses covered by prefetching."""
        denom = self.pf_useful + self.uncovered_misses
        return self.pf_useful / denom if denom else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of filled prefetches that saw a demand hit."""
        return self.pf_useful / self.pf_filled if self.pf_filled else 0.0

    @property
    def miss_ratio(self) -> float:
        """Demand miss ratio at this level."""
        if not self.demand_accesses:
            return 0.0
        return self.demand_misses / self.demand_accesses


class InstructionCounter:
    """Retired-instruction count the caches sample MPKI against.

    One per core: the CPU model writes it, every cache of that core's
    hierarchy reads it.  It holds no reference back to the hierarchy,
    so a finished hierarchy is freed without the cyclic collector.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


#: ``AccessType`` the prefetcher observes, indexed by ``AccessKind``.
_ACCESS_TYPE = (AccessType.LOAD, AccessType.STORE, AccessType.PREFETCH)
_LOAD = AccessKind.LOAD
_PREFETCH = AccessKind.PREFETCH
_WRITEBACK = AccessKind.WRITEBACK


class Cache:
    """One level of the cache hierarchy.

    ``next_level`` is another :class:`Cache` or a
    :class:`repro.memsys.hierarchy.DramPort`.  ``translate`` converts the
    prefetcher's (virtual) addresses into the physical space used for
    tags — supplied only at the L1, identity elsewhere.

    Block state is flat: each per-way field is one list of
    ``sets * ways`` slots (slot ``set * ways + way``), and ``_map`` is
    one dict from line address to slot.  ``_line[slot]`` is -1 until
    the slot is first filled; a filled slot only ever changes owner by
    eviction.  Replacement policies see ``(set_idx, way)``.
    """

    MPKI_WINDOW = 1024  # instructions per MPKI sample (paper uses 10-bit counters)

    def __init__(
        self,
        params: CacheParams,
        next_level,
        prefetcher: Prefetcher | None = None,
        translate=None,
    ) -> None:
        self.params = params
        self.next_level = next_level
        self.prefetcher = prefetcher
        self.translate = translate
        self.stats = CacheStats()

        sets = params.sets
        self._set_mask = sets - 1
        self._ways = ways = params.ways
        self._latency = params.latency
        self.policy = make_replacement_policy(params.replacement, sets, ways)
        self._drrip = isinstance(self.policy, DrripPolicy)

        size = sets * ways
        self._map: dict[int, int] = {}
        self._line = [-1] * size
        self._dirty = [False] * size
        self._pf = [False] * size
        self._pf_class = [0] * size
        self._fill_cycle = [0] * size

        # MSHR: line -> [ready_cycle, was_prefetch, pf_class]
        self._mshr: dict[int, list] = {}
        # PQ entries are occupied from enqueue until the cache pipeline
        # issues them (one per cycle), NOT for the full memory latency —
        # the deque holds each entry's issue (pop) cycle.
        self._pq: deque[int] = deque()
        self._pq_last_issue = 0

        # Running MPKI sampled every MPKI_WINDOW instructions.  A cache
        # outside a hierarchy keeps a private counter that stays at 0,
        # so it never samples.
        self.instruction_counter = InstructionCounter()
        self._mpki = 0.0
        self._mpki_mark_instr = 0
        self._mpki_mark_misses = 0

    def probe(self, addr: int) -> bool:
        """Return True if the line holding ``addr`` is present (no side effects)."""
        return (addr >> LINE_BITS) in self._map

    @property
    def mpki(self) -> float:
        """Demand-miss MPKI over the most recent sampling window."""
        return self._mpki

    def _update_mpki(self) -> None:
        instructions = self.instruction_counter.value
        elapsed = instructions - self._mpki_mark_instr
        if elapsed >= self.MPKI_WINDOW:
            window_misses = self.stats.demand_misses - self._mpki_mark_misses
            self._mpki = window_misses * 1000.0 / elapsed
            self._mpki_mark_instr = instructions
            self._mpki_mark_misses = self.stats.demand_misses

    # ------------------------------------------------------------------ #
    # Main access path
    # ------------------------------------------------------------------ #

    def access(
        self,
        addr: int,
        cycle: int,
        kind: AccessKind,
        ip: int = 0,
        vaddr: int | None = None,
        metadata: int = 0,
        pf_class: int = 0,
    ) -> int | None:
        """Service an access; return the data-ready cycle.

        Returns None only for PREFETCH accesses that were dropped
        (MSHR/PQ exhaustion downstream).
        """
        if kind == _WRITEBACK:
            self._handle_writeback(addr, cycle)
            return cycle

        line = addr >> LINE_BITS
        slot = self._map.get(line)
        if kind == _PREFETCH:
            ready = self._prefetch_arrival(
                addr, cycle, ip, metadata, pf_class, slot, line
            )
            if ready is None:
                return None
        else:
            ready = self._demand_access(addr, cycle, kind, ip, slot, line)

        if self.prefetcher is not None:
            self._run_prefetcher(addr, cycle, kind, ip, vaddr, metadata,
                                 slot is not None)
        return ready

    def _demand_access(
        self,
        addr: int,
        cycle: int,
        kind: AccessKind,
        ip: int,
        slot: int | None,
        line: int,
    ) -> int:
        stats = self.stats
        stats.demand_accesses += 1
        is_load = kind == _LOAD
        if is_load:
            stats.load_accesses += 1

        if slot is not None:
            stats.demand_hits += 1
            set_idx, way = divmod(slot, self._ways)
            self.policy.on_hit(set_idx, way, False, ip)
            ready = cycle + self._latency
            was_prefetch = self._pf[slot]
            if was_prefetch:
                self._credit_useful(slot, addr)
            fill = self._fill_cycle[slot]
            if fill > ready:
                # The block is still in flight: pay the residual latency
                # (a *late* prefetch when a prefetch brought it).
                if was_prefetch:
                    stats.pf_late += 1
                ready = fill
            if not is_load:
                self._dirty[slot] = True
            self._update_mpki()
            return ready

        # Miss.
        stats.demand_misses += 1
        if is_load:
            stats.load_misses += 1
        if self._drrip:
            self.policy.record_miss(line & self._set_mask)

        entry = self._mshr.get(line)
        if entry is not None:
            stats.mshr_merges += 1
            if entry[1]:  # merging into an in-flight prefetch: late but covered
                self._credit_mshr_prefetch(entry, addr)
                stats.pf_late += 1
            self._update_mpki()
            return max(entry[0], cycle + self._latency)

        stats.uncovered_misses += 1
        effective_cycle = self._reserve_mshr_demand(cycle)
        down = self.next_level.access(
            addr, effective_cycle + self._latency, kind, ip=ip)
        if down is None:
            raise SimulationError("demand access dropped by lower level")
        ready = down
        self._install(addr, line, ready, ip, False, 0, not is_load)
        self._mshr[line] = [ready, False, 0]
        self._update_mpki()
        return ready

    def _prefetch_arrival(
        self,
        addr: int,
        cycle: int,
        ip: int,
        metadata: int,
        pf_class: int,
        slot: int | None,
        line: int,
    ) -> int | None:
        """A prefetch issued by the level above lands here: fill on miss."""
        if slot is not None:
            set_idx, way = divmod(slot, self._ways)
            self.policy.on_hit(set_idx, way, True, ip)
            return cycle + self._latency
        entry = self._mshr.get(line)
        if entry is not None:
            return max(entry[0], cycle + self._latency)
        if not self._mshr_has_room(cycle):
            self.stats.pf_dropped_mshr += 1
            return None
        down = self.next_level.access(
            addr, cycle + self._latency, _PREFETCH,
            ip=ip, metadata=metadata, pf_class=pf_class)
        if down is None:
            return None
        self._install(addr, line, down, ip, True, pf_class, False)
        self.stats.pf_filled += 1
        self._mshr[line] = [down, True, pf_class]
        return down

    # ------------------------------------------------------------------ #
    # Prefetch issue path (requests from *this* level's prefetcher)
    # ------------------------------------------------------------------ #

    def _run_prefetcher(
        self,
        addr: int,
        cycle: int,
        kind: AccessKind,
        ip: int,
        vaddr: int | None,
        metadata: int,
        hit: bool,
    ) -> None:
        ctx = AccessContext(ip, addr if vaddr is None else vaddr, hit,
                            _ACCESS_TYPE[kind], cycle, metadata, self._mpki)
        for request in self.prefetcher.on_access(ctx):
            self.issue_prefetch(request, cycle, ip)

    def issue_prefetch(self, request: PrefetchRequest, cycle: int, ip: int = 0) -> bool:
        """Issue one prefetch request; returns True if it was sent out."""
        stats = self.stats
        stats.pf_requested += 1
        addr = request.addr
        if self.translate is not None:
            addr = self.translate(addr)
        line = addr >> LINE_BITS

        if request.fill_this_level and line in self._map:
            stats.pf_dropped_in_cache += 1
            return False
        if line in self._mshr:
            stats.pf_dropped_in_flight += 1
            return False

        while self._pq and self._pq[0] <= cycle:
            self._pq.popleft()
        if len(self._pq) >= self.params.pq_entries:
            stats.pf_dropped_pq += 1
            return False
        if request.fill_this_level and not self._mshr_has_room(cycle):
            stats.pf_dropped_mshr += 1
            return False
        self._pq_last_issue = max(cycle, self._pq_last_issue + 1)

        down = self.next_level.access(
            addr, cycle + self._latency, _PREFETCH,
            ip=ip, metadata=request.metadata, pf_class=request.pf_class)
        if down is None:
            stats.pf_dropped_mshr += 1
            return False

        stats.pf_issued += 1
        cls = request.pf_class
        stats.pf_issued_by_class[cls] = stats.pf_issued_by_class.get(cls, 0) + 1
        self._pq.append(self._pq_last_issue)
        if request.fill_this_level:
            self._install(addr, line, down, ip, True, cls, False)
            stats.pf_filled += 1
            self._mshr[line] = [down, True, cls]
            if self.prefetcher is not None:
                self.prefetcher.on_prefetch_fill(addr, cls)
        return True

    # ------------------------------------------------------------------ #
    # Fills, evictions, writebacks, MSHR bookkeeping
    # ------------------------------------------------------------------ #

    def _install(
        self,
        addr: int,
        line: int,
        ready: int,
        ip: int,
        is_prefetch: bool,
        pf_class: int,
        dirty: bool,
    ) -> None:
        set_idx = line & self._set_mask
        ways = self._ways
        base = set_idx * ways
        lines = self._line
        seg = lines[base:base + ways]
        evicted_addr = None
        if -1 in seg:
            way = seg.index(-1)
        else:
            way = self.policy.victim(set_idx)
            evicted_addr = self._evict(base + way, set_idx, way, ip)
        slot = base + way
        self._map[line] = slot
        lines[slot] = line
        self._dirty[slot] = dirty
        self._pf[slot] = is_prefetch
        self._pf_class[slot] = pf_class
        self._fill_cycle[slot] = ready
        self.policy.on_fill(set_idx, way, is_prefetch, ip)
        if self.prefetcher is not None:
            self.prefetcher.on_fill(addr, is_prefetch, 0, evicted_addr)

    def _evict(self, slot: int, set_idx: int, way: int, ip: int) -> int:
        line = self._line[slot]
        del self._map[line]
        victim_addr = line << LINE_BITS
        was_prefetch = self._pf[slot]
        if was_prefetch:
            self.stats.pf_unused_evicted += 1
        self.policy.on_evict(set_idx, way, not was_prefetch, ip)
        if self._dirty[slot]:
            self.stats.writebacks += 1
            self.next_level.access(victim_addr, self._fill_cycle[slot],
                                   _WRITEBACK)
        return victim_addr

    def _handle_writeback(self, addr: int, cycle: int) -> None:
        line = addr >> LINE_BITS
        slot = self._map.get(line)
        if slot is not None:
            self._dirty[slot] = True
            return
        # Write-allocate the full line; no fetch from below is needed.
        self._install(addr, line, cycle, 0, False, 0, True)

    def _mshr_has_room(self, cycle: int) -> bool:
        if len(self._mshr) < self.params.mshr_entries:
            return True
        self._purge_mshr(cycle)
        return len(self._mshr) < self.params.mshr_entries

    def _purge_mshr(self, cycle: int) -> None:
        done = [line for line, entry in self._mshr.items() if entry[0] <= cycle]
        for line in done:
            del self._mshr[line]

    def _reserve_mshr_demand(self, cycle: int) -> int:
        """Demands stall (advance time) rather than drop when MSHRs are full."""
        if self._mshr_has_room(cycle):
            return cycle
        earliest = min(entry[0] for entry in self._mshr.values())
        self.stats.mshr_full_stalls += 1
        self._purge_mshr(earliest)
        return earliest

    def _credit_useful(self, slot: int, addr: int) -> None:
        stats = self.stats
        stats.pf_useful += 1
        cls = self._pf_class[slot]
        stats.pf_useful_by_class[cls] = stats.pf_useful_by_class.get(cls, 0) + 1
        self._pf[slot] = False
        if self.prefetcher is not None:
            self.prefetcher.on_prefetch_hit(addr, cls)

    def _credit_mshr_prefetch(self, entry: list, addr: int) -> None:
        stats = self.stats
        stats.pf_useful += 1
        cls = entry[2]
        stats.pf_useful_by_class[cls] = stats.pf_useful_by_class.get(cls, 0) + 1
        entry[1] = False
        # Clear the prefetch mark on the already-installed block, if present.
        slot = self._map.get(addr >> LINE_BITS)
        if slot is not None:
            self._pf[slot] = False
        if self.prefetcher is not None:
            self.prefetcher.on_prefetch_hit(addr, cls)

    def reset_stats(self) -> None:
        """Zero the counters (cache contents and training state persist)."""
        self.stats = CacheStats()
        self._mpki_mark_misses = 0
        self._mpki_mark_instr = self.instruction_counter.value

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
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.memsys.replacement import (
    DrripPolicy,
    LruPolicy,
    make_replacement_policy,
)
from repro.params import CacheParams, LINE_BITS
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)


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

    One per core: the CPU model writes it, every private cache of that
    core's hierarchy reads it.  It holds no reference back to the
    hierarchy, so a finished hierarchy is freed without the cyclic
    collector.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class CoreSumCounter:
    """Retired instructions of every core sharing one cache level.

    A shared LLC samples MPKI against this.  ``value`` sums the cores'
    own counters each time the LLC reads it, so the cores' run loops
    write only their own counter.
    """

    __slots__ = ("counters",)

    def __init__(self, counters: list[InstructionCounter]) -> None:
        self.counters = counters

    @property
    def value(self) -> int:
        """Retired instructions summed over the sharing cores."""
        total = 0
        for counter in self.counters:
            total += counter.value
        return total


_MPKI_WINDOW = 1024  # instructions per MPKI sample (paper uses 10-bit counters)
_LOAD_TYPE = AccessType.LOAD
_STORE_TYPE = AccessType.STORE
_PREFETCH_TYPE = AccessType.PREFETCH
# ``_new_context(AccessContext, fields)`` builds the named tuple without
# its Python-level ``__new__`` (one frame less per prefetcher call).
_new_context = tuple.__new__


class Cache:
    """One level of the cache hierarchy.

    Traffic enters a level through one method per kind, and each call
    services the whole level in one Python frame, plus one ``_install``
    call when it fills a line: :meth:`demand` (loads and stores),
    :meth:`prefetch_arrival` (a prefetch issued by the level above lands
    here) and :meth:`writeback` (a dirty line evicted above).
    ``next_level`` is another :class:`Cache` or a
    :class:`repro.memsys.hierarchy.DramPort`, reached through the same
    three methods.  ``translate`` converts the prefetcher's (virtual)
    addresses into the physical space used for tags — supplied only at
    the L1, identity elsewhere.

    Block state is flat: each per-way field is one list of
    ``sets * ways`` slots (slot ``set * ways + way``), and ``_map`` is
    one dict from line address to slot.  ``_line[slot]`` is -1 until
    the slot is first filled; a filled slot only ever changes owner by
    eviction, so once ``_filled`` reaches ``sets * ways`` no fill scans
    for an empty way.  An LRU level updates its :class:`LruPolicy`'s
    clock and stamps inline; other policies see ``(set_idx, way)``
    through their hooks.  Each MSHR entry is also on a heap of
    ``(ready_cycle, line)``, so expiry pops the earliest entries
    instead of scanning them all.
    """

    MPKI_WINDOW = _MPKI_WINDOW

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
        self._lru = self.policy if type(self.policy) is LruPolicy else None
        self._drrip = isinstance(self.policy, DrripPolicy)

        self._size = size = sets * ways
        self._filled = 0
        self._map: dict[int, int] = {}
        self._line = [-1] * size
        self._dirty = [False] * size
        self._pf = [False] * size
        self._pf_class = [0] * size
        self._fill_cycle = [0] * size

        # MSHR: line -> [ready_cycle, was_prefetch, pf_class], and the
        # same entries as (ready_cycle, line) on a min-heap.  A line is
        # never re-added while present and a ready cycle never changes,
        # so the two always hold the same lines.
        self._mshr: dict[int, list] = {}
        self._mshr_heap: list[tuple[int, int]] = []
        self._mshr_entries = params.mshr_entries
        # PQ entries are occupied from enqueue until the cache pipeline
        # issues them (one per cycle), NOT for the full memory latency —
        # the deque holds each entry's issue (pop) cycle.
        self._pq: deque[int] = deque()
        self._pq_last_issue = 0

        # Running MPKI sampled every MPKI_WINDOW instructions.  A cache
        # outside a hierarchy keeps a private counter that stays at 0,
        # so it never samples.
        self.instruction_counter = InstructionCounter()
        self._cores: list[InstructionCounter] = []
        self._mpki = 0.0
        self._mpki_mark_instr = 0
        self._mpki_mark_misses = 0

    def attach_core(self, counter: InstructionCounter) -> None:
        """Sample MPKI against ``counter``'s core as well.

        A private level has one core.  A level shared by several cores
        (a mix's LLC) samples against their summed retired instructions.
        """
        self._cores.append(counter)
        if len(self._cores) == 1:
            self.instruction_counter = counter
        else:
            self.instruction_counter = CoreSumCounter(self._cores)

    def probe(self, addr: int) -> bool:
        """Return True if the line holding ``addr`` is present (no side effects)."""
        return (addr >> LINE_BITS) in self._map

    @property
    def mpki(self) -> float:
        """Demand-miss MPKI over the most recent sampling window."""
        return self._mpki

    # ------------------------------------------------------------------ #
    # Entry points, one per kind of traffic
    # ------------------------------------------------------------------ #

    def demand(
        self,
        addr: int,
        cycle: int,
        is_load: bool,
        ip: int,
        vaddr: int | None = None,
    ) -> int:
        """Service a demand load or store; return the data-ready cycle.

        A miss that allocates waits for a free MSHR, then the level
        below services it (its prefetcher included) before this level
        installs the line.  This level then samples its MPKI and runs
        its prefetcher, which trains on ``vaddr`` when given.
        """
        line = addr >> LINE_BITS
        slot = self._map.get(line)
        stats = self.stats
        stats.demand_accesses += 1
        if is_load:
            stats.load_accesses += 1

        if slot is not None:
            stats.demand_hits += 1
            lru = self._lru
            if lru is not None:
                clock = lru.clock + 1
                lru.clock = clock
                lru.stamp[slot] = clock
            else:
                set_idx, way = divmod(slot, self._ways)
                self.policy.on_hit(set_idx, way, False, ip)
            ready = cycle + self._latency
            was_prefetch = self._pf[slot]
            if was_prefetch:
                stats.pf_useful += 1
                cls = self._pf_class[slot]
                by_class = stats.pf_useful_by_class
                by_class[cls] = by_class.get(cls, 0) + 1
                self._pf[slot] = False
                if self.prefetcher is not None:
                    self.prefetcher.on_prefetch_hit(addr, cls)
            fill = self._fill_cycle[slot]
            if fill > ready:
                # The block is still in flight: pay the residual latency
                # (a *late* prefetch when a prefetch brought it).
                if was_prefetch:
                    stats.pf_late += 1
                ready = fill
            if not is_load:
                self._dirty[slot] = True
        else:
            stats.demand_misses += 1
            if is_load:
                stats.load_misses += 1
            if self._drrip:
                self.policy.record_miss(line & self._set_mask)
            mshr = self._mshr
            entry = mshr.get(line)
            if entry is not None:
                stats.mshr_merges += 1
                if entry[1]:
                    # Merging into an in-flight prefetch: late but covered.
                    stats.pf_useful += 1
                    cls = entry[2]
                    by_class = stats.pf_useful_by_class
                    by_class[cls] = by_class.get(cls, 0) + 1
                    entry[1] = False
                    if self.prefetcher is not None:
                        self.prefetcher.on_prefetch_hit(addr, cls)
                    stats.pf_late += 1
                ready = max(entry[0], cycle + self._latency)
            else:
                stats.uncovered_misses += 1
                start = cycle
                if len(mshr) >= self._mshr_entries \
                        and not self._expire_mshr(cycle):
                    # Demands stall (advance time) rather than drop.
                    start = self._mshr_heap[0][0]
                    stats.mshr_full_stalls += 1
                    self._expire_mshr(start)
                ready = self.next_level.demand(
                    addr, start + self._latency, is_load, ip)
                if ready is None:
                    raise SimulationError("demand access dropped by lower level")
                self._install(addr, line, ready, ip, False, 0, not is_load)
                mshr[line] = [ready, False, 0]
                heappush(self._mshr_heap, (ready, line))

        instructions = self.instruction_counter.value
        elapsed = instructions - self._mpki_mark_instr
        if elapsed >= _MPKI_WINDOW:
            misses = stats.demand_misses
            self._mpki = (misses - self._mpki_mark_misses) * 1000.0 / elapsed
            self._mpki_mark_instr = instructions
            self._mpki_mark_misses = misses

        prefetcher = self.prefetcher
        if prefetcher is not None:
            ctx = _new_context(AccessContext, (
                ip, addr if vaddr is None else vaddr, slot is not None,
                _LOAD_TYPE if is_load else _STORE_TYPE, cycle, 0, self._mpki))
            for request in prefetcher.on_access(ctx):
                self.issue_prefetch(request, cycle, ip)
        return ready

    def prefetch_arrival(
        self,
        addr: int,
        cycle: int,
        ip: int,
        metadata: int,
        pf_class: int,
    ) -> int | None:
        """A prefetch issued by the level above lands here: fill on miss.

        Returns the data-ready cycle, or None when the prefetch is
        dropped (no free MSHR here, or dropped below); this level's
        prefetcher sees only prefetches that were not dropped, with
        their ``metadata``.
        """
        line = addr >> LINE_BITS
        slot = self._map.get(line)
        if slot is not None:
            lru = self._lru
            if lru is not None:
                clock = lru.clock + 1
                lru.clock = clock
                lru.stamp[slot] = clock
            else:
                set_idx, way = divmod(slot, self._ways)
                self.policy.on_hit(set_idx, way, True, ip)
            ready = cycle + self._latency
        else:
            mshr = self._mshr
            entry = mshr.get(line)
            if entry is not None:
                ready = max(entry[0], cycle + self._latency)
            else:
                if len(mshr) >= self._mshr_entries \
                        and not self._expire_mshr(cycle):
                    self.stats.pf_dropped_mshr += 1
                    return None
                ready = self.next_level.prefetch_arrival(
                    addr, cycle + self._latency, ip, metadata, pf_class)
                if ready is None:
                    return None
                self._install(addr, line, ready, ip, True, pf_class, False)
                self.stats.pf_filled += 1
                mshr[line] = [ready, True, pf_class]
                heappush(self._mshr_heap, (ready, line))

        prefetcher = self.prefetcher
        if prefetcher is not None:
            ctx = _new_context(AccessContext, (
                ip, addr, slot is not None, _PREFETCH_TYPE, cycle, metadata,
                self._mpki))
            for request in prefetcher.on_access(ctx):
                self.issue_prefetch(request, cycle, ip)
        return ready

    def writeback(self, addr: int, cycle: int) -> None:
        """Absorb a dirty line evicted from the level above.

        A present line turns dirty; an absent one is write-allocated
        (the whole line arrives, so nothing is fetched from below).
        """
        line = addr >> LINE_BITS
        slot = self._map.get(line)
        if slot is not None:
            self._dirty[slot] = True
        else:
            self._install(addr, line, cycle, 0, False, 0, True)

    # ------------------------------------------------------------------ #
    # Prefetch issue path (requests from *this* level's prefetcher)
    # ------------------------------------------------------------------ #

    def issue_prefetch(self, request: PrefetchRequest, cycle: int, ip: int = 0) -> bool:
        """Issue one prefetch request; returns True if it was sent out."""
        stats = self.stats
        stats.pf_requested += 1
        addr = request.addr
        if self.translate is not None:
            addr = self.translate(addr)
        line = addr >> LINE_BITS

        fill = request.fill_this_level
        if fill and line in self._map:
            stats.pf_dropped_in_cache += 1
            return False
        mshr = self._mshr
        if line in mshr:
            stats.pf_dropped_in_flight += 1
            return False

        pq = self._pq
        while pq and pq[0] <= cycle:
            pq.popleft()
        if len(pq) >= self.params.pq_entries:
            stats.pf_dropped_pq += 1
            return False
        if fill and len(mshr) >= self._mshr_entries \
                and not self._expire_mshr(cycle):
            stats.pf_dropped_mshr += 1
            return False
        self._pq_last_issue = max(cycle, self._pq_last_issue + 1)

        cls = request.pf_class
        down = self.next_level.prefetch_arrival(
            addr, cycle + self._latency, ip, request.metadata, cls)
        if down is None:
            stats.pf_dropped_mshr += 1
            return False

        stats.pf_issued += 1
        stats.pf_issued_by_class[cls] = stats.pf_issued_by_class.get(cls, 0) + 1
        pq.append(self._pq_last_issue)
        if fill:
            self._install(addr, line, down, ip, True, cls, False)
            stats.pf_filled += 1
            mshr[line] = [down, True, cls]
            heappush(self._mshr_heap, (down, line))
            if self.prefetcher is not None:
                self.prefetcher.on_prefetch_fill(addr, cls)
        return True

    # ------------------------------------------------------------------ #
    # Fills, evictions, MSHR expiry
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
        lru = self._lru
        way = -1
        if self._filled < self._size:
            seg = lines[base:base + ways]
            if -1 in seg:
                way = seg.index(-1)
                self._filled += 1
        evicted_addr = None
        if way < 0:
            if lru is not None:
                seg = lru.stamp[base:base + ways]
                way = seg.index(min(seg))
            else:
                way = self.policy.victim(set_idx)
            slot = base + way
            victim = lines[slot]
            del self._map[victim]
            evicted_addr = victim << LINE_BITS
            was_prefetch = self._pf[slot]
            if was_prefetch:
                self.stats.pf_unused_evicted += 1
            if lru is None:
                self.policy.on_evict(set_idx, way, not was_prefetch, ip)
            if self._dirty[slot]:
                self.stats.writebacks += 1
                self.next_level.writeback(evicted_addr, self._fill_cycle[slot])
        slot = base + way
        self._map[line] = slot
        lines[slot] = line
        self._dirty[slot] = dirty
        self._pf[slot] = is_prefetch
        self._pf_class[slot] = pf_class
        self._fill_cycle[slot] = ready
        if lru is not None:
            clock = lru.clock + 1
            lru.clock = clock
            lru.stamp[slot] = clock
        else:
            self.policy.on_fill(set_idx, way, is_prefetch, ip)
        if self.prefetcher is not None:
            self.prefetcher.on_fill(addr, is_prefetch, 0, evicted_addr)

    def _expire_mshr(self, cycle: int) -> bool:
        """Retire the MSHR entries ready by ``cycle``; True if one is free."""
        heap = self._mshr_heap
        mshr = self._mshr
        while heap and heap[0][0] <= cycle:
            del mshr[heappop(heap)[1]]
        return len(mshr) < self._mshr_entries

    def reset_stats(self) -> None:
        """Zero the counters (cache contents and training state persist)."""
        self.stats = CacheStats()
        self._mpki_mark_misses = 0
        self._mpki_mark_instr = self.instruction_counter.value

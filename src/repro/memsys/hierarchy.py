"""Wiring of the full memory hierarchy: L1-D -> L2 -> LLC -> DRAM.

A :class:`Hierarchy` owns one core's private L1-D and L2 plus
(possibly shared) LLC and DRAM, the per-core virtual memory map, and the
:class:`~repro.memsys.cache.InstructionCounter` its caches sample MPKI
against (the CPU model writes it; it points back at nothing, so a
dropped hierarchy is freed at once).  The CPU model calls
:meth:`Hierarchy.load` / :meth:`Hierarchy.store` with *virtual*
addresses; translation happens here so L1 prefetchers train on virtual
addresses while the physical hierarchy below sees scrambled frames —
exactly the paper's setup.
"""

from __future__ import annotations

from repro.memsys.cache import Cache, InstructionCounter
from repro.memsys.dram import Dram
from repro.memsys.tlb import TlbHierarchy
from repro.memsys.vmem import VirtualMemory
from repro.params import PAGE_BITS, PAGE_SIZE, SystemParams
from repro.prefetchers.base import Prefetcher

_PAGE_OFFSET = PAGE_SIZE - 1


class DramPort:
    """Gives :class:`~repro.memsys.dram.Dram` the three cache entry points."""

    def __init__(self, dram: Dram) -> None:
        self.dram = dram

    def demand(self, addr: int, cycle: int, is_load: bool, ip: int,
               vaddr: int | None = None) -> int:
        """Read the line for a demand miss; return the data-ready cycle."""
        return self.dram.read(addr, cycle)

    def prefetch_arrival(self, addr: int, cycle: int, ip: int,
                         metadata: int, pf_class: int) -> int:
        """Read the line for a prefetch; DRAM never drops one."""
        return self.dram.read(addr, cycle)

    def writeback(self, addr: int, cycle: int) -> None:
        """Write a dirty line evicted from the LLC."""
        self.dram.write(addr, cycle)


class Hierarchy:
    """One core's view of the memory system."""

    def __init__(
        self,
        l1d: Cache,
        l2: Cache,
        llc: Cache,
        dram: Dram,
        vmem: VirtualMemory,
        tlb: TlbHierarchy | None = None,
    ) -> None:
        self.l1d = l1d
        self.l2 = l2
        self.llc = llc
        self.dram = dram
        self.vmem = vmem
        self.tlb = tlb
        self._frames = vmem.page_table
        self.instruction_counter = counter = InstructionCounter()
        for cache in (l1d, l2, llc):
            cache.attach_core(counter)

    @property
    def instructions(self) -> int:
        """Retired instructions so far (what the caches sample MPKI on)."""
        return self.instruction_counter.value

    def tick_instruction(self, count: int = 1) -> None:
        """Advance the retired-instruction counter (drives MPKI sampling)."""
        self.instruction_counter.value += count

    def load(self, vaddr: int, ip: int, cycle: int) -> int:
        """Demand load; returns the data-ready cycle."""
        vpage = vaddr >> PAGE_BITS
        if self.tlb is not None:
            cycle += self.tlb.access(vpage)
        frame = self._frames.get(vpage)
        if frame is None:
            frame = self.vmem.allocate(vpage)
        return self.l1d.demand((frame << PAGE_BITS) | (vaddr & _PAGE_OFFSET),
                               cycle, True, ip, vaddr)

    def store(self, vaddr: int, ip: int, cycle: int) -> int:
        """Demand store (write-allocate); returns the completion cycle."""
        vpage = vaddr >> PAGE_BITS
        if self.tlb is not None:
            cycle += self.tlb.access(vpage)
        frame = self._frames.get(vpage)
        if frame is None:
            frame = self.vmem.allocate(vpage)
        return self.l1d.demand((frame << PAGE_BITS) | (vaddr & _PAGE_OFFSET),
                               cycle, False, ip, vaddr)

    @property
    def caches(self) -> tuple[Cache, Cache, Cache]:
        """(L1D, L2, LLC) for iteration in reports."""
        return (self.l1d, self.l2, self.llc)

    def reset_stats(self) -> None:
        """Zero every level's counters and the DRAM traffic counters."""
        for cache in self.caches:
            cache.reset_stats()
        self.dram.reset_stats()
        if self.tlb is not None:
            self.tlb.reset_stats()


def build_hierarchy(
    params: SystemParams | None = None,
    l1_prefetcher: Prefetcher | None = None,
    l2_prefetcher: Prefetcher | None = None,
    llc_prefetcher: Prefetcher | None = None,
    shared_llc: Cache | None = None,
    shared_dram: Dram | None = None,
    vmem_seed: int = 1,
    asid: int = 0,
) -> Hierarchy:
    """Build a hierarchy from Table II parameters.

    ``shared_llc``/``shared_dram`` let multicore setups hang several
    private L1/L2 pairs off one LLC and DRAM.  Each call attaches its
    new core's instruction counter to all three caches, so a shared LLC
    samples MPKI against the retired instructions of every core built
    on it.
    """
    params = params or SystemParams()
    vmem = VirtualMemory(seed=vmem_seed, asid=asid)
    dram = shared_dram or Dram(params.dram)
    if shared_llc is not None:
        llc = shared_llc
    else:
        llc = Cache(params.llc, DramPort(dram), prefetcher=llc_prefetcher)
    l2 = Cache(params.l2, llc, prefetcher=l2_prefetcher)
    # The L1 prefetcher emits virtual addresses; translate them on issue.
    l1d = Cache(params.l1d, l2, prefetcher=l1_prefetcher, translate=vmem.translate)
    tlb = TlbHierarchy() if params.model_tlb else None
    return Hierarchy(l1d, l2, llc, dram, vmem, tlb=tlb)

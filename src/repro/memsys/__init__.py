"""Memory-system substrate: caches, MSHRs, prefetch queues, DRAM, VM.

This subpackage implements the ChampSim-like memory hierarchy the paper
evaluates on: set-associative caches with miss-status-holding registers
(MSHRs) and bounded prefetch queues, a channel-bandwidth DRAM model, a
virtual-memory page mapper and a configurable replacement policy per
level.
"""

from repro.memsys.cache import Cache, CacheStats
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import Hierarchy, build_hierarchy
from repro.memsys.replacement import make_replacement_policy
from repro.memsys.vmem import VirtualMemory

__all__ = [
    "Cache",
    "CacheStats",
    "Dram",
    "Hierarchy",
    "VirtualMemory",
    "build_hierarchy",
    "make_replacement_policy",
]

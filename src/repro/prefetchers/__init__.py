"""Prefetcher implementations: IPCP's competitors and building blocks.

Every prefetcher implements the :class:`repro.prefetchers.base.Prefetcher`
interface and can be attached to any cache level of the hierarchy.  The
table in :mod:`repro.prefetchers.registry` maps every name used by the
paper's evaluation (``next_line``, ``ip_stride``, ``bop``, ``spp_l1``,
``bingo`` ...) to per-level factories: the multi-level combinations of
Table III, the L1-only rivals of Fig. 7 and the IPCP variants the
claim harness measures.
"""

from repro.prefetchers.base import (
    AccessContext,
    NullPrefetcher,
    Prefetcher,
    PrefetchRequest,
)
from repro.prefetchers.registry import (
    available_prefetchers,
    build_levels,
    make_prefetcher,
    storage_kb,
)

__all__ = [
    "AccessContext",
    "NullPrefetcher",
    "PrefetchRequest",
    "Prefetcher",
    "available_prefetchers",
    "build_levels",
    "make_prefetcher",
    "storage_kb",
]

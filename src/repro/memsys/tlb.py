"""TLB hierarchy (Table II: 64-entry DTLB, 1536-entry shared L2 TLB).

Address translation sits on the load path: a DTLB hit is free (its
latency hides under the L1 lookup), a DTLB miss that hits the STLB adds
a small penalty, and an STLB miss pays a page-walk penalty.  Both
levels are modeled as LRU-managed full lookup structures over virtual
page numbers — associativity conflicts are second-order at the trace
lengths we simulate.

The data TLBs matter for workloads with big page footprints (the
CloudSuite-like traces, cactusBSSN's one-column-per-page stencils): a
prefetcher cannot hide page-walk latency, which keeps those baselines
honest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TlbParams:
    """Table II TLB configuration and miss penalties (core cycles)."""

    dtlb_entries: int = 64
    stlb_entries: int = 1536
    stlb_penalty: int = 9
    walk_penalty: int = 60

    def __post_init__(self) -> None:
        if self.dtlb_entries < 1 or self.stlb_entries < 1:
            raise ConfigurationError("TLB levels need at least one entry")
        if self.stlb_penalty < 0 or self.walk_penalty < 0:
            raise ConfigurationError("TLB penalties must be non-negative")


@dataclass
class TlbStats:
    """Translation counters, resettable at the end of warm-up."""

    accesses: int = 0
    dtlb_misses: int = 0
    stlb_misses: int = 0


class LruSet:
    """Fully-associative LRU set of at most ``entries`` keys, MRU last
    (a TLB level's pages, the frontend L2's fetch blocks)."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.pages: OrderedDict[int, None] = OrderedDict()

    def touch(self, key: int) -> bool:
        """Look ``key`` up and make it MRU; True if it was present.

        A miss inserts it, evicting the LRU key when the set is full.
        """
        pages = self.pages
        if key in pages:
            pages.move_to_end(key)
            return True
        if len(pages) >= self.entries:
            pages.popitem(last=False)
        pages[key] = None
        return False

    def __len__(self) -> int:
        return len(self.pages)


class TlbHierarchy:
    """DTLB + shared STLB; returns the translation delay per access."""

    def __init__(self, params: TlbParams | None = None) -> None:
        self.params = params or TlbParams()
        self._dtlb = LruSet(self.params.dtlb_entries)
        self._stlb = LruSet(self.params.stlb_entries)
        self.stats = TlbStats()

    def access(self, vpage: int) -> int:
        """Translate ``vpage``; returns the added delay in cycles."""
        stats = self.stats
        stats.accesses += 1
        # Each level's LruSet.touch, inlined: this runs on every load
        # and store.
        dtlb = self._dtlb.pages
        if vpage in dtlb:
            dtlb.move_to_end(vpage)
            return 0
        stats.dtlb_misses += 1
        if len(dtlb) >= self._dtlb.entries:
            dtlb.popitem(last=False)
        dtlb[vpage] = None
        stlb = self._stlb.pages
        if vpage in stlb:
            stlb.move_to_end(vpage)
            return self.params.stlb_penalty
        stats.stlb_misses += 1
        if len(stlb) >= self._stlb.entries:
            stlb.popitem(last=False)
        stlb[vpage] = None
        return self.params.walk_penalty

    def reset_stats(self) -> None:
        """Zero the counters (TLB contents persist, like the caches)."""
        self.stats = TlbStats()

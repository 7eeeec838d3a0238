"""Prefetcher interface shared by IPCP and every baseline.

The cache drives a prefetcher with two hooks, mirroring ChampSim's
prefetcher API:

* :meth:`Prefetcher.on_access` — called for every access the cache
  observes (demand load/store, and prefetch arrivals from the level
  above, which is how IPCP's L1→L2 metadata channel works).  It returns
  the list of prefetch requests to issue.
* :meth:`Prefetcher.on_fill` — called when a block is installed into
  the cache, with the evicted line (if any).

Addresses in :class:`AccessContext` are byte addresses.  L1 prefetchers
see *virtual* addresses (the paper trains IPCP on virtual addresses
because the L1 is virtually indexed); lower-level prefetchers see
physical addresses.  The cache translates the returned virtual prefetch
addresses before sending them down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class AccessType(IntEnum):
    """What kind of access the prefetcher is observing."""

    LOAD = 0
    STORE = 1
    PREFETCH = 2  # a prefetch issued by the level above arriving here


@dataclass(frozen=True)
class AccessContext:
    """Everything a prefetcher may observe about one cache access."""

    ip: int
    addr: int
    cache_hit: bool
    kind: AccessType
    cycle: int
    metadata: int = 0  # e.g. IPCP's 9-bit class/stride packet from L1
    mpki: float = 0.0  # running demand-miss MPKI of this cache level


@dataclass(frozen=True)
class PrefetchRequest:
    """One prefetch the prefetcher wants the cache to issue.

    ``addr`` is a byte address in the same address space the prefetcher
    observed (virtual at L1, physical below).  ``fill_this_level`` False
    means "prefetch till the next level only" (the Fig. 1 experiment).
    ``metadata`` rides along with the request to the next level's
    prefetcher; ``pf_class`` tags the request for per-class coverage
    accounting (IPCP classes; 0 for single-class prefetchers).
    """

    addr: int
    fill_this_level: bool = True
    metadata: int = 0
    pf_class: int = 0


@dataclass
class Prefetcher:
    """Base class: a prefetcher that never prefetches.

    Subclasses override :meth:`on_access` (and optionally
    :meth:`on_fill`).  ``name`` identifies the prefetcher in reports and
    ``storage_bits`` documents its hardware budget for Table-III-style
    comparisons.
    """

    name: str = "none"
    storage_bits: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Observe an access; return prefetch requests to issue."""
        return []

    def on_fill(
        self, addr: int, was_prefetch: bool, metadata: int, evicted_addr: int | None
    ) -> None:
        """Observe a block fill at this level (default: ignore)."""

    def on_prefetch_fill(self, addr: int, pf_class: int) -> None:
        """One of *our* prefetches was filled (feeds IPCP's throttler)."""

    def on_prefetch_hit(self, addr: int, pf_class: int) -> None:
        """A demand hit one of our prefetched blocks (accuracy feedback)."""

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named statistic counter."""
        self.stats[counter] = self.stats.get(counter, 0) + amount

    def batch_state(self) -> dict | None:
        """Expose internal state handles for the batched engine.

        A prefetcher that supports batch stepping returns a dict of
        *live references* to its mutable tables/filters/throttles; the
        batched engine (:mod:`repro.sim.batched`) mutates them in place
        so the end-of-run state is identical to a scalar run.  The base
        implementation returns None, which means "no batch support" —
        the engine then falls back to the scalar path for the whole
        simulation (it never mixes engines within one run).
        """
        return None

    def summary(self) -> "PrefetcherSummary":
        """Lightweight snapshot of this prefetcher for result records.

        :class:`repro.sim.engine.SimResult` carries summaries instead of
        live prefetcher objects so results pickle cleanly across process
        boundaries and into the persistent result cache.
        """
        return PrefetcherSummary(
            name=self.name,
            storage_bits=self.storage_bits,
            counters=tuple(sorted(self.stats.items())),
        )


@dataclass(frozen=True)
class PrefetcherSummary:
    """Picklable per-prefetcher stats summary (name, budget, counters).

    ``counters`` is the prefetcher's :attr:`Prefetcher.stats` dict frozen
    into a sorted tuple of ``(name, value)`` pairs, so equal prefetcher
    states serialize byte-identically regardless of counter insertion
    order.
    """

    name: str
    storage_bits: int
    counters: tuple = ()

    @property
    def stats(self) -> dict[str, int]:
        """The counters as a plain dict (mirrors ``Prefetcher.stats``)."""
        return dict(self.counters)


class NullPrefetcher(Prefetcher):
    """Explicit no-prefetching placeholder (the paper's baseline)."""

    def __init__(self) -> None:
        super().__init__(name="none", storage_bits=0)

"""Next-line (NL) prefetcher.

The simplest spatial prefetcher: on an access to line L, prefetch
L+1 .. L+degree.  The paper uses NL widely — as an L2/LLC companion for
MLOP and Bingo, and in a *throttled* form (demand accesses only, degree
1) as the L1 partner of SPP+PPF+DSPatch, following the DPC-3 entry.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.params import LINES_PER_PAGE
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)

_PREFETCH = AccessType.PREFETCH
# ``_new_request(PrefetchRequest, fields)`` builds the named tuple
# without its Python-level ``__new__`` (one frame less per request).
_new_request = tuple.__new__


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential lines (within the page)."""

    def __init__(
        self,
        degree: int = 1,
        on_miss_only: bool = False,
        demand_only: bool = True,
    ) -> None:
        if degree < 1:
            raise ConfigurationError("next-line degree must be >= 1")
        super().__init__(name="next_line", storage_bits=0)
        self.degree = degree
        self.on_miss_only = on_miss_only
        self.demand_only = demand_only

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Prefetch the next ``degree`` lines of the access's page."""
        _, addr, cache_hit, kind, _, _, _ = ctx
        if self.demand_only and kind == _PREFETCH:
            return []
        if self.on_miss_only and cache_hit:
            return []
        line = addr >> 6
        page = line // LINES_PER_PAGE
        requests = []
        for target in range(line + 1, line + self.degree + 1):
            if target // LINES_PER_PAGE != page:
                break  # the rest lie past the page too
            requests.append(_new_request(
                PrefetchRequest, (target << 6, True, 0, 0)))
        return requests


class ThrottledNextLinePrefetcher(NextLinePrefetcher):
    """Accuracy-throttled NL — the DPC-3 "throttled NL at L1" companion.

    Tracks its own fill/hit accuracy over 64-fill epochs and stops
    prefetching while accuracy is below ``threshold``; it probes again
    (one epoch of prefetching) after every ``probe_period`` suppressed
    accesses so a phase change can re-enable it.
    """

    EPOCH_FILLS = 64

    def __init__(self, threshold: float = 0.35, probe_period: int = 512
                 ) -> None:
        super().__init__(degree=1, on_miss_only=True)
        self.name = "throttled_nl"
        self.threshold = threshold
        self.probe_period = probe_period
        self._fills = 0
        self._hits = 0
        self._enabled = True
        self._suppressed = 0

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        if not self._enabled:
            self._suppressed += 1
            if self._suppressed >= self.probe_period:
                self._enabled = True
                self._suppressed = 0
            return []
        return super().on_access(ctx)

    def on_prefetch_fill(self, addr: int, pf_class: int) -> None:
        self._fills += 1
        if self._fills >= self.EPOCH_FILLS:
            accuracy = self._hits / self._fills
            self._enabled = accuracy >= self.threshold
            self._fills = 0
            self._hits = 0

    def on_prefetch_hit(self, addr: int, pf_class: int) -> None:
        self._hits += 1

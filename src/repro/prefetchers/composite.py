"""Composite prefetchers: several prefetchers side by side at one level.

:class:`CompositePrefetcher` runs its children at one cache level
(deduplicating their proposals), which is how the DPC-3 winner stacks
SPP + PPF + DSPatch at the L2 (:func:`spp_ppf_dspatch`).
"""

from __future__ import annotations

from repro.prefetchers.base import AccessContext, Prefetcher, PrefetchRequest
from repro.prefetchers.dspatch import DspatchPrefetcher
from repro.prefetchers.ppf import PerceptronFilter
from repro.prefetchers.spp import SppPrefetcher


class CompositePrefetcher(Prefetcher):
    """Run several prefetchers at one level, merging their requests."""

    def __init__(self, children: list[Prefetcher], name: str | None = None
                 ) -> None:
        joined = name or "+".join(child.name for child in children)
        super().__init__(
            name=joined,
            storage_bits=sum(child.storage_bits for child in children),
        )
        self.children = children

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        seen: set[int] = set()
        merged: list[PrefetchRequest] = []
        for child in self.children:
            for request in child.on_access(ctx):
                line = request.addr >> 6
                if line in seen:
                    continue
                seen.add(line)
                merged.append(request)
        return merged

    def on_fill(self, addr, was_prefetch, metadata, evicted_addr) -> None:
        for child in self.children:
            child.on_fill(addr, was_prefetch, metadata, evicted_addr)

    def on_prefetch_fill(self, addr: int, pf_class: int) -> None:
        for child in self.children:
            child.on_prefetch_fill(addr, pf_class)

    def on_prefetch_hit(self, addr: int, pf_class: int) -> None:
        for child in self.children:
            child.on_prefetch_hit(addr, pf_class)


def spp_ppf_dspatch() -> CompositePrefetcher:
    """The paper's best L2 combination: SPP filtered by PPF, plus DSPatch."""
    return CompositePrefetcher(
        [PerceptronFilter(SppPrefetcher()), DspatchPrefetcher()],
        name="spp+ppf+dspatch",
    )


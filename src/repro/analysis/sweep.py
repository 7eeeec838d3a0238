"""Parameter sweeps for the paper's sensitivity studies (Section VI-C).

:func:`sweep_system` builds a :class:`~repro.params.SystemParams`
variant — different DRAM bandwidth, cache sizes, PQ/MSHR budgets or
replacement policy — so the sensitivity claims can rerun the same
suite across the swept axis.  The variant is one more coordinate of an
:class:`~repro.analysis.ExperimentRunner` grid, so a whole sweep
resolves in a single fan-out (see ``ExperimentRunner.sweep_table``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ReproError
from repro.params import (
    CacheParams,
    CoreParams,
    DramParams,
    LINE_SIZE,
    SystemParams,
    default_l1d,
    default_l2,
    default_llc,
)


def _validated_ways(level: str, size: int, candidates: tuple[int, ...]) -> int:
    """Pick the first way count giving an integral power-of-two set count.

    Historically a bad size silently kept the default way count and blew
    up later (or not at all) inside ``CacheParams``; sweeping an invalid
    axis point must instead fail loudly at the sweep boundary.
    """
    for ways in candidates:
        if size % (ways * LINE_SIZE) == 0:
            sets = size // (ways * LINE_SIZE)
            if sets & (sets - 1) == 0:
                return ways
    raise ReproError(
        f"{level} size {size} gives no integral power-of-two set count "
        f"with {' or '.join(str(w) for w in candidates)} ways; pick a "
        f"power-of-two multiple of ways*{LINE_SIZE} bytes"
    )


def sweep_system(
    l1_size: int | None = None,
    l2_size: int | None = None,
    llc_size: int | None = None,
    l1_pq: int | None = None,
    l1_mshr: int | None = None,
    replacement: str | None = None,
    dram_bandwidth_gbps: float | None = None,
) -> SystemParams:
    """Build a Table II variant with the given overrides.

    Sizes are bytes; way counts are chosen (L1: 12-way preferred, then
    8-way) so the set count stays an integral power of two.  A size for
    which no candidate way count works raises :class:`ReproError`
    instead of silently keeping defaults that cannot index the cache.
    """
    l1 = default_l1d()
    l2 = default_l2()
    llc = default_llc()
    if l1_size is not None:
        ways = _validated_ways("L1D", l1_size, (12, 8))
        l1 = CacheParams("L1D", l1_size, ways, 5,
                         l1.pq_entries, l1.mshr_entries)
    if l1_pq is not None or l1_mshr is not None:
        l1 = replace(
            l1,
            pq_entries=l1_pq if l1_pq is not None else l1.pq_entries,
            mshr_entries=l1_mshr if l1_mshr is not None else l1.mshr_entries,
        )
    if l2_size is not None:
        _validated_ways("L2", l2_size, (l2.ways,))
        l2 = replace(l2, size=l2_size)
    if llc_size is not None:
        _validated_ways("LLC", llc_size, (llc.ways,))
        llc = replace(llc, size=llc_size)
    if replacement is not None:
        llc = replace(llc, replacement=replacement)
    dram = DramParams()
    if dram_bandwidth_gbps is not None:
        dram = replace(dram, bandwidth_gbps=dram_bandwidth_gbps)
    return SystemParams(core=CoreParams(), l1d=l1, l2=l2, llc=llc, dram=dram)

"""Parameter sweeps for the paper's sensitivity studies (Section VI-C).

Each helper builds a :class:`~repro.params.SystemParams` variant —
different DRAM bandwidth, cache sizes, PQ/MSHR budgets or replacement
policy — so the sensitivity claims can rerun the same suite across
the swept axis.  :func:`run_sweep` executes such a swept grid through
the parallel simulation runner in a single fan-out.
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
from repro.resilience import JobFailure
from repro.runner import ResultCache, SimulationRunner, levels_job
from repro.stats.metrics import geometric_mean


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


def sweep_dram_bandwidth(bandwidths_gbps: list[float]) -> list[SystemParams]:
    """One SystemParams per bandwidth point (the 3.2/12.8/25 GB/s study)."""
    return [sweep_system(dram_bandwidth_gbps=bw) for bw in bandwidths_gbps]


def run_sweep(
    traces,
    config_names: list[str],
    params_list: list[SystemParams],
    baseline: str = "none",
    jobs: int = 1,
    cache_dir: str | None = None,
    runner: SimulationRunner | None = None,
) -> list[dict[str, float]]:
    """Mean speedups for every swept parameter point, in one fan-out.

    Builds the full (params x trace x config) job grid up front and
    resolves it through one :class:`SimulationRunner` batch, so worker
    processes stay busy across the whole sensitivity axis and every
    cell lands in the persistent cache.  Returns one
    ``{config: geometric-mean speedup over baseline}`` dict per entry
    of ``params_list``.
    """
    if runner is None:
        cache = ResultCache(cache_dir) if cache_dir else None
        runner = SimulationRunner(jobs=jobs, cache=cache)
    configs = [baseline] + [c for c in config_names if c != baseline]
    grid = [
        (point, trace, config)
        for point in range(len(params_list))
        for trace in traces
        for config in configs
    ]
    specs = [levels_job(trace, config, params_list[point])
             for point, trace, config in grid]
    cells = {
        (point, trace.name, config): result
        for (point, trace, config), result in zip(grid, runner.run(specs))
    }
    rows: list[dict[str, float]] = []
    for point in range(len(params_list)):
        row = {}
        for config in config_names:
            pairs = [(cells[(point, trace.name, config)],
                      cells[(point, trace.name, baseline)])
                     for trace in traces]
            # With a degraded runner a terminally-failed cell arrives
            # as a JobFailure; surface it in the swept row instead of
            # averaging over a silently partial suite.
            failure = next(
                (cell for pair in pairs for cell in pair
                 if isinstance(cell, JobFailure)), None,
            )
            if failure is not None:
                row[config] = failure
            else:
                row[config] = geometric_mean([
                    result.speedup_over(base) for result, base in pairs
                ])
        rows.append(row)
    return rows

"""Multicore mix construction (Section VI-A, VI-D).

The paper evaluates homogeneous mixes (every core runs the same
memory-intensive trace) and heterogeneous mixes (random draws from the
full suite, or from the memory-intensive subset).  Mixes are seeded so
the same mix list regenerates identically across runs.

On top of the paper's random draws, :data:`GRADED_MIXES` defines an
MPKI-graded four-core suite ``mix1``-``mix7`` in the style of
ChampSim-derived multicore matrices: each mix draws from the SPEC-like,
GAP-like and STREAM registries and the suite's single-core L1 MPKI
(no prefetching) rises monotonically from cache-resident codes through
bandwidth-bound streams to pointer-chasing graph traversals.  The
gradient is machine-checked: ``tests/test_mix_suite.py`` asserts it at
test scale and the ``mix-mpki-gradient`` claim re-measures it under
``repro paper --check``.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.sim.trace import Trace
from repro.workloads.spec import SPEC_BENCHMARKS, spec_trace

# The graded four-core suite, ordered by rising baseline L1 MPKI.
# mix1 is cache-resident, mix2-4 climb through streaming bandwidth
# pressure, mix5-7 add GAP traversals and pointer chasing until almost
# every load misses.  Single-core MPKI must be monotonically
# non-decreasing mix1 -> mix7 (asserted in tests and the claim cell).
GRADED_MIXES: dict[str, tuple[str, str, str, str]] = {
    "mix1": ("leela_like", "deepsjeng_like", "perlbench_like",
             "xalancbmk_like"),
    "mix2": ("leela_like", "deepsjeng_like", "fotonik_like", "stream_copy"),
    "mix3": ("stream_copy", "stream_scale", "lbm_like", "roms_like"),
    "mix4": ("stream_add", "stream_triad", "stream_copy", "mcf_i_like"),
    "mix5": ("bfs_like", "stream_triad", "lbm_1004_like", "mcf_i_like"),
    "mix6": ("sssp_like", "bfs_like", "stream_triad", "mcf_994_like"),
    "mix7": ("sssp_like", "bfs_like", "mcf_994_like", "omnetpp_like"),
}


def graded_mix(mix: str, scale: float = 1.0, seed: int = 7) -> list[Trace]:
    """Build the four traces of one graded mix (``mix1`` .. ``mix7``).

    The seed is salted with the core index, so a benchmark appearing on
    two cores of the same mix still gets distinct (uncorrelated) access
    streams.
    """
    # Deferred: the package imports this module.
    from repro.workloads import workload_trace

    try:
        names = GRADED_MIXES[mix]
    except KeyError:
        raise ConfigurationError(
            f"unknown graded mix {mix!r}; known: {sorted(GRADED_MIXES)}"
        ) from None
    return [
        workload_trace(name, scale, seed + core)
        for core, name in enumerate(names)
    ]


def graded_suite(scale: float = 1.0,
                 seed: int = 7) -> dict[str, list[Trace]]:
    """All seven graded mixes, in MPKI order (mix1 first)."""
    return {mix: graded_mix(mix, scale, seed) for mix in GRADED_MIXES}


def homogeneous_mix(name: str, cores: int, scale: float = 1.0,
                    seed: int | None = None) -> list[Trace]:
    """One workload on ``cores`` cores, all sharing one trace object
    (distinct address spaces come from the per-core virtual-memory
    seeds, not the trace).

    ``name`` may come from any family
    (:func:`repro.workloads.workload_trace`); an omitted ``seed`` means
    the family's own default.
    """
    # Deferred: the package imports this module.
    from repro.workloads import workload_trace

    if cores < 1:
        raise ConfigurationError("cores must be >= 1")
    return [workload_trace(name, scale, seed)] * cores


def heterogeneous_mixes(
    count: int,
    cores: int,
    memory_intensive_only: bool = False,
    scale: float = 1.0,
    seed: int = 97,
) -> list[list[Trace]]:
    """``count`` random mixes of ``cores`` benchmarks each.

    With ``memory_intensive_only`` the draw pool matches the paper's
    "500 mixes containing only the memory-intensive traces"; otherwise
    the pool is the entire suite ("500 random mixes").  Trace seeds are
    salted with the core index: two cores drawing the same benchmark in
    one mix get independent access streams rather than bit-identical
    (perfectly correlated) ones.
    """
    if count < 1 or cores < 1:
        raise ConfigurationError("count and cores must be >= 1")
    pool = [
        name
        for name, (_, intensive, _) in SPEC_BENCHMARKS.items()
        if intensive or not memory_intensive_only
    ]
    rng = random.Random(seed)
    mixes = []
    for _ in range(count):
        names = [rng.choice(pool) for _ in range(cores)]
        mixes.append([
            spec_trace(name, scale, seed + core)
            for core, name in enumerate(names)
        ])
    return mixes

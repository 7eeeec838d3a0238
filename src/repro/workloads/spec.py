"""Synthetic stand-ins for the SPEC CPU 2017 sim-point traces.

Each generator reproduces the *access-pattern profile* the paper
attributes to its namesake benchmark (Sections III and VI):

=================  ====================================================
lbm_like           multi-array unit-stride streaming + stores (GS)
bwaves_like        constant stride 3 (the paper's IP_A example; CS)
gcc_like           dense 2 KB regions, jumbled IP order (GS)
mcf_r_like         mcf's *regular* phase (trace 1152B): CS strides
mcf_i_like         mcf's irregular phase (1536B): 1,2,1,2 CPLX + chase
omnetpp_like       pointer chasing over a > LLC pool (unprefetchable)
cactu_like         thousands of strided IPs -> IP-table thrashing
fotonik_like       four concurrent stencil streams
wrf_like           3,3,4 complex stride (layout-induced; CPLX)
roms_like          stride-2 plus streaming mix
xz_like            hot set + medium chase + bursts (mixed)
xalancbmk_like     cache-resident hot set (the paper's failing outlier)
=================  ====================================================

plus a handful of non-memory-intensive codes (perlbench/x264/leela
analogues) used only by the full-suite average.  All generators are
deterministic in (name, scale, seed).
"""

from __future__ import annotations

import zlib
from typing import Callable

from repro.errors import ConfigurationError
from repro.params import LINE_SIZE
from repro.sim.trace import Trace
from repro.workloads.patterns import (
    WorkloadBuilder,
    complex_stride_pattern,
    dense_region_burst,
    hot_set,
    pointer_chase,
    stream_pattern,
    strided_pattern,
    warm_footprint,
)

MB = 1024 * 1024

# Disjoint virtual arenas so different roles never alias.
_ARENA = 64 * MB


def _arena(index: int) -> int:
    return 0x1000_0000 + index * _ARENA


def _lbm_like(builder: WorkloadBuilder, loads: int) -> None:
    # Three grids swept in lockstep (src read, neighbour read, dst write).
    chunk = 256
    base_a, base_b, base_c = _arena(0), _arena(1), _arena(2)
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "grid_a", base_a + offset, chunk)
        stream_pattern(builder, "grid_b", base_b + offset, chunk)
        for i in range(chunk // 8):
            builder.store("grid_c", base_c + offset + i * LINE_SIZE)
        offset += chunk * 8


def _bwaves_like(builder: WorkloadBuilder, loads: int) -> None:
    stops = max(1, loads // 6)  # six field loads per line stop
    strided_pattern(builder, "ip_a", _arena(0), stops, stride_lines=3)


def _gcc_like(builder: WorkloadBuilder, loads: int) -> None:
    regions_per_burst = 8
    base = _arena(0)
    roles = ["walk_c", "walk_d", "walk_e"]
    while builder_loads(builder) < loads:
        dense_region_burst(builder, roles, base, regions_per_burst)
        base += regions_per_burst * 2048


def _mcf_regular_like(builder: WorkloadBuilder, loads: int) -> None:
    chunk = 192
    offset = 0
    while builder_loads(builder) < loads:
        strided_pattern(builder, "arcs", _arena(0) + offset, chunk, 1)
        strided_pattern(builder, "nodes", _arena(1) + offset, chunk // 2, 2)
        offset += chunk * 2 * LINE_SIZE


def _mcf_irregular_like(builder: WorkloadBuilder, loads: int) -> None:
    pool = (4 * MB) // LINE_SIZE
    chunk = 128
    offset = 0
    while builder_loads(builder) < loads:
        complex_stride_pattern(
            builder, "layout", _arena(0) + offset, chunk, (1, 2)
        )
        pointer_chase(builder, "tree", _arena(1), pool, chunk)
        offset += chunk * 3 * LINE_SIZE


def _omnetpp_like(builder: WorkloadBuilder, loads: int) -> None:
    pool = (8 * MB) // LINE_SIZE
    while builder_loads(builder) < loads:
        pointer_chase(builder, "events", _arena(0), pool, 256)
        hot_set(builder, "sched", _arena(1), 64, 32)


def _cactu_like(builder: WorkloadBuilder, loads: int) -> None:
    # cactusBSSN's pathology (Section VI-B): hundreds of stencil IPs,
    # each with a clean +1-line-per-iteration walk through its own grid
    # column (pages 4 KB apart), but with an IP reuse distance of ~1024
    # — far beyond IPCP's 64-entry table, which thrashes and covers
    # almost nothing.  The per-sweep footprint also exceeds the L1, so
    # even correct early prefetches are evicted before use (why T-SKID's
    # timing awareness wins there).  Only large-table per-IP prefetchers
    # track this pattern.
    n_ips = 384
    sweep = 0
    while builder_loads(builder) < loads:
        for i in range(n_ips):
            if builder_loads(builder) >= loads:
                break
            line_base = _arena(0) + i * 4096 + sweep * LINE_SIZE
            builder.load(f"stencil_{i}", line_base)
            for k in range(1, 5):
                builder.load(f"stencil_{i}.f{k}", line_base + k * 8)
        sweep += 1


def _fotonik_like(builder: WorkloadBuilder, loads: int) -> None:
    chunk = 96
    offset = 0
    while builder_loads(builder) < loads:
        for field in range(4):
            stream_pattern(
                builder, f"field_{field}", _arena(field) + offset, chunk
            )
        offset += chunk * 8


def _wrf_like(builder: WorkloadBuilder, loads: int) -> None:
    stops = max(1, loads // 6)  # six field loads per line stop
    complex_stride_pattern(builder, "physics", _arena(0), stops, (3, 3, 4))


def _roms_like(builder: WorkloadBuilder, loads: int) -> None:
    chunk = 160
    offset = 0
    while builder_loads(builder) < loads:
        strided_pattern(builder, "ocean", _arena(0) + offset, chunk, 2)
        stream_pattern(builder, "coast", _arena(1) + offset, chunk)
        offset += chunk * 16 * 8


def _xz_like(builder: WorkloadBuilder, loads: int) -> None:
    pool = (3 * MB) // LINE_SIZE
    offset = 0
    while builder_loads(builder) < loads:
        hot_set(builder, "dict", _arena(0), 512, 96)
        pointer_chase(builder, "match", _arena(1), pool, 64)
        stream_pattern(builder, "output", _arena(2) + offset, 64)
        offset += 64 * 8


def _xalancbmk_like(builder: WorkloadBuilder, loads: int) -> None:
    dom_lines = min(2048, max(64, loads // 4))
    warm_footprint(builder, "dom_init", _arena(0), dom_lines)
    hot_set(builder, "dom", _arena(0), dom_lines, max(1, loads - dom_lines))


def _resident_like(builder: WorkloadBuilder, loads: int) -> None:
    # Generic non-memory-intensive profile: hot set + light streaming.
    # The footprint is warmed first so compulsory misses land in the
    # simulator's warm-up region, not the measured ROI.
    ws_lines = min(1024, max(64, loads // 4))
    warm_footprint(builder, "ws_init", _arena(0), ws_lines)
    offset = 0
    while builder_loads(builder) < loads:
        hot_set(builder, "working_set", _arena(0), ws_lines, 200)
        stream_pattern(builder, "scan", _arena(1) + offset, 16)
        offset += 16 * 8


# --------------------------------------------------------------------- #
# Sim-point style variants: the paper's 46 memory-intensive traces come
# from ~15 benchmarks at several sim-points each (mcf alone contributes
# five).  These variants rerun the generator families with different
# parameters, the way different sim-points catch different phases.
# --------------------------------------------------------------------- #

def _bwaves_1861_like(builder: WorkloadBuilder, loads: int) -> None:
    # A different phase strides five lines instead of three.
    stops = max(1, loads // 6)
    strided_pattern(builder, "ip_a2", _arena(0), stops, stride_lines=5)


def _lbm_1004_like(builder: WorkloadBuilder, loads: int) -> None:
    # Collision-heavy phase: two read grids, denser stores.
    chunk = 192
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "grid_a", _arena(0) + offset, chunk)
        stream_pattern(builder, "grid_b", _arena(1) + offset, chunk)
        for i in range(chunk // 4):
            builder.store("grid_out", _arena(2) + offset + i * LINE_SIZE)
        offset += chunk * 8


def _gcc_5186_like(builder: WorkloadBuilder, loads: int) -> None:
    # Wider bursts over more regions per episode.
    base = _arena(0)
    roles = ["w1", "w2", "w3", "w4"]
    while builder_loads(builder) < loads:
        dense_region_burst(builder, roles, base, regions=16,
                           shuffle_window=6)
        base += 16 * 2048


def _mcf_994_like(builder: WorkloadBuilder, loads: int) -> None:
    # The paper's hardest mcf trace: chase-dominated with a thin
    # regular residue.
    pool = (6 * MB) // LINE_SIZE
    offset = 0
    while builder_loads(builder) < loads:
        pointer_chase(builder, "spanning_tree", _arena(1), pool, 384)
        strided_pattern(builder, "arcs994", _arena(0) + offset, 32, 1,
                        loads_per_stop=4)
        offset += 32 * LINE_SIZE


def _omnetpp_720_like(builder: WorkloadBuilder, loads: int) -> None:
    # Heavier scheduler reuse beside the event-queue chase.
    pool = (6 * MB) // LINE_SIZE
    while builder_loads(builder) < loads:
        pointer_chase(builder, "events", _arena(0), pool, 192)
        hot_set(builder, "modules", _arena(1), 256, 96)


def _fotonik_8225_like(builder: WorkloadBuilder, loads: int) -> None:
    # Six concurrent field arrays instead of four.
    chunk = 64
    offset = 0
    while builder_loads(builder) < loads:
        for field in range(6):
            stream_pattern(builder, f"f{field}", _arena(field) + offset,
                           chunk)
        offset += chunk * 8


def _cam4_like(builder: WorkloadBuilder, loads: int) -> None:
    # Atmosphere physics columns: 2,2,3 layout-induced complex stride.
    stops = max(1, loads // 6)
    complex_stride_pattern(builder, "column", _arena(0), stops, (2, 2, 3))


def _pop2_like(builder: WorkloadBuilder, loads: int) -> None:
    # Ocean model: stride-2 tracer walks plus dense halo regions.
    chunk = 128
    offset = 0
    while builder_loads(builder) < loads:
        strided_pattern(builder, "tracer", _arena(0) + offset, chunk, 2)
        dense_region_burst(builder, ["halo_a", "halo_b"],
                           _arena(1) + offset, regions=2)
        offset += chunk * 16 * 8


def _temporal_loop_like(builder: WorkloadBuilder, loads: int) -> None:
    # Extension workload (Section VII future work): an irregular pointer
    # ring that *recurs* — the ring (12288 lines ~ 768 KB of lines)
    # exceeds the L2 but fits the LLC, so every lap re-misses L1/L2 in
    # the same temporal order.  Spatial classes cover none of it; a
    # temporal component learns the successor chain after the first lap.
    # A single pointer_chase call keeps one fixed ring across laps.
    pointer_chase(builder, "loop", _arena(0), 12_288, loads)


# Extension workloads: not part of the paper's suites; used by the
# future-work benches and examples.
EXTENSION_BENCHMARKS: dict[str, tuple["Generator", bool, int]] = {}


def extension_trace(name: str, scale: float = 1.0, seed: int = 7) -> Trace:
    """Build one extension workload (e.g. ``temporal_loop_like``)."""
    try:
        generator, _, alu = EXTENSION_BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown extension benchmark {name!r}; "
            f"known: {sorted(EXTENSION_BENCHMARKS)}"
        ) from None
    loads = max(1, int(DEFAULT_LOADS * scale))
    builder = WorkloadBuilder(name, seed=seed, alu_per_load=alu)
    generator(builder, loads)
    return builder.build()


def builder_loads(builder: WorkloadBuilder) -> int:
    """Loads emitted so far (generators size episodes against this)."""
    return builder.loads


Generator = Callable[[WorkloadBuilder, int], None]

# name -> (generator, memory_intensive?, alu_per_load)
SPEC_BENCHMARKS: dict[str, tuple[Generator, bool, int]] = {
    "lbm_like": (_lbm_like, True, 6),
    "bwaves_like": (_bwaves_like, True, 6),
    "gcc_like": (_gcc_like, True, 6),
    "mcf_r_like": (_mcf_regular_like, True, 6),
    "mcf_i_like": (_mcf_irregular_like, True, 5),
    "omnetpp_like": (_omnetpp_like, True, 4),
    "cactu_like": (_cactu_like, True, 6),
    "fotonik_like": (_fotonik_like, True, 6),
    "wrf_like": (_wrf_like, True, 6),
    "roms_like": (_roms_like, True, 6),
    "xz_like": (_xz_like, True, 4),
    "bwaves_1861_like": (_bwaves_1861_like, True, 6),
    "lbm_1004_like": (_lbm_1004_like, True, 6),
    "gcc_5186_like": (_gcc_5186_like, True, 6),
    "mcf_994_like": (_mcf_994_like, True, 4),
    "omnetpp_720_like": (_omnetpp_720_like, True, 4),
    "fotonik_8225_like": (_fotonik_8225_like, True, 6),
    "cam4_like": (_cam4_like, True, 6),
    "pop2_like": (_pop2_like, True, 6),
    "xalancbmk_like": (_xalancbmk_like, False, 4),
    "perlbench_like": (_resident_like, False, 6),
    "x264_like": (_resident_like, False, 6),
    "leela_like": (_resident_like, False, 6),
    "deepsjeng_like": (_resident_like, False, 6),
}

EXTENSION_BENCHMARKS["temporal_loop_like"] = (_temporal_loop_like, True, 4)

DEFAULT_LOADS = 10_000


def registry_trace(registry: dict[str, tuple[Generator, bool, int]],
                   kind: str, name: str, scale: float, seed: int) -> Trace:
    """Build trace ``name`` of a ``(generator, memory_intensive, alu)``
    registry; ``kind`` names an entry in the unknown-name error.

    ``scale`` multiplies the default load budget (10 k loads, roughly
    50-60 k instructions at 4 ALU ops per load).
    """
    try:
        generator, _, alu = registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; known: {sorted(registry)}"
        ) from None
    loads = max(1, int(DEFAULT_LOADS * scale))
    # Salt the seed with the name so entries sharing a generator (the
    # resident profiles) still get distinct traces.
    salted = seed ^ zlib.crc32(name.encode())
    builder = WorkloadBuilder(name, seed=salted, alu_per_load=alu)
    generator(builder, loads)
    return builder.build()


def spec_trace(name: str, scale: float = 1.0, seed: int = 7) -> Trace:
    """Build one synthetic SPEC-like trace (see :func:`registry_trace`)."""
    return registry_trace(SPEC_BENCHMARKS, "benchmark", name, scale, seed)


def compute_dense_trace(
    name: str = "lbm_like",
    loads: int = 5_000,
    alu_per_load: int = 126,
    seed: int = 7,
) -> Trace:
    """A compute-dense variant of a SPEC-like trace (same access stream).

    Replays ``name``'s generator with a much larger ALU run between
    memory events — the instruction mix of an HPC kernel whose inner
    loop is arithmetic-bound rather than memory-bound.  The batched
    engine's throughput benchmark uses this to measure the gap-kernel
    ceiling: the suite workloads are deliberately memory-event-dense
    (14-20% events), which bounds any engine's overall speedup via
    Amdahl's law, while this mix (<1% events) shows what the closed-form
    gap arithmetic delivers when the interpreter dispatch actually
    dominates (see docs/engine.md).
    """
    generator, _, _ = SPEC_BENCHMARKS[name]
    salted = seed ^ zlib.crc32(name.encode())
    builder = WorkloadBuilder(f"{name.split('_')[0]}_dense", seed=salted,
                              alu_per_load=alu_per_load)
    generator(builder, loads)
    return builder.build()


def memory_intensive_suite(scale: float = 1.0, seed: int = 7) -> list[Trace]:
    """The analogue of the paper's 46 memory-intensive traces."""
    return [
        spec_trace(name, scale, seed)
        for name, (_, intensive, _) in SPEC_BENCHMARKS.items()
        if intensive
    ]


def full_suite(scale: float = 1.0, seed: int = 7) -> list[Trace]:
    """The analogue of the whole 98-trace SPEC CPU 2017 collection."""
    return [spec_trace(name, scale, seed) for name in SPEC_BENCHMARKS]

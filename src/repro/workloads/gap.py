"""GAP-benchmark-style graph traversals over seeded Kronecker graphs.

The GAP benchmark suite evaluates graph kernels on synthetic Kronecker
(R-MAT) graphs whose recursive construction yields a power-law degree
distribution: a few hub vertices attract most edges while the long tail
is touched essentially at random.  For a trace generator the upshot is
an access stream with two faces:

* the *frontier* and CSR offset arrays are swept sequentially
  (prefetchable unit strides), while
* per-edge gathers into the vertex-property arrays land on
  hub-skewed pseudo-random lines of a multi-megabyte pool —
  dependent, irregular, and largely beyond any spatial prefetcher.

``bfs_like`` models direction-optimising BFS (visited-bitmap probe plus
parent-array gather per edge); ``sssp_like`` models delta-stepping SSSP
(weight read, distance read-modify-write per relaxation), which touches
more property lines per edge and anchors the irregular end of the
graded mix1-mix7 suite in :mod:`repro.workloads.mixes`.

Vertex indices are drawn with the R-MAT quadrant trick: each address
bit is biased toward zero, so low-numbered vertices act as hubs with
cache-resident reuse while the tail misses — deterministic in
(name, scale, seed) like every other generator in this package.
"""

from __future__ import annotations

from repro.sim.trace import Trace
from repro.workloads.patterns import ELEMENT, WorkloadBuilder, stream_pattern
from repro.workloads.spec import (
    Generator,
    _arena,
    builder_loads,
    registry_trace,
)

# 2^20 vertices x 8-byte properties = 8 MB per array: larger than the
# LLC, so tail gathers miss the whole hierarchy.
_SCALE_BITS = 20

# Per-bit probability of descending into the high half of the vertex
# range.  0.25 reproduces the R-MAT "a >> d" skew: vertex 0 is the
# hottest hub and density halves with every set bit.
_HIGH_BIT_P = 0.25


def _kron_vertex(builder: WorkloadBuilder, bits: int = _SCALE_BITS) -> int:
    """Draw one vertex index with Kronecker hub skew."""
    index = 0
    for _ in range(bits):
        index = (index << 1) | (builder.rng.random() < _HIGH_BIT_P)
    return index


def _bfs_like(builder: WorkloadBuilder, loads: int) -> None:
    # Each episode pops a frontier chunk (sequential queue reads) then
    # probes visited[] and gathers parent[] for that chunk's edges.
    frontier = 16
    edges = 48
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "frontier", _arena(0) + offset, frontier)
        offset += frontier * ELEMENT
        for _ in range(edges):
            vertex = _kron_vertex(builder)
            builder.load("visited", _arena(1) + vertex * ELEMENT)
            builder.load("parent", _arena(2) + vertex * ELEMENT, dep=True)


def _sssp_like(builder: WorkloadBuilder, loads: int) -> None:
    # Delta-stepping relaxation: bucket scan, then per-edge weight read
    # and distance read-modify-write (the store dirties the tail lines,
    # adding writeback traffic bfs does not have).
    bucket = 12
    edges = 56
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "bucket", _arena(0) + offset, bucket)
        offset += bucket * ELEMENT
        for _ in range(edges):
            vertex = _kron_vertex(builder)
            builder.load("weight", _arena(1) + vertex * ELEMENT)
            builder.load("dist", _arena(2) + vertex * ELEMENT, dep=True)
            builder.store("dist_upd", _arena(2) + vertex * ELEMENT)


# name -> (generator, memory_intensive?, alu_per_load)
GAP_BENCHMARKS: dict[str, tuple[Generator, bool, int]] = {
    "bfs_like": (_bfs_like, True, 2),
    "sssp_like": (_sssp_like, True, 2),
}


def gap_trace(name: str, scale: float = 1.0, seed: int = 7) -> Trace:
    """Build one GAP-style traversal trace (see
    :func:`repro.workloads.spec.registry_trace`)."""
    return registry_trace(GAP_BENCHMARKS, "GAP kernel", name, scale, seed)

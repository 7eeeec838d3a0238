"""CloudSuite-like server workloads (Fig. 14a).

The paper's observation — "spatial prefetchers fail to improve
performance for server workloads" — hinges on three trace properties:
enormous instruction/code footprints (far more hot IPs than a 64-entry
table can hold), poor spatial locality (objects scattered across the
heap), and long dependent chains through indexes.  The generators below
produce exactly those properties; none of them rewards spatial
prefetching by construction, so every prefetcher should land near 1.0x,
with ``streaming_like`` the partial exception (it has a scan phase).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.params import LINE_SIZE
from repro.sim.trace import Trace
from repro.workloads.patterns import (
    WorkloadBuilder,
    hot_set,
    pointer_chase,
    stream_pattern,
    warm_footprint,
)
from repro.workloads.spec import MB, _arena, builder_loads

DEFAULT_LOADS = 8_000


def _scattered_objects(builder: WorkloadBuilder, ip_count: int, pool_mb: int,
                       count: int) -> None:
    """Random object-field accesses from a large rotating set of IPs.

    Server request handling is dependency-bound (each field read feeds
    the next dereference), so most loads carry the dep flag — the mix
    is latency-limited rather than bandwidth-limited, like the real
    scale-out workloads the paper cites.
    """
    pool_lines = (pool_mb * MB) // LINE_SIZE
    for i in range(count):
        role = f"handler_{builder.rng.randrange(ip_count)}"
        line = builder.rng.randrange(pool_lines)
        builder.load(role, _arena(0) + line * LINE_SIZE, dep=(i % 3 != 0))


def _cassandra_like(builder: WorkloadBuilder, loads: int) -> None:
    while builder_loads(builder) < loads:
        _scattered_objects(builder, ip_count=512, pool_mb=4, count=128)
        pointer_chase(builder, "sstable_index", _arena(1),
                      (3 * MB) // LINE_SIZE, 64)


def _classification_like(builder: WorkloadBuilder, loads: int) -> None:
    model_lines = min(2048, max(64, loads // 4))
    warm_footprint(builder, "model_init", _arena(1), model_lines)
    while builder_loads(builder) < loads:
        _scattered_objects(builder, ip_count=1024, pool_mb=6, count=192)
        hot_set(builder, "model", _arena(1), model_lines, 32)


def _cloud9_like(builder: WorkloadBuilder, loads: int) -> None:
    while builder_loads(builder) < loads:
        pointer_chase(builder, "state_tree", _arena(0),
                      (4 * MB) // LINE_SIZE, 160)
        _scattered_objects(builder, ip_count=256, pool_mb=3, count=64)


def _nutch_like(builder: WorkloadBuilder, loads: int) -> None:
    term_lines = min(4096, max(64, loads // 4))
    warm_footprint(builder, "terms_init", _arena(1), term_lines)
    while builder_loads(builder) < loads:
        _scattered_objects(builder, ip_count=768, pool_mb=5, count=128)
        hot_set(builder, "terms", _arena(1), term_lines, 64)


def _streaming_like(builder: WorkloadBuilder, loads: int) -> None:
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "media_scan", _arena(0) + offset, 96)
        _scattered_objects(builder, ip_count=384, pool_mb=3, count=96)
        offset += 96 * 8


CLOUDSUITE_BENCHMARKS = {
    "cassandra_like": _cassandra_like,
    "classification_like": _classification_like,
    "cloud9_like": _cloud9_like,
    "nutch_like": _nutch_like,
    "streaming_like": _streaming_like,
}


def cloudsuite_trace(name: str, scale: float = 1.0, seed: int = 11) -> Trace:
    """Build one CloudSuite-like trace."""
    try:
        generator = CLOUDSUITE_BENCHMARKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown CloudSuite benchmark {name!r}; "
            f"known: {sorted(CLOUDSUITE_BENCHMARKS)}"
        ) from None
    builder = WorkloadBuilder(name, seed=seed, alu_per_load=5)
    generator(builder, max(1, int(DEFAULT_LOADS * scale)))
    return builder.build()


def cloudsuite_suite(scale: float = 1.0, seed: int = 11) -> list[Trace]:
    """All five CloudSuite-like traces (Fig. 14a's x-axis)."""
    return [
        cloudsuite_trace(name, scale, seed) for name in CLOUDSUITE_BENCHMARKS
    ]

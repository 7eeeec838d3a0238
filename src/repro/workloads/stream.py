"""STREAM-style bandwidth kernels (copy / scale / add / triad).

The four McCalpin STREAM kernels are the canonical bandwidth-bound
workloads: long unit-stride sweeps over arrays far larger than any
cache, one or two reads plus one write per element and almost no
arithmetic.  They anchor the *regular* end of the graded mix1-mix7
suite (see :mod:`repro.workloads.mixes`): every line is a compulsory
L1 miss without prefetching, yet a single constant-stride entry covers
the whole access stream, so spatial prefetchers recover nearly all of
the loss.

============  ============================  =====================
stream_copy   c[i] = a[i]                   1 load, 1 store
stream_scale  b[i] = s * c[i]               1 load, 1 store
stream_add    c[i] = a[i] + b[i]            2 loads, 1 store
stream_triad  a[i] = b[i] + s * c[i]        2 loads, 1 store
============  ============================  =====================

All generators are deterministic in (name, scale, seed) and register
the same ``(generator, memory_intensive, alu_per_load)`` tuples as the
SPEC-like registry, so the runner's content-addressed cache keys are
stable across sessions.
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

# Elements per sweep episode; arrays advance so no line repeats.
_CHUNK = 256


def _copy(builder: WorkloadBuilder, loads: int) -> None:
    # c[i] = a[i]: read stream + write stream.
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "copy_a", _arena(0) + offset, _CHUNK)
        for i in range(_CHUNK):
            builder.store("copy_c", _arena(2) + offset + i * ELEMENT)
        offset += _CHUNK * ELEMENT


def _scale(builder: WorkloadBuilder, loads: int) -> None:
    # b[i] = s * c[i]: same traffic as copy, one multiply per element.
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "scale_c", _arena(2) + offset, _CHUNK)
        for i in range(_CHUNK):
            builder.store("scale_b", _arena(1) + offset + i * ELEMENT)
        offset += _CHUNK * ELEMENT


def _add(builder: WorkloadBuilder, loads: int) -> None:
    # c[i] = a[i] + b[i]: two read streams in lockstep + write stream.
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "add_a", _arena(0) + offset, _CHUNK)
        stream_pattern(builder, "add_b", _arena(1) + offset, _CHUNK)
        for i in range(_CHUNK):
            builder.store("add_c", _arena(2) + offset + i * ELEMENT)
        offset += _CHUNK * ELEMENT


def _triad(builder: WorkloadBuilder, loads: int) -> None:
    # a[i] = b[i] + s * c[i]: the classic FMA kernel.
    offset = 0
    while builder_loads(builder) < loads:
        stream_pattern(builder, "triad_b", _arena(1) + offset, _CHUNK)
        stream_pattern(builder, "triad_c", _arena(2) + offset, _CHUNK)
        for i in range(_CHUNK):
            builder.store("triad_a", _arena(0) + offset + i * ELEMENT)
        offset += _CHUNK * ELEMENT


# name -> (generator, memory_intensive?, alu_per_load)
STREAM_BENCHMARKS: dict[str, tuple[Generator, bool, int]] = {
    "stream_copy": (_copy, True, 2),
    "stream_scale": (_scale, True, 2),
    "stream_add": (_add, True, 2),
    "stream_triad": (_triad, True, 2),
}


def stream_trace(name: str, scale: float = 1.0, seed: int = 7) -> Trace:
    """Build one STREAM kernel trace (see
    :func:`repro.workloads.spec.registry_trace`)."""
    return registry_trace(STREAM_BENCHMARKS, "STREAM kernel", name, scale,
                          seed)

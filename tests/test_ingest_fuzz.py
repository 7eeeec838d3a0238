"""Property-based fuzzing of the lenient RIB1 ingestion path.

The robustness contract: lenient ingestion of *any* byte-mutated valid
trace never raises (short of the error budget, which these tests keep
out of reach, and of a damaged magic or version, which makes the file
no RIB1 trace under any policy) and never emits a record the simulator
would reject — mutations either leave a record intact or get it
dropped, there is no third outcome where damaged bytes leak through as
a "valid" record with garbage fields.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import TraceFormatError
from repro.ingest import LENIENT, ingest_binary, write_binary
from repro.sim.trace import LOAD, STORE, validate_record


def _mutate(payload: bytes, mutations) -> bytes:
    blob = bytearray(payload)
    for position, value in mutations:
        blob[position % len(blob)] = value
    return bytes(blob)


_MUTATIONS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 16),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=16,
)


def _binary_payload() -> bytes:
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".rib")
    os.close(fd)
    try:
        write_binary(
            [(LOAD if i % 2 else STORE, 0x400_000, 0x3_0000 + 64 * i, 0)
             for i in range(40)], path)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.remove(path)


_BINARY_CLEAN = _binary_payload()


@given(mutations=_MUTATIONS)
def test_mutated_binary_never_raises_never_leaks(mutations):
    mutated = _mutate(_BINARY_CLEAN, mutations)
    if mutated[:5] != _BINARY_CLEAN[:5]:
        # Magic or version hit: not a RIB1 file, under every policy.
        with pytest.raises(TraceFormatError):
            ingest_binary(mutated, name="fuzz", policy=LENIENT,
                          max_errors=1 << 20)
        return
    trace, report = ingest_binary(mutated, name="fuzz", policy=LENIENT,
                                  max_errors=1 << 20)
    assert report.records == len(trace)
    for record in trace:
        validate_record(record)
        kind, _ip, addr, dep = record
        if kind in (LOAD, STORE):
            assert addr != 0
        assert dep in (0, 1)

"""Property-based fuzzing of RIB1 ingestion.

The robustness contract: ingesting *any* byte-mutated valid trace
either raises a typed input fault (format 14, truncated 15, checksum
16) or returns exactly the clean records.  There is no third outcome:
no other exception escapes, and damaged bytes never leak through as a
"valid" record with garbage fields.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.errors import TraceError, exit_code_for
from repro.ingest import ingest_binary, write_binary
from repro.sim.trace import LOAD, STORE


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

_RECORDS = [(LOAD if i % 2 else STORE, 0x400_000, 0x3_0000 + 64 * i, 0)
            for i in range(40)]


def _binary_payload() -> bytes:
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".rib")
    os.close(fd)
    try:
        write_binary(_RECORDS, path)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.remove(path)


_BINARY_CLEAN = _binary_payload()


@given(mutations=_MUTATIONS)
def test_mutated_binary_raises_a_typed_fault_or_reads_clean(mutations):
    mutated = _mutate(_BINARY_CLEAN, mutations)
    try:
        trace = ingest_binary(mutated, name="fuzz")
    except TraceError as error:
        assert exit_code_for(error) in (14, 15, 16)
        return
    # Only mutations of bytes the reader ignores (the header's flags
    # and padding) or of a byte to its own value get here.
    assert list(trace) == _RECORDS

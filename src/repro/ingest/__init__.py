"""Trace-file ingestion.

RIB1 (:mod:`repro.ingest.binary`) is the one trace file the toolkit
reads and writes: ``repro dump-trace`` writes a workload as RIB1 and
``repro run-trace`` reads one back into a simulation.  The reader fails
at the first malformed record or damaged stream with a fault-specific
exit code (format 14, truncated 15, checksum 16).  See
``docs/ingestion.md``.
"""

from repro.ingest.binary import (
    BinaryTraceWriter,
    ingest_binary,
    iter_binary_wire,
    write_binary,
)

__all__ = [
    "BinaryTraceWriter",
    "ingest_binary",
    "iter_binary_wire",
    "write_binary",
]

"""Hardened trace-file ingestion.

RIB1 (:mod:`repro.ingest.binary`) is the one trace file the toolkit
reads and writes: ``repro dump-trace`` writes a workload as RIB1 and
``repro run-trace`` reads one back into a simulation, under a typed
input-fault taxonomy with three policies:

* ``strict`` fails at the first malformed record or damaged stream
  with a fault-specific exit code (format 14, truncated 15, checksum
  16);
* ``lenient`` skips and counts, up to a bounded error budget (17);
* ``quarantine`` is lenient plus a ``.quarantine`` JSONL sidecar of
  every skipped raw record.

A file whose header is not RIB1 fails under every policy.  See
``docs/ingestion.md``.
"""

from repro.ingest.binary import (
    BinaryTraceWriter,
    ingest_binary,
    iter_binary_wire,
    write_binary,
)
from repro.ingest.policies import (
    CHECKSUM,
    DEFAULT_MAX_ERRORS,
    FORMAT,
    LENIENT,
    POLICIES,
    QUARANTINE,
    STRICT,
    TRUNCATED,
    IngestFault,
    IngestReport,
    QuarantineWriter,
    read_quarantine,
    validate_policy,
)

__all__ = [
    "BinaryTraceWriter",
    "CHECKSUM",
    "DEFAULT_MAX_ERRORS",
    "FORMAT",
    "IngestFault",
    "IngestReport",
    "LENIENT",
    "POLICIES",
    "QUARANTINE",
    "QuarantineWriter",
    "STRICT",
    "TRUNCATED",
    "ingest_binary",
    "iter_binary_wire",
    "read_quarantine",
    "validate_policy",
    "write_binary",
]

"""Ingestion policies, fault accounting and quarantine sidecars.

The RIB1 reader (:mod:`repro.ingest.binary`) funnels every malformed
record and damaged stream through one :class:`IngestReport`,
parameterized by policy:

* ``strict`` — the first fault raises a typed error from the taxonomy
  in :mod:`repro.errors` (:class:`~repro.errors.TraceFormatError` for
  malformed records, :class:`~repro.errors.TraceTruncatedError` for
  streams cut short, :class:`~repro.errors.TraceChecksumError` for a
  failed footer digest), each with its own CLI exit code;
* ``lenient`` — faults are counted and malformed records skipped, up
  to a bounded ``max_errors`` budget (:class:`~repro.errors.
  TraceBudgetError` beyond it — a stream that is mostly garbage is the
  wrong file, not a blemish);
* ``quarantine`` — lenient, plus every skipped raw record is appended
  to a ``.quarantine`` JSONL sidecar (offset, index, reason, raw bytes
  hex) so the malformed input can be inspected after the run.

A fault either drops a record (a malformed or torn record) or drops
none (a stale footer digest, a missing footer, a stream that ends at a
record boundary short of the header's count).  Every fault counts in
``fault_counts`` and against the budget; only dropped records enter
``skipped_indices``.  That list is the single source of truth for the
lenient-mode contract the input-fault tests prove: it names *exactly*
the records that were dropped, so a clean trace minus those indices
must be bit-identical to the faulted trace's surviving records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import (
    ConfigurationError,
    TraceBudgetError,
    TraceChecksumError,
    TraceFormatError,
    TraceTruncatedError,
)

STRICT = "strict"
LENIENT = "lenient"
QUARANTINE = "quarantine"

POLICIES = (STRICT, LENIENT, QUARANTINE)

#: Fault kinds recorded by the readers (``IngestReport.fault_counts``).
FORMAT = "format"
TRUNCATED = "truncated"
CHECKSUM = "checksum"

#: Default malformed-record budget for lenient/quarantine ingestion.
DEFAULT_MAX_ERRORS = 1_000

#: Quarantined raw records larger than this are clipped in the sidecar.
_RAW_CLIP = 512


def validate_policy(policy: str) -> str:
    """Return ``policy`` or raise :class:`ConfigurationError`."""
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown ingestion policy {policy!r}; expected one of {POLICIES}"
        )
    return policy


@dataclass
class IngestFault:
    """One malformed record or damaged stream section."""

    kind: str        # FORMAT / TRUNCATED / CHECKSUM
    index: int       # record index in the input stream (0-based)
    offset: int      # byte offset of the faulted bytes in the file
    reason: str
    raw: bytes = b""

    def to_dict(self) -> dict:
        """JSONL row written to the quarantine sidecar."""
        return {
            "kind": self.kind,
            "index": self.index,
            "offset": self.offset,
            "reason": self.reason,
            "raw_hex": self.raw[:_RAW_CLIP].hex(),
            "raw_clipped": len(self.raw) > _RAW_CLIP,
        }


class QuarantineWriter:
    """Append-only JSONL sidecar of quarantined raw records."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.written = 0
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, fault: IngestFault) -> None:
        """Append one quarantined fault as a compact JSON line."""
        self._fh.write(json.dumps(fault.to_dict(), sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self.written += 1

    def close(self) -> None:
        """Flush and close the sidecar file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "QuarantineWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_quarantine(path: str) -> list[dict]:
    """Read a quarantine sidecar back as a list of fault rows."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


@dataclass
class IngestReport:
    """Accounting for one ingestion run (mutated by the reader).

    ``records`` counts the records emitted downstream;
    ``skipped_indices`` names the input-stream indices of every record
    the policy dropped — the exact set the input-fault contract
    subtracts from the clean trace.  ``fault_counts`` counts every
    fault by kind, including those that dropped no record.  ``faults``
    keeps the first :data:`MAX_KEPT_FAULTS` full fault descriptions
    (the sidecar keeps every dropped record under ``quarantine``).
    """

    MAX_KEPT_FAULTS = 64

    source: str
    policy: str
    max_errors: int = DEFAULT_MAX_ERRORS
    records: int = 0
    skipped_indices: list[int] = field(default_factory=list)
    fault_counts: dict[str, int] = field(default_factory=dict)
    faults: list[IngestFault] = field(default_factory=list)
    quarantine_path: str | None = None
    _writer: QuarantineWriter | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        validate_policy(self.policy)
        if self.max_errors < 0:
            raise ConfigurationError(
                f"max_errors must be >= 0, got {self.max_errors}"
            )

    @property
    def skipped(self) -> int:
        """Records dropped by the lenient/quarantine policy."""
        return len(self.skipped_indices)

    def attach_quarantine(self, path: str) -> None:
        """Open the ``.quarantine`` sidecar (quarantine policy only)."""
        self.quarantine_path = path
        self._writer = QuarantineWriter(path)

    def close(self) -> None:
        """Flush and close the quarantine sidecar, if open."""
        if self._writer is not None:
            self._writer.close()

    def fault(self, kind: str, index: int, offset: int, reason: str,
              raw: bytes = b"", *, dropped: bool = True) -> None:
        """Record one fault under the active policy.

        Under ``strict`` this raises the matching taxonomy error
        immediately; under ``lenient``/``quarantine`` it counts the
        fault and, when it ``dropped`` record ``index``, names (and
        optionally sidecars) that record, raising
        :class:`TraceBudgetError` once the budget is spent.
        """
        fault = IngestFault(kind=kind, index=index, offset=offset,
                            reason=reason, raw=raw)
        if self.policy == STRICT:
            raise self._error(fault, dropped)
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if dropped:
            self.skipped_indices.append(index)
            if self._writer is not None:
                self._writer.write(fault)
        if len(self.faults) < self.MAX_KEPT_FAULTS:
            self.faults.append(fault)
        total = sum(self.fault_counts.values())
        if total > self.max_errors:
            self.close()
            raise TraceBudgetError(
                f"{self.source}: {total} faults exceed the lenient "
                f"budget of {self.max_errors} (last: {reason})"
            )

    def _error(self, fault: IngestFault, dropped: bool):
        where = (f"record {fault.index} (byte {fault.offset})" if dropped
                 else f"byte {fault.offset}")
        message = f"{self.source}: {where}: {fault.reason}"
        if fault.kind == TRUNCATED:
            return TraceTruncatedError(message)
        if fault.kind == CHECKSUM:
            return TraceChecksumError(message)
        return TraceFormatError(message)

    def summary_rows(self) -> list[list]:
        """``[property, value]`` rows for the CLI summary table."""
        rows = [
            ["source", self.source],
            ["policy", self.policy],
            ["records ingested", self.records],
            ["records skipped", self.skipped],
        ]
        for kind in sorted(self.fault_counts):
            rows.append([f"faults ({kind})", self.fault_counts[kind]])
        if self.quarantine_path:
            rows.append(["quarantine sidecar", self.quarantine_path])
        return rows

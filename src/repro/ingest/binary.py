"""The RIB1 trace file: the one trace format the toolkit reads and writes.

A ChampSim-style packed-record format with just enough envelope to
make every damage mode *detectable*:

* **24-byte header** — magic ``RIB1``, format version, flags, and a
  ``uint64`` record count.  The writer stamps the count with a
  sentinel (:data:`COUNT_UNKNOWN`) while the stream is open and
  patches the real value at finalize, so a crash mid-write leaves an
  honestly-unfinished file rather than a silently short one.
* **28-byte records** — ``<BQQQBBx``: kind, ip, addr, cycle, dep and a
  fixed :data:`MARKER` byte.  The marker is the per-record canary: a
  record whose bytes were reversed (wrong endianness), shifted, or
  overwritten almost never lands the marker in the right place, so
  damaged records parse as *faults*, not as plausible garbage.
* **20-byte footer** — magic ``RIBF`` plus a 16-byte blake2b digest of
  the raw record bytes.  Bit rot anywhere in the payload fails the
  digest even when it happens to keep every marker intact.

The reader distinguishes the three taxonomy faults precisely: a
malformed record is ``format``, a stream that stops short of the
header's count (or mid-record, or before the footer, or on a failed
read) is ``truncated``, and a footer digest or footer-magic mismatch is
``checksum`` — each mapping to its own exit code under the strict
policy (:mod:`repro.errors`).  A damaged header (wrong magic, unknown
version, fewer than 24 bytes) raises its typed error under *every*
policy: the policy decides what happens to bad records, not whether a
file that is no RIB1 trace at all reads as an empty one.

Reading streams one record at a time, so the reader itself holds one
28-byte blob; :func:`ingest_binary` materializes the surviving records
as a :class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from collections.abc import Iterator

from repro.errors import (
    ConfigurationError,
    TraceError,
    TraceFormatError,
    TraceTruncatedError,
)
from repro.ingest.policies import (
    CHECKSUM,
    DEFAULT_MAX_ERRORS,
    FORMAT,
    IngestReport,
    QUARANTINE,
    STRICT,
    TRUNCATED,
)
from repro.sim.trace import BRANCH, LOAD, OTHER, STORE, Trace

MAGIC = b"RIB1"
FOOTER_MAGIC = b"RIBF"
VERSION = 1

#: Header count value while a writer is open (patched at finalize).
COUNT_UNKNOWN = (1 << 64) - 1

#: Per-record canary byte (see module docstring).
MARKER = 0xC3

_HEADER = struct.Struct("<4sBB2xQ8x")   # magic, version, flags, count
_RECORD = struct.Struct("<BQQQBBx")      # kind, ip, addr, cycle, dep, marker
_DIGEST_BYTES = 16
FOOTER_SIZE = len(FOOTER_MAGIC) + _DIGEST_BYTES

HEADER_SIZE = _HEADER.size
RECORD_SIZE = _RECORD.size

_VALID_KINDS = frozenset((OTHER, LOAD, STORE, BRANCH))


def _record_hasher():
    return hashlib.blake2b(digest_size=_DIGEST_BYTES)


def _open_source(source, label: str | None = None):
    """Open a trace source as a binary file object.

    ``source`` may be a filesystem path, raw ``bytes`` or a binary
    file object (taken as-is).  Returns ``(fh, label, file_name,
    owns)``: ``file_name`` is the file the source reads (``None`` for
    bytes and for file objects without a string ``name``), and
    ``owns`` says whether the caller should close ``fh``.
    """
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(bytes(source)), label or "<bytes>", None, True
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        return open(path, "rb"), label or path, path, True
    name = getattr(source, "name", None)
    file_name = name if isinstance(name, str) else None
    return (source, label or getattr(source, "name", "<stream>"),
            file_name, False)


class _Reader:
    """Offset-tracking exact reads; a failed read ends the stream.

    An ``OSError`` from the file is remembered in :attr:`error` and
    reads as end of stream, so the reader reports it as a *truncated*
    fault instead of a traceback.
    """

    def __init__(self, fh) -> None:
        self._fh = fh
        self.offset = 0
        self.error = ""

    def read(self, n: int) -> bytes:
        """Read ``n`` bytes (shorter only at end of stream or on error)."""
        parts = []
        while n and not self.error:
            try:
                block = self._fh.read(n)
            except OSError as error:
                self.error = f" (read failed: {error})"
                break
            if not block:
                break
            parts.append(block)
            n -= len(block)
        data = b"".join(parts)
        self.offset += len(data)
        return data


def _record_fault(kind: int, addr: int, dep: int, marker: int) -> str:
    """Why a decoded record is malformed ("" when it is valid)."""
    if marker != MARKER:
        return f"record marker 0x{marker:02x} != 0x{MARKER:02x}"
    if kind not in _VALID_KINDS:
        return f"unknown record kind {kind}"
    if dep not in (0, 1):
        return f"dep flag {dep} not in {{0, 1}}"
    if kind in (LOAD, STORE) and addr == 0:
        return "memory record with address 0"
    return ""


def iter_binary_wire(fh, report: IngestReport) -> Iterator[tuple]:
    """Yield the valid ``(kind, ip, addr, dep)`` records of a RIB1 file.

    ``fh`` is an open binary file.  Record and stream faults go through
    ``report`` under its policy; a header fault raises under every
    policy (see the module docstring).
    """
    reader = _Reader(fh)
    header = reader.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE:
        raise TraceTruncatedError(
            f"{report.source}: header cut short ({len(header)} of "
            f"{HEADER_SIZE} bytes){reader.error}")
    magic, version, _flags, count = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(
            f"{report.source}: not a RIB1 trace (magic {magic!r})")
    if version != VERSION:
        raise TraceFormatError(
            f"{report.source}: unsupported RIB1 version {version}")
    expected = None if count == COUNT_UNKNOWN else count
    if expected is None:
        # Unfinalized stream (writer crashed before finalize): the
        # payload is still readable greedily, but the file as a whole
        # is truncated by definition.
        report.fault(TRUNCATED, 0, HEADER_SIZE,
                     "unfinalized trace (sentinel record count)",
                     dropped=False)
    hasher = _record_hasher()
    index = 0
    while expected is None or index < expected:
        offset = reader.offset
        blob = reader.read(RECORD_SIZE)
        if blob and len(blob) < RECORD_SIZE:
            report.fault(TRUNCATED, index, offset,
                         f"torn record ({len(blob)} of {RECORD_SIZE} "
                         f"bytes){reader.error}", raw=blob)
            break
        if not blob:
            if expected is not None or reader.error:
                report.fault(TRUNCATED, index, offset,
                             f"stream ended at record {index} of "
                             f"{expected}{reader.error}", dropped=False)
            break
        hasher.update(blob)
        kind, ip, addr, _cycle, dep, marker = _RECORD.unpack(blob)
        reason = _record_fault(kind, addr, dep, marker)
        if reason:
            report.fault(FORMAT, index, offset, reason, raw=blob)
        else:
            report.records += 1
            yield kind, ip, addr, dep
        index += 1
    if expected is None:
        return
    offset = reader.offset
    footer = reader.read(FOOTER_SIZE)
    if len(footer) < FOOTER_SIZE:
        report.fault(TRUNCATED, index, offset,
                     f"footer cut short ({len(footer)} of {FOOTER_SIZE} "
                     f"bytes){reader.error}", raw=footer, dropped=False)
    elif footer[:4] != FOOTER_MAGIC:
        report.fault(CHECKSUM, index, offset,
                     f"bad footer magic {footer[:4]!r}", raw=footer,
                     dropped=False)
    elif footer[4:] != hasher.digest():
        report.fault(CHECKSUM, index, offset,
                     f"record digest mismatch (footer {footer[4:].hex()}, "
                     f"computed {hasher.hexdigest()})", dropped=False)


def ingest_binary(source, *, name: str | None = None, policy: str = STRICT,
                  max_errors: int = DEFAULT_MAX_ERRORS,
                  quarantine_path: str | None = None,
                  label: str | None = None) -> tuple[Trace, IngestReport]:
    """Read a RIB1 trace under an ingestion policy.

    Returns the surviving records as a :class:`Trace` (named ``name``,
    default the source label) and the :class:`IngestReport`.  Under
    ``quarantine`` the sidecar goes to ``quarantine_path``, by default
    ``<file name>.quarantine``; a source without a file name (bytes, or
    a file object with no ``name``) needs an explicit path and raises
    :class:`ConfigurationError` before reading without one.
    """
    fh, label, file_name, owns = _open_source(source, label)
    try:
        if policy == QUARANTINE and not quarantine_path:
            if file_name is None:
                raise ConfigurationError("quarantine of a source with no "
                                         "file name needs quarantine_path")
            quarantine_path = f"{file_name}.quarantine"
        report = IngestReport(source=label, policy=policy,
                              max_errors=max_errors)
        if policy == QUARANTINE:
            report.attach_quarantine(quarantine_path)
        try:
            records = tuple(iter_binary_wire(fh, report))
        finally:
            report.close()
    finally:
        if owns:
            fh.close()
    return Trace._from_records(records, name or label), report


class BinaryTraceWriter:
    """Streaming RIB1 writer.

    The header goes out immediately with the :data:`COUNT_UNKNOWN`
    sentinel; :meth:`finalize` appends the checksum footer and patches
    the real count.  A writer abandoned without ``finalize`` leaves a
    file the reader classifies as *truncated* — never as a shorter
    valid trace.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.count = 0
        self.finalized = False
        self._hasher = _record_hasher()
        self._fh = open(path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, COUNT_UNKNOWN))

    def append(self, record) -> None:
        """Append one ``(kind, ip, addr, dep)`` record."""
        if self.finalized:
            raise TraceError(f"{self.path}: writer already finalized")
        kind, ip, addr, dep = record
        blob = _RECORD.pack(kind, ip, addr, self.count, dep, MARKER)
        self._hasher.update(blob)
        self._fh.write(blob)
        self.count += 1

    def finalize(self) -> None:
        """Write the checksum footer and patch the header count."""
        if self.finalized:
            return
        self._fh.write(FOOTER_MAGIC + self._hasher.digest())
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(MAGIC, VERSION, 0, self.count))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self.finalized = True

    def close(self) -> None:
        """Close without finalizing (the file reads as truncated)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.close()


def write_binary(records, path: str) -> int:
    """Write records as a finalized RIB1 file; returns records written."""
    with BinaryTraceWriter(path) as writer:
        for record in records:
            writer.append(record)
    return writer.count

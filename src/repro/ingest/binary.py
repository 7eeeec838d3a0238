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

The reader raises the typed error of the first fault it meets, each
with its own exit code (:mod:`repro.errors`): a damaged header (wrong
magic or version) or a malformed record is a
:class:`~repro.errors.TraceFormatError`, a stream that stops short
(a header under 24 bytes, an unfinalized count, a torn record, fewer
records than the count, a missing footer, a failed read) a
:class:`~repro.errors.TraceTruncatedError`, and a footer digest or
footer-magic mismatch a :class:`~repro.errors.TraceChecksumError`.

Reading streams one record at a time, so the reader itself holds one
28-byte blob; :func:`ingest_binary` materializes the records as a
:class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from collections.abc import Iterator

from repro.errors import (
    ReproError,
    TraceChecksumError,
    TraceError,
    TraceFormatError,
    TraceTruncatedError,
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


def _open_source(source):
    """Open a trace source as a binary file object.

    ``source`` may be a filesystem path, raw ``bytes`` or a binary
    file object (taken as-is).  Returns ``(fh, label, owns)``: the
    label (the path, ``<bytes>`` or the file object's name) names the
    source in errors, and ``owns`` says whether the caller should
    close ``fh``.  A path that cannot be opened raises
    :class:`TraceError` naming it.
    """
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(bytes(source)), "<bytes>", True
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        try:
            fh = open(path, "rb")
        except OSError as error:
            raise TraceError(f"cannot open trace file {path!r}: "
                             f"{error.strerror}") from error
        return fh, path, True
    return source, getattr(source, "name", "<stream>"), False


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


def iter_binary_wire(fh, label: str) -> Iterator[tuple]:
    """Yield the ``(kind, ip, addr, dep)`` records of a RIB1 file.

    ``fh`` is an open binary file and ``label`` names it in error
    messages.  The first fault raises its typed error (see the module
    docstring); a record is yielded only after it parsed clean.
    """
    reader = _Reader(fh)
    header = reader.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE:
        raise TraceTruncatedError(
            f"{label}: header cut short ({len(header)} of "
            f"{HEADER_SIZE} bytes){reader.error}")
    magic, version, _flags, count = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(
            f"{label}: not a RIB1 trace (magic {magic!r})")
    if version != VERSION:
        raise TraceFormatError(
            f"{label}: unsupported RIB1 version {version}")
    if count == COUNT_UNKNOWN:
        # The writer crashed before finalize: the file is truncated by
        # definition, however many records it holds.
        raise TraceTruncatedError(
            f"{label}: byte {HEADER_SIZE}: unfinalized trace "
            f"(sentinel record count)")
    hasher = _record_hasher()
    for index in range(count):
        offset = reader.offset
        blob = reader.read(RECORD_SIZE)
        if blob and len(blob) < RECORD_SIZE:
            raise TraceTruncatedError(
                f"{label}: record {index} (byte {offset}): torn record "
                f"({len(blob)} of {RECORD_SIZE} bytes){reader.error}")
        if not blob:
            raise TraceTruncatedError(
                f"{label}: byte {offset}: stream ended at record {index} "
                f"of {count}{reader.error}")
        hasher.update(blob)
        kind, ip, addr, _cycle, dep, marker = _RECORD.unpack(blob)
        reason = _record_fault(kind, addr, dep, marker)
        if reason:
            raise TraceFormatError(
                f"{label}: record {index} (byte {offset}): {reason}")
        yield kind, ip, addr, dep
    offset = reader.offset
    footer = reader.read(FOOTER_SIZE)
    if len(footer) < FOOTER_SIZE:
        raise TraceTruncatedError(
            f"{label}: byte {offset}: footer cut short ({len(footer)} of "
            f"{FOOTER_SIZE} bytes){reader.error}")
    if footer[:4] != FOOTER_MAGIC:
        raise TraceChecksumError(
            f"{label}: byte {offset}: bad footer magic {footer[:4]!r}")
    if footer[4:] != hasher.digest():
        raise TraceChecksumError(
            f"{label}: byte {offset}: record digest mismatch (footer "
            f"{footer[4:].hex()}, computed {hasher.hexdigest()})")


def ingest_binary(source, *, name: str | None = None) -> Trace:
    """Read a RIB1 trace as a :class:`Trace`.

    ``source`` is a path, raw ``bytes`` or a binary file object; the
    trace is named ``name``, by default the path, ``<bytes>`` or the
    file object's name.  The first fault raises its typed error:
    format 14, truncated 15, checksum 16, and :class:`TraceError` (4)
    for a path that cannot be opened.
    """
    fh, label, owns = _open_source(source)
    try:
        records = tuple(iter_binary_wire(fh, label))
    finally:
        if owns:
            fh.close()
    return Trace._from_records(records, name or label)


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
        try:
            self._fh = open(path, "wb")
        except OSError as error:
            raise ReproError(f"cannot write trace file {path!r}: "
                             f"{error.strerror}") from error
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

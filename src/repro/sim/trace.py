"""Instruction trace format.

A trace is a sequence of ``(kind, ip, addr, dep)`` tuples — one per
retired instruction — where ``kind`` is one of the module-level
constants :data:`LOAD`, :data:`STORE`, :data:`BRANCH`, :data:`OTHER`;
``ip`` is the instruction pointer; ``addr`` the virtual byte address
touched (0 for non-memory instructions); and ``dep`` is 1 when the
instruction consumes the value of the most recent load (it cannot
execute before that load's data returns).  The ``dep`` bit is how the
trace expresses *memory-level parallelism*: streaming code has
independent loads (high MLP), pointer chasing sets ``dep`` on every
load (serialised misses) — the distinction that separates lbm from mcf
in the paper's evaluation.  Three-element records are accepted and
normalised with ``dep = 0``.  Plain tuples rather than objects keep the
inner simulation loop fast.

:class:`Trace` wraps an immutable tuple of records with a name and
supports slicing, replay (cyclic iteration, used when multicore mixes
replay short benchmarks) and a memoized columnar decode.  Trace files
on disk use the RIB1 format of :mod:`repro.ingest`.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TraceError

OTHER = 0
LOAD = 1
STORE = 2
BRANCH = 3

_KIND_NAMES = {OTHER: "other", LOAD: "load", STORE: "store", BRANCH: "branch"}

TraceRecord = tuple[int, int, int, int]  # (kind, ip, vaddr, dep)

# One packed record: the byte form repro.runner.job.trace_signature
# hashes, so changing it changes every cache key.
_RECORD = struct.Struct("<BQQB")


def normalize_record(record) -> TraceRecord:
    """Coerce a 3- or 4-element record into canonical 4-tuple form."""
    if len(record) == 3:
        kind, ip, addr = record
        return (kind, ip, addr, 0)
    if len(record) == 4:
        kind, ip, addr, dep = record
        return (kind, ip, addr, 1 if dep else 0)
    raise TraceError(f"record must have 3 or 4 fields, got {record!r}")


def validate_record(record: TraceRecord) -> None:
    """Raise :class:`TraceError` if a record is malformed."""
    if len(record) != 4:
        raise TraceError(f"record must have 4 fields, got {record!r}")
    kind, ip, addr, dep = record
    if kind not in _KIND_NAMES:
        raise TraceError(f"unknown record kind {kind}")
    if ip < 0 or addr < 0:
        raise TraceError(f"negative ip/addr in record {record}")
    if kind in (LOAD, STORE) and addr == 0:
        raise TraceError("memory record with address 0")
    if dep not in (0, 1):
        raise TraceError(f"dep flag must be 0 or 1, got {dep}")


class TraceColumns:
    """Columnar (structure-of-arrays) decode of a :class:`Trace`.

    One NumPy array per record field — ``kind``/``dep`` as ``uint8``,
    ``ip``/``addr`` as ``uint64`` — plus the precomputed address-geometry
    columns the batched engine consumes (``line``, ``page``, ``offset``,
    ``is_load``) and ``events``, the indices of all non-OTHER records
    (the only records that can touch the memory system or the branch
    predictor).  Per-cache ``set``/``tag`` columns depend on the cache
    geometry, so they are derived on demand via :meth:`set_tag` and
    memoized per ``set_bits``.

    Instances are immutable snapshots: they are built once per
    :class:`Trace` by :meth:`Trace.columns` and shared by every
    simulation over that trace.
    """

    def __init__(self, records: Sequence[TraceRecord]) -> None:
        n = len(records)
        if n:
            kinds, ips, addrs, deps = zip(*records)
        else:
            kinds = ips = addrs = deps = ()
        try:
            self.kind = np.fromiter(kinds, dtype=np.uint8, count=n)
            self.ip = np.fromiter(ips, dtype=np.uint64, count=n)
            self.addr = np.fromiter(addrs, dtype=np.uint64, count=n)
            self.dep = np.fromiter(deps, dtype=np.uint8, count=n)
        except (OverflowError, ValueError) as error:
            raise TraceError(
                f"trace field does not fit the columnar uint64/uint8 "
                f"layout: {error}"
            ) from None
        self.is_load = self.kind == LOAD
        self.line = self.addr >> np.uint64(6)
        self.page = self.addr >> np.uint64(12)
        self.offset = self.line & np.uint64(63)
        self.events = np.flatnonzero(self.kind != OTHER)
        self._kind_bytes: bytes | None = None
        self._dep_bytes: bytes | None = None
        self._set_tag: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._event_columns: dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def kind_bytes(self) -> bytes:
        """The kind column as ``bytes`` (O(1) scalar indexing in loops)."""
        if self._kind_bytes is None:
            self._kind_bytes = self.kind.tobytes()
        return self._kind_bytes

    @property
    def dep_bytes(self) -> bytes:
        """The dep column as ``bytes`` (O(1) scalar indexing in loops)."""
        if self._dep_bytes is None:
            self._dep_bytes = self.dep.tobytes()
        return self._dep_bytes

    def set_tag(self, set_bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-cache ``(set, tag)`` columns for a ``2**set_bits``-set cache."""
        cached = self._set_tag.get(set_bits)
        if cached is None:
            mask = np.uint64((1 << set_bits) - 1)
            cached = (self.line & mask, self.line >> np.uint64(set_bits))
            self._set_tag[set_bits] = cached
        return cached

    def event_columns(self) -> dict[str, np.ndarray]:
        """Record fields gathered down to the non-OTHER ``events`` rows.

        Returns ``{"index", "kind", "ip", "addr", "dep"}`` arrays, all
        aligned with :attr:`events`; memoized after the first call.
        """
        if self._event_columns is None:
            ev = self.events
            self._event_columns = {
                "index": ev,
                "kind": self.kind[ev],
                "ip": self.ip[ev],
                "addr": self.addr[ev],
                "dep": self.dep[ev],
            }
        return self._event_columns


class Trace(Sequence[TraceRecord]):
    """A named, indexable, immutable instruction trace.

    The canonical records are one tuple, :attr:`records`, which job
    specs and pool workers share instead of copying.  :meth:`columns`
    exposes a memoized columnar (NumPy) decode used by the batched
    engine; slicing produces a fresh :class:`Trace`, so a slice never
    aliases a stale columnar cache.
    """

    def __init__(self, records: Iterable, name: str = "trace") -> None:
        # Records already in canonical form (4-tuples with an int dep
        # bit) are kept as-is: normalization then costs one type check
        # per record at construction instead of a tuple rebuild, and —
        # more importantly — warm-up/ROI slices taken on every simulate
        # call skip it entirely via _from_records.
        self._records: tuple[TraceRecord, ...] = tuple([
            r if type(r) is tuple and len(r) == 4
            and type(r[3]) is int and 0 <= r[3] <= 1
            else normalize_record(r)
            for r in records
        ])
        self.name = name

    @classmethod
    def _from_records(cls, records: tuple[TraceRecord, ...],
                      name: str) -> "Trace":
        """Internal constructor for an already-canonical record tuple.

        The tuple is kept, not copied or checked: builders, the RIB1
        reader and job specs hand over records that are canonical by
        construction.
        """
        trace = cls.__new__(cls)
        trace._records = records
        trace.name = name
        return trace

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """The canonical ``(kind, ip, addr, dep)`` records, as one tuple."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace._from_records(self._records[index], self.name)
        return self._records[index]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def columns(self) -> TraceColumns:
        """The columnar decode of this trace, built once and memoized.

        The cache lives on the instance and slices always construct a
        new :class:`Trace` (see ``__getitem__``), so a slice re-decodes
        instead of aliasing its parent's arrays.  Raises
        :class:`TraceError` when a field does not fit ``uint64``.
        """
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = TraceColumns(self._records)
            self.__dict__["_columns"] = cached
        return cached

    def replay(self) -> Iterator[TraceRecord]:
        """Iterate the trace forever, wrapping around at the end."""
        if not self._records:
            raise TraceError(f"cannot replay empty trace {self.name!r}")
        while True:
            yield from self._records

    @property
    def memory_records(self) -> int:
        """Number of load/store records."""
        return sum(1 for kind, _, _, _ in self._records if kind in (LOAD, STORE))

    @property
    def load_records(self) -> int:
        """Number of load records."""
        return sum(1 for kind, _, _, _ in self._records if kind == LOAD)

    def footprint_lines(self) -> int:
        """Distinct 64 B cache lines touched by the trace."""
        return len({addr >> 6 for kind, _, addr, _ in self._records
                    if kind in (LOAD, STORE)})

    def validate(self) -> None:
        """Check every record; raises :class:`TraceError` on the first bad one."""
        for record in self._records:
            validate_record(record)

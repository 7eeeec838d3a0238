"""IPCP at the L2: metadata-driven multi-level prefetching (Section V).

The L2 never trains its own classifier — the L1 access stream is
unrecoverable at the L2 once L1 prefetches jumble it.  Instead, every
L1 prefetch arriving at the L2 carries the 9-bit class metadata; the L2
decodes it into a 64-entry bookkeeping IP table (19 bits per entry:
IP tag, valid, 2-bit class, 7-bit stride/direction).  On *demand*
accesses the L2 replays the recorded class deeper — degree 4 for CS and
GS, using the L2's larger PQ (16) and MSHR (32).  CPLX is never
replayed at the L2 (the paper found it hurts).  NL-class arrivals
trigger an immediate next-line prefetch, gated by an L2 MPKI
threshold of 40.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metadata import MetaClass, decode_metadata
from repro.core.ipcp_l1 import PfClass
from repro.errors import ConfigurationError
from repro.params import LINES_PER_PAGE
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)

# Table I: IP table (19 b x 64) + tentative-NL bit + 10 b miss counter
# + 10 b instruction counter = 1237 bits.
L2_STORAGE_BITS = 1237


@dataclass
class L2IpEntry:
    """Bookkeeping entry decoded from L1 metadata."""

    tag: int = 0
    valid: bool = False
    meta_class: MetaClass = MetaClass.NONE
    stride: int = 0


class IpcpL2(Prefetcher):
    """The metadata consumer at the L2."""

    def __init__(
        self,
        entries: int = 64,
        cs_degree: int = 4,
        gs_degree: int = 4,
        nl_mpki_threshold: float = 40.0,
    ) -> None:
        super().__init__(name="ipcp_l2", storage_bits=L2_STORAGE_BITS)
        if entries < 1 or cs_degree < 1 or gs_degree < 1:
            raise ConfigurationError("IpcpL2 sizes/degrees must be >= 1")
        self.entries = entries
        self.cs_degree = cs_degree
        self.gs_degree = gs_degree
        self.nl_mpki_threshold = nl_mpki_threshold
        self._index_mask = entries - 1
        self._tag_mask = (1 << 9) - 1
        self._table = [L2IpEntry() for _ in range(entries)]

    def _split(self, ip: int) -> tuple[int, int]:
        index = ip & self._index_mask
        tag = (ip >> self.entries.bit_length() - 1) & self._tag_mask
        return index, tag

    def batch_state(self) -> dict | None:
        """Live state handles for the batched engine (base-class hook).

        Exposes the bookkeeping IP table (plus its index/tag geometry
        and replay knobs) as direct references so
        :mod:`repro.sim.batched` can decode metadata and replay classes
        in place.
        """
        return {
            "table": self._table,
            "index_mask": self._index_mask,
            "tag_shift": self.entries.bit_length() - 1,
            "tag_mask": self._tag_mask,
            "cs_degree": self.cs_degree,
            "gs_degree": self.gs_degree,
            "nl_mpki_threshold": self.nl_mpki_threshold,
        }

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Replay the L1's classification from the metadata packet.

        The L2 does not re-train: it decodes the 9-bit class/stride
        metadata riding on each L1 prefetch and issues deeper requests
        along the same pattern.
        """
        if ctx.kind == AccessType.PREFETCH:
            return self._on_prefetch_arrival(ctx)
        return self._on_demand(ctx)

    def _on_prefetch_arrival(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Decode L1 metadata; extend the pattern deeper from the L2.

        This is the paper's "prefetch deep based on the L1 access
        stream but from L2 and till L2": every L1 prefetch request
        reaching the L2 both updates the bookkeeping table and pushes
        the recorded CS/GS pattern ``degree`` lines further ahead.
        """
        meta_class, stride = decode_metadata(ctx.metadata)
        index, tag = self._split(ctx.ip)
        entry = self._table[index]
        entry.tag = tag
        entry.valid = True
        entry.meta_class = meta_class
        entry.stride = stride
        self.bump(f"decoded_{meta_class.name.lower()}")
        line = ctx.addr >> 6
        if meta_class is MetaClass.CS and stride != 0:
            deltas = [stride * k for k in range(1, self.cs_degree + 1)]
            return self._emit(line, deltas, PfClass.CS)
        if meta_class is MetaClass.GS and stride != 0:
            direction = 1 if stride > 0 else -1
            deltas = [direction * k for k in range(1, self.gs_degree + 1)]
            return self._emit(line, deltas, PfClass.GS)
        if meta_class is MetaClass.NL and ctx.mpki < self.nl_mpki_threshold:
            return self._emit(line, [1], PfClass.NL)
        return []

    def _on_demand(self, ctx: AccessContext) -> list[PrefetchRequest]:
        index, tag = self._split(ctx.ip)
        entry = self._table[index]
        line = ctx.addr >> 6
        if entry.valid and entry.tag == tag:
            if entry.meta_class is MetaClass.CS and entry.stride != 0:
                deltas = [entry.stride * k for k in range(1, self.cs_degree + 1)]
                return self._emit(line, deltas, PfClass.CS)
            if entry.meta_class is MetaClass.GS and entry.stride != 0:
                direction = 1 if entry.stride > 0 else -1
                deltas = [direction * k for k in range(1, self.gs_degree + 1)]
                return self._emit(line, deltas, PfClass.GS)
        if ctx.mpki < self.nl_mpki_threshold:
            return self._emit(line, [1], PfClass.NL)
        return []

    def _emit(
        self, line: int, deltas: list[int], pf_class: PfClass
    ) -> list[PrefetchRequest]:
        page = line // LINES_PER_PAGE
        requests = []
        for delta in deltas:
            target = line + delta
            if target // LINES_PER_PAGE != page or target < 0:
                continue
            requests.append(PrefetchRequest(addr=target << 6, pf_class=int(pf_class)))
        return requests

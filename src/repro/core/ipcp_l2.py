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

from repro.core.ip_table import SIGNATURE_MASK
from repro.core.ipcp_l1 import PfClass
from repro.core.metadata import MetaClass
from repro.errors import ConfigurationError
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)

# Table I: IP table (19 b x 64) + tentative-NL bit + 10 b miss counter
# + 10 b instruction counter = 1237 bits.
L2_STORAGE_BITS = 1237

_PREFETCH = AccessType.PREFETCH
_CS, _GS, _NL = int(PfClass.CS), int(PfClass.GS), int(PfClass.NL)
_META_CS, _META_GS, _META_NL = MetaClass.CS, MetaClass.GS, MetaClass.NL
# By the metadata's 2-bit class field.
_META_CLASSES = tuple(MetaClass)
_DECODED_COUNTERS = tuple(f"decoded_{c.name.lower()}" for c in MetaClass)
# ``_new_request(PrefetchRequest, fields)`` builds the named tuple
# without its Python-level ``__new__`` (one frame less per request).
_new_request = tuple.__new__


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
        if entries & (entries - 1):
            # Direct-mapped with ``entries - 1`` as the index mask.
            raise ConfigurationError(
                f"IpcpL2 entries must be a power of two, got {entries}")
        self.entries = entries
        self.cs_degree = cs_degree
        self.gs_degree = gs_degree
        self.nl_mpki_threshold = nl_mpki_threshold
        self._index_mask = entries - 1
        self._tag_shift = entries.bit_length() - 1
        self._tag_mask = (1 << 9) - 1
        self._table = [L2IpEntry() for _ in range(entries)]

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
            "tag_shift": self._tag_shift,
            "tag_mask": self._tag_mask,
            "cs_degree": self.cs_degree,
            "gs_degree": self.gs_degree,
            "nl_mpki_threshold": self.nl_mpki_threshold,
        }

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Replay the L1's classification from the metadata packet.

        The L2 does not re-train.  Every L1 prefetch reaching the L2
        updates the bookkeeping entry of its IP from the 9-bit
        class/stride packet (``decode_metadata``, inline) and pushes
        the recorded CS/GS pattern ``degree`` lines further ahead: the
        paper's "prefetch deep based on the L1 access stream but from
        L2 and till L2".  A demand access replays its IP's recorded CS
        or GS pattern; any other demand gets a next-line prefetch while
        the L2 MPKI is under the threshold.  One frame per access.
        """
        ip, addr, _, kind, _, metadata, mpki = ctx
        entry = self._table[ip & self._index_mask]
        tag = (ip >> self._tag_shift) & self._tag_mask
        if kind == _PREFETCH:
            class_bits = (metadata >> 7) & 0x3
            raw = metadata & SIGNATURE_MASK
            stride = raw - 128 if raw >= 64 else raw  # 7-bit two's complement
            entry.tag = tag
            entry.valid = True
            entry.meta_class = meta_class = _META_CLASSES[class_bits]
            entry.stride = stride
            counter = _DECODED_COUNTERS[class_bits]
            stats = self.stats
            stats[counter] = stats.get(counter, 0) + 1
        elif entry.valid and entry.tag == tag:
            meta_class = entry.meta_class
            stride = entry.stride
        else:
            meta_class = None
        if meta_class is _META_CS and stride:
            step, degree, pf_class = stride, self.cs_degree, _CS
        elif meta_class is _META_GS and stride:
            step = 1 if stride > 0 else -1
            degree, pf_class = self.gs_degree, _GS
        elif (kind != _PREFETCH or meta_class is _META_NL) \
                and mpki < self.nl_mpki_threshold:
            step, degree, pf_class = 1, 1, _NL
        else:
            return []
        line = addr >> 6
        page = line >> 6
        requests = []
        for target in range(line + step, line + step * (degree + 1), step):
            if target >> 6 != page or target < 0:
                continue
            requests.append(_new_request(
                PrefetchRequest, (target << 6, True, 0, pf_class)))
        return requests

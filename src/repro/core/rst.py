"""Region Stream Table (RST) for the GS class (Fig. 4).

The GS class detects *global streams*: bursty, near-contiguous accesses
within a 2 KB region coming from many IPs.  The 8-entry LRU RST tracks,
per region, a 32-bit line bit-vector (density), a saturating direction
counter (initialised to the midpoint; positive deltas increment,
negative decrement) and three state bits:

* ``trained``   — >= 75% of the region's 32 lines were touched;
* ``tentative`` — the region was promoted because the same IP's
  *previous* region trained dense (control flow predicts data flow),
  letting prefetching start before this region itself trains;
* ``dense``     — running density flag.

When a demand access lands in a region whose trained or tentative bit
is set, the accessing IP is classified GS with the region's direction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import LINES_PER_REGION

GS_TRAIN_THRESHOLD = int(LINES_PER_REGION * 0.75)  # 24 of 32 lines
DIRECTION_BITS = 6
DIRECTION_MID = 1 << (DIRECTION_BITS - 1)  # counter starts at 2^n / 2
DIRECTION_MAX = (1 << DIRECTION_BITS) - 1


@dataclass
class RstEntry:
    """Per-region tracking state (53 bits in hardware, Table I)."""

    region: int = 0
    bit_vector: int = 0
    last_line_offset: int = 0  # 5 bits: 0..31 within the region
    pos_neg_count: int = DIRECTION_MID
    dense: bool = False
    trained: bool = False
    tentative: bool = False
    direction: int = 1

    @property
    def touched_lines(self) -> int:
        """Population count of the line bit-vector."""
        return bin(self.bit_vector).count("1")


class Rst:
    """8-entry LRU region stream table.

    The table owns the entries, in LRU order;
    :meth:`repro.core.ipcp_l1.IpcpL1.on_access` applies the same rule as
    :meth:`observe` inline, in one frame per demand access.
    """

    def __init__(self, entries: int = 8) -> None:
        self.entries = entries
        self._table: dict[int, RstEntry] = {}  # insertion order = LRU order

    def lookup(self, region: int) -> RstEntry | None:
        """Return the entry tracking ``region``, refreshing its LRU slot."""
        entry = self._table.get(region)
        if entry is not None:
            self._table.pop(region)
            self._table[region] = entry
        return entry

    def allocate(self, region: int, tentative: bool) -> RstEntry:
        """Allocate (evicting LRU if needed) an entry for a new region."""
        if len(self._table) >= self.entries:
            oldest = next(iter(self._table))
            del self._table[oldest]
        entry = RstEntry(region=region, tentative=tentative)
        self._table[region] = entry
        return entry

    def observe(self, region: int, line_offset: int, previous_region: int | None
                ) -> RstEntry:
        """Record one demand access at ``line_offset`` of ``region``.

        ``previous_region`` is the region this access's IP touched last;
        if that region already trained dense, the fresh region starts
        tentative (the paper's control-flow-predicted-data-flow hook).
        Returns the (possibly new) entry after updating density and
        direction state.
        """
        entry = self.lookup(region)
        if entry is None:
            tentative = False
            if previous_region is not None and previous_region != region:
                prev = self._table.get(previous_region)
                tentative = prev is not None and prev.trained
            entry = self.allocate(region, tentative)
            entry.last_line_offset = line_offset

        bit = 1 << line_offset
        if not entry.bit_vector & bit:
            entry.bit_vector |= bit
            if entry.touched_lines >= GS_TRAIN_THRESHOLD:
                entry.trained = True
                entry.dense = True

        delta = line_offset - entry.last_line_offset
        if delta > 0:
            entry.pos_neg_count = min(DIRECTION_MAX, entry.pos_neg_count + 1)
        elif delta < 0:
            entry.pos_neg_count = max(0, entry.pos_neg_count - 1)
        entry.direction = 1 if entry.pos_neg_count >= DIRECTION_MID else -1
        entry.last_line_offset = line_offset
        return entry

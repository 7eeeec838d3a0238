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


class Rst:
    """8-entry LRU region stream table.

    Holds the entries, keyed by region in LRU order (insertion order,
    oldest first).  The rules over them — allocation with LRU eviction,
    tentative promotion, density training at
    :data:`GS_TRAIN_THRESHOLD` lines and the direction counter — are
    applied by :meth:`repro.core.ipcp_l1.IpcpL1.on_access` (which the
    fused kernel of :mod:`repro.sim.batched` replays bit for bit) and
    stated independently by
    :class:`repro.verify.oracles.OracleGsClassifier`, which the
    lockstep differ diffs against it.
    """

    def __init__(self, entries: int = 8) -> None:
        self.entries = entries
        self._table: dict[int, RstEntry] = {}  # insertion order = LRU order

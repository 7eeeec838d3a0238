"""The shared, direct-mapped IP table at the heart of IPCP (Fig. 5).

One 64-entry table serves all three classes: the IP-tag, valid bit,
last virtual page (2 LSBs) and last line-offset fields are shared; the
CS class adds a 7-bit stride and 2-bit confidence, the GS class a
stream-valid and direction bit, and the CPLX class a 7-bit stride
signature.

Collisions between IPs mapping to the same entry are resolved with the
paper's *hysteresis* scheme: the first time a different IP-tag arrives
the valid bit is merely cleared (the incumbent stays); only if the entry
is already invalid does the newcomer take over.  This guarantees at
least one of two competing IPs keeps training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.params import LINES_PER_PAGE, page_of, page_offset_line

STRIDE_MAX = 63  # 7-bit signed stride field saturates at +63 ...
STRIDE_MIN = -63  # ... and symmetrically at -63 (never the wire's -64)
SIGNATURE_MASK = 0x7F  # 7-bit CPLX signature


def clamp_stride(stride: int) -> int:
    """Saturate a line stride into the 7-bit signed hardware field.

    The wire format is two's complement, so it *can* represent -64, but
    the saturation range is deliberately the symmetric [-63, +63]:

    * a +-64-line stride always leaves the trigger's 4 KB page (64
      lines), so no prefetch a -64 stride could describe would ever be
      issued — the asymmetric extreme buys nothing;
    * symmetric saturation keeps negation closed (``clamp(-s) ==
      -clamp(s)``), so CS confidence duels and the CSPT signature hash
      treat forward and backward walks of the same loop identically.

    :func:`repro.core.metadata.decode_metadata` still decodes a raw
    0x40 field as -64 (the wire meaning), but no encoder produces it.
    """
    return max(STRIDE_MIN, min(STRIDE_MAX, stride))


@dataclass
class IpEntry:
    """One IP-table entry; field widths follow Fig. 5 / Table I."""

    tag: int = 0
    valid: bool = False
    last_vpage: int = 0  # 2 LSBs of the virtual page
    last_line_offset: int = 0  # 0..63 within the page
    stride: int = 0  # CS: 7-bit signed constant stride
    confidence: int = 0  # CS: 2-bit saturating counter
    stream_valid: bool = False  # GS
    direction: int = 1  # GS: +1 / -1
    signature: int = 0  # CPLX: 7-bit stride signature
    # Simulation-only shadow (not counted in storage): the full last line
    # address, used to find the IP's previous 2 KB region for the GS
    # tentative-promotion check without re-deriving it from partial bits.
    last_line: int = field(default=0, repr=False)
    seen_once: bool = field(default=False, repr=False)


class IpTable:
    """64-entry direct-mapped, tagged IP table with hysteresis.

    The table owns the entries; :meth:`repro.core.ipcp_l1.IpcpL1.on_access`
    applies the same rules as :meth:`access`, :meth:`compute_stride` and
    :meth:`record_access` inline, in one frame per demand access.
    """

    def __init__(self, entries: int = 64, tag_bits: int = 9) -> None:
        self.entries = entries
        self.tag_bits = tag_bits
        self._index_mask = entries - 1
        self._tag_shift = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._table = [IpEntry() for _ in range(entries)]

    def _split(self, ip: int) -> tuple[int, int]:
        index = ip & self._index_mask
        tag = (ip >> self._tag_shift) & self._tag_mask
        return index, tag

    def lookup(self, ip: int) -> IpEntry | None:
        """Return the entry for ``ip`` if it currently owns its slot."""
        index, tag = self._split(ip)
        entry = self._table[index]
        if entry.seen_once and entry.tag == tag:
            return entry
        return None

    def access(self, ip: int) -> IpEntry | None:
        """Look up ``ip``, applying the hysteresis replacement rule.

        Returns the entry when ``ip`` owns (or takes over) the slot, or
        None when a competing IP holds the slot with its valid bit set
        (the newcomer only clears the bit this time).
        """
        index, tag = self._split(ip)
        entry = self._table[index]
        if entry.seen_once and entry.tag == tag:
            entry.valid = True
            return entry
        if entry.valid:
            entry.valid = False  # hysteresis: incumbent survives one challenge
            return None
        # Take over the slot for the new IP.
        self._table[index] = IpEntry(tag=tag, valid=True, seen_once=True)
        return self._table[index]

    def compute_stride(self, entry: IpEntry, vaddr: int) -> int:
        """Line stride between this access and the entry's previous one.

        Handles the page-change case the paper describes: a +1 page
        change with offsets 63 -> 0 yields (0 - 63) + 64 = stride 1.
        Detection uses the 2 LSBs of the virtual page, so contiguous
        forward/backward page walks are recognised.
        """
        cur_offset = page_offset_line(vaddr)
        cur_vpage = page_of(vaddr) & 0x3
        last_offset = entry.last_line_offset
        stride = cur_offset - last_offset
        if cur_vpage != entry.last_vpage:
            delta = (cur_vpage - entry.last_vpage) & 0x3
            if delta == 1:  # next page
                stride += LINES_PER_PAGE
            elif delta == 3:  # previous page
                stride -= LINES_PER_PAGE
            else:
                stride = 0  # jumped pages: no meaningful stride
        return clamp_stride(stride)

    def record_access(self, entry: IpEntry, vaddr: int) -> None:
        """Update the shared last-page/last-offset fields after training."""
        entry.last_vpage = page_of(vaddr) & 0x3
        entry.last_line_offset = page_offset_line(vaddr)
        entry.last_line = vaddr >> 6

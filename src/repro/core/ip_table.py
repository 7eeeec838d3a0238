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

    Holds the entries and the index/tag geometry (index = ``ip &
    (entries - 1)``, tag = the ``tag_bits`` above the index).  The
    rules over the entries — the hysteresis duel, the page-aware line
    stride and the last-access fields — are applied by
    :meth:`repro.core.ipcp_l1.IpcpL1.on_access` (which the fused kernel
    of :mod:`repro.sim.batched` replays bit for bit) and stated
    independently by :class:`repro.verify.oracles.OracleIpTable` and
    :class:`repro.verify.oracles.OracleCsClassifier`, which the
    lockstep differ diffs against it.
    """

    def __init__(self, entries: int = 64, tag_bits: int = 9) -> None:
        self.entries = entries
        self.tag_bits = tag_bits
        self._index_mask = entries - 1
        self._tag_shift = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._table = [IpEntry() for _ in range(entries)]

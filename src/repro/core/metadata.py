"""The 9-bit L1 -> L2 metadata packet (Section V, "Metadata Decoding").

Every prefetch IPCP issues from the L1 carries 9 bits on the otherwise
unused L1->L2 bus wires: a 2-bit class type and a 7-bit two's-complement
stride (for CS) or stream direction (for GS).  The IP itself is not in
the packet — the request's IP accompanies it anyway.
"""

from __future__ import annotations

from enum import IntEnum

from repro.core.ip_table import SIGNATURE_MASK, clamp_stride


class MetaClass(IntEnum):
    """2-bit class-type field: three classes plus "no class"."""

    NONE = 0
    CS = 1
    GS = 2
    NL = 3


def encode_metadata(meta_class: MetaClass, stride: int = 0) -> int:
    """Pack (class, stride/direction) into the 9-bit wire format.

    The stride saturates into the symmetric [-63, +63] range (see
    :func:`repro.core.ip_table.clamp_stride` for why -64 is excluded
    even though the two's-complement field can hold it), so
    ``decode_metadata(encode_metadata(c, s))`` round-trips exactly for
    every stride in that range and ``encode_metadata(c, -64) ==
    encode_metadata(c, -63)``.
    """
    stride = clamp_stride(stride)
    return (int(meta_class) << 7) | (stride & SIGNATURE_MASK)


def decode_metadata(packet: int) -> tuple[MetaClass, int]:
    """Unpack a 9-bit packet into (class, signed stride).

    :meth:`repro.core.ipcp_l2.IpcpL2.on_access` decodes with the same
    rule inline, as :meth:`repro.core.ipcp_l1.IpcpL1.on_access` encodes
    with the rule of :func:`encode_metadata`.
    """
    meta_class = MetaClass((packet >> 7) & 0x3)
    raw = packet & SIGNATURE_MASK
    stride = raw - 128 if raw >= 64 else raw  # 7-bit two's complement
    return meta_class, stride

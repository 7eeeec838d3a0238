"""Complex Stride Prediction Table (CSPT) for the CPLX class (Fig. 3).

The CPLX class handles per-IP stride sequences that are *locally*
complex (1,2,1,2,... or 3,3,4,3,3,4,...).  A 7-bit signature hashes the
last strides seen by an IP (``signature = (signature << 1) XOR
stride``); the 128-entry direct-mapped CSPT maps a signature to the
predicted next stride with a 2-bit confidence counter.  At prediction
time the signature is rolled forward through the table up to the
prefetch degree, producing a look-ahead chain of strides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ip_table import SIGNATURE_MASK, clamp_stride

CONFIDENCE_MAX = 3


def update_signature(signature: int, stride: int) -> int:
    """Fold a (7-bit two's complement) stride into the signature."""
    return ((signature << 1) ^ (stride & SIGNATURE_MASK)) & SIGNATURE_MASK


@dataclass
class CsptEntry:
    """Predicted next stride for one signature: 7-bit stride + 2-bit conf."""

    stride: int = 0
    confidence: int = 0


class Cspt:
    """128-entry direct-mapped complex stride prediction table.

    :meth:`repro.core.ipcp_l1.IpcpL1.on_access` calls :meth:`train` and
    :meth:`predict_chain` and rolls the signature with the rule of
    :func:`update_signature` inline.
    """

    def __init__(self, entries: int = 128) -> None:
        self.entries = entries
        self._mask = entries - 1
        self._table = [CsptEntry() for _ in range(entries)]

    def lookup(self, signature: int) -> CsptEntry:
        """Entry predicted by ``signature`` (direct-mapped, untagged)."""
        return self._table[signature & self._mask]

    def train(self, signature: int, observed_stride: int) -> None:
        """Confirm or weaken the prediction stored under ``signature``.

        Same stride seen again: confidence up.  Different stride:
        confidence down; when it hits zero the new stride takes over.
        """
        observed_stride = clamp_stride(observed_stride)
        entry = self.lookup(signature)
        if entry.stride == observed_stride and observed_stride != 0:
            entry.confidence = min(CONFIDENCE_MAX, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            if entry.confidence == 0:
                entry.stride = observed_stride

    def predict_chain(self, signature: int, degree: int) -> list[int]:
        """Roll the signature forward, collecting confident strides.

        Returns the cumulative line deltas for up to ``degree``
        prefetches; stops at the first low-confidence or zero-stride
        prediction (the paper's step 3).
        """
        deltas = []
        offset = 0
        for _ in range(degree):
            entry = self.lookup(signature)
            if entry.confidence < 1 or entry.stride == 0:
                break
            offset += entry.stride
            deltas.append(offset)
            signature = update_signature(signature, entry.stride)
        return deltas

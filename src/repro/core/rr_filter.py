"""Recent-request (RR) filter.

The L1-D is bandwidth starved, so IPCP never probes the cache before
issuing a prefetch.  Instead a tiny 32-entry filter remembers the
partial tags of recently seen demand lines and recently generated
prefetch addresses; a prefetch whose line hits the filter is dropped,
since the block is almost certainly in the L1 or its MSHRs already.
"""

from __future__ import annotations

from collections import deque


class RrFilter:
    """32-entry FIFO of 12-bit partial line tags."""

    def __init__(self, entries: int = 32, tag_bits: int = 12) -> None:
        self.entries = entries
        self._tag_mask = (1 << tag_bits) - 1
        self._fifo: deque[int] = deque(maxlen=entries)

    def _tag(self, line: int) -> int:
        return (line ^ (line >> 12)) & self._tag_mask

    def insert(self, line: int) -> None:
        """Remember a line (demand access or generated prefetch)."""
        self._fifo.append(self._tag(line))

    def contains(self, line: int) -> bool:
        """Was an aliasing line seen recently? (Prefetch should be dropped.)"""
        return self._tag(line) in self._fifo

    def check_and_insert(self, line: int) -> bool:
        """Probe then record; True when the prefetch must be dropped."""
        tag = self._tag(line)
        if tag in self._fifo:
            return True
        self._fifo.append(tag)
        return False

    def __len__(self) -> int:
        return len(self._fifo)

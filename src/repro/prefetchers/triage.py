"""Triage / MISB-style on-chip temporal prefetcher (Wu et al., MICRO/ISCA
2019) — lite.

Triage's contribution over ISB is doing temporal prefetching *without*
off-chip metadata: the correlation table lives in a partition of the
LLC and is managed (sized, replaced) to fit.  Our lite model is an
ISB-style per-IP successor predictor with a deliberately small,
hit-rate-managed table: entries that keep predicting correctly are
protected, useless ones age out, and the table reports its own
confidence so low-value streams stop prefetching.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice

from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)

CONFIDENCE_MAX = 3


class TriagePrefetcher(Prefetcher):
    """Bounded on-chip temporal prefetcher with per-entry confidence."""

    def __init__(self, entries: int = 8_192, degree: int = 2) -> None:
        super().__init__(name="triage", storage_bits=entries * 72)
        self.entries = entries
        self.degree = degree
        # line -> [successor, confidence]
        self._table: OrderedDict[int, list] = OrderedDict()
        self._last_by_ip: OrderedDict[int, int] = OrderedDict()

    def _train(self, line: int, successor: int) -> None:
        entry = self._table.get(line)
        if entry is None:
            if len(self._table) >= self.entries:
                self._evict()
            self._table[line] = [successor, 1]
            return
        self._table.move_to_end(line)
        if entry[0] == successor:
            entry[1] = min(CONFIDENCE_MAX, entry[1] + 1)
        else:
            entry[1] -= 1
            if entry[1] <= 0:
                entry[0] = successor
                entry[1] = 1

    def _evict(self) -> None:
        # Prefer evicting a low-confidence entry among the 8 LRU ones
        # (pulling only those 8 keys, not the whole table).
        for key in list(islice(self._table, 8)):
            if self._table[key][1] <= 1:
                del self._table[key]
                return
        self._table.popitem(last=False)

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        if ctx.kind == AccessType.PREFETCH:
            return []
        line = ctx.addr >> 6
        last = self._last_by_ip.get(ctx.ip)
        if last is not None and last != line:
            self._train(last, line)
            self._last_by_ip.move_to_end(ctx.ip)
        elif last is None and len(self._last_by_ip) >= 64:
            self._last_by_ip.popitem(last=False)
        self._last_by_ip[ctx.ip] = line

        requests = []
        current = line
        seen = {line}
        for _ in range(self.degree):
            entry = self._table.get(current)
            if entry is None or entry[1] < 2 or entry[0] in seen:
                break
            requests.append(PrefetchRequest(addr=entry[0] << 6))
            seen.add(entry[0])
            current = entry[0]
        return requests

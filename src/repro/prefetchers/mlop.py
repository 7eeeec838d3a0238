"""Multi-Lookahead Offset Prefetcher (MLOP; Shakerinava et al., DPC-3).

MLOP generalises BOP: instead of one best offset it keeps an *access
map* of recently touched lines and scores every candidate offset at
several lookahead levels; at the end of each evaluation round it picks
the best offset *per lookahead*, so a single access can trigger a small
burst of prefetches at increasing distances (this is what gives MLOP
its timeliness edge over BOP in the paper's Fig. 7/8).

The access map is kept per 4 KB page as a bit-vector of touched lines
plus a coarse "age" (accesses since first touch); scoring asks, for
each offset d and lookahead level k: when line X was accessed, had
X - d been accessed between k and rounds ago?  We approximate the
published structure with a recency-stamped map, which preserves the
behaviour (offsets that predict accesses k steps ahead win level k).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.params import LINES_PER_PAGE
from repro.prefetchers.base import (
    AccessContext,
    AccessType,
    Prefetcher,
    PrefetchRequest,
)

OFFSET_RANGE = 16
ROUND_ACCESSES = 256
LOOKAHEADS = 3
SCORE_KEEP = 0.35  # fraction of the round an offset must score to win

# Score slots per lookahead level: offset d in -16..16 at d + 16 (the
# slot of offset 0 never scores).
_SLOTS = 2 * OFFSET_RANGE + 1
_PREFETCH = AccessType.PREFETCH
# ``_new_request(PrefetchRequest, fields)`` builds the named tuple
# without its Python-level ``__new__`` (one frame less per request).
_new_request = tuple.__new__


class MlopPrefetcher(Prefetcher):
    """Multi-lookahead offset prefetcher over per-page access maps."""

    def __init__(self, pages: int = 64) -> None:
        super().__init__(name="mlop", storage_bits=8 * 1024 * 8)  # ~8 KB (paper)
        self.pages = pages
        # page -> {line_offset: access sequence number}, in LRU order
        self._maps: OrderedDict[int, dict[int, int]] = OrderedDict()
        self._seq = 0
        self._scores = [[0] * _SLOTS for _ in range(LOOKAHEADS)]
        self._round = 0
        self._chosen: list[int] = [1]  # offsets, one per lookahead level

    def on_access(self, ctx: AccessContext) -> list[PrefetchRequest]:
        """Score the offsets this access confirms; prefetch the winners.

        One frame per access: the page map's LRU update, the scoring,
        the round close and the requests all run inline.
        """
        _, addr, _, kind, _, _, _ = ctx
        if kind == _PREFETCH:
            return []
        line = addr >> 6
        page = line // LINES_PER_PAGE
        offset_in_page = line % LINES_PER_PAGE
        maps = self._maps
        page_map = maps.get(page)
        if page_map is None:
            if len(maps) >= self.pages:
                maps.popitem(last=False)
            page_map = maps[page] = {}
        else:
            maps.move_to_end(page)

        seq = self._seq + 1
        self._seq = seq
        # An offset d that predicted this access (line X - d was
        # accessed ``distance`` steps ago) scores at every lookahead
        # level it can serve; ``distance`` is at least 1.  Only the
        # page's touched lines can be sources.  The LOOKAHEADS levels
        # are unrolled.
        first, second, third = self._scores
        for source, stamp in page_map.items():
            slot = offset_in_page - source + OFFSET_RANGE
            if 0 <= slot < _SLOTS and slot != OFFSET_RANGE:
                first[slot] += 1
                distance = seq - stamp
                if distance >= 2:
                    second[slot] += 1
                    if distance >= 3:
                        third[slot] += 1
        page_map[offset_in_page] = seq

        self._round += 1
        if self._round >= ROUND_ACCESSES:
            # Each level elects its best offset, the first in -16..16
            # order on a tie, if it scored enough of the round.
            chosen = []
            for scores in self._scores:
                best = max(scores)
                if best >= ROUND_ACCESSES * SCORE_KEEP:
                    chosen.append(scores.index(best) - OFFSET_RANGE)
            self._scores = [[0] * _SLOTS for _ in range(LOOKAHEADS)]
            self._chosen = chosen or [1]
            self._round = 0

        requests = []
        for level, offset in enumerate(self._chosen, start=1):
            target = line + offset * level
            if target < 0 or target // LINES_PER_PAGE != page:
                continue
            requests.append(_new_request(
                PrefetchRequest, (target << 6, True, 0, 0)))
        return requests

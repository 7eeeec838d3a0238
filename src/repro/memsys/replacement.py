"""Cache replacement policies.

Implements the policies used by the paper's sensitivity study
(Section VI-C): LRU (the default for all levels), SRRIP and DRRIP
re-reference interval prediction, a lightweight SHiP (signature-based
hit prediction) variant, and a deterministic pseudo-random policy.

A policy tracks per-(set, way) state and answers one question: which
way of a set should be evicted next.  The cache drives the policy
through three hooks: :meth:`ReplacementPolicy.on_fill`,
:meth:`ReplacementPolicy.on_hit` and :meth:`ReplacementPolicy.victim`.
LRU, the default, is the exception on the cache's hot path: the cache
updates :class:`LruPolicy`'s clock and stamps inline instead of calling
its hooks (same state, same arithmetic).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError


class ReplacementPolicy(ABC):
    """Interface for a per-cache replacement policy."""

    def __init__(self, sets: int, ways: int) -> None:
        if sets < 1 or ways < 1:
            raise ConfigurationError("replacement policy needs sets>=1, ways>=1")
        self.sets = sets
        self.ways = ways

    @abstractmethod
    def on_fill(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        """Record that a new block was installed into (set, way)."""

    @abstractmethod
    def on_hit(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        """Record a hit on (set, way)."""

    @abstractmethod
    def victim(self, set_idx: int) -> int:
        """Choose the way to evict from ``set_idx`` (all ways valid)."""

    def on_evict(self, set_idx: int, way: int, was_useful: bool, ip: int) -> None:
        """Optional feedback when a block leaves the cache."""


class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement via a monotone timestamp.

    ``stamp`` is one flat list of ``sets * ways`` slots (slot
    ``set * ways + way``); a fill or hit bumps ``clock`` and writes it
    into the slot.  The victim is the first way holding its set's
    minimum stamp.  :class:`~repro.memsys.cache.Cache` performs exactly
    these updates inline on this object's ``clock`` and ``stamp``.
    """

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self.clock = 0
        self.stamp = [0] * (sets * ways)

    def on_fill(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        self.clock += 1
        self.stamp[set_idx * self.ways + way] = self.clock

    on_hit = on_fill

    def victim(self, set_idx: int) -> int:
        base = set_idx * self.ways
        seg = self.stamp[base:base + self.ways]
        return seg.index(min(seg))


class SrripPolicy(ReplacementPolicy):
    """Static re-reference interval prediction with 2-bit RRPV counters.

    Blocks are inserted with a long re-reference prediction (RRPV =
    max-1), promoted to 0 on hit, and the victim is the first way whose
    RRPV equals the maximum (aging all counters until one does).
    """

    MAX_RRPV = 3

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self._rrpv = [[self.MAX_RRPV] * ways for _ in range(sets)]

    def insert_rrpv(self, set_idx: int) -> int:
        """RRPV assigned to a newly filled block (hook for DRRIP)."""
        return self.MAX_RRPV - 1

    def on_fill(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        self._rrpv[set_idx][way] = self.insert_rrpv(set_idx)

    def on_hit(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        self._rrpv[set_idx][way] = 0

    def victim(self, set_idx: int) -> int:
        rrpvs = self._rrpv[set_idx]
        while True:
            for way, value in enumerate(rrpvs):
                if value >= self.MAX_RRPV:
                    return way
            for way in range(self.ways):
                rrpvs[way] += 1


class DrripPolicy(SrripPolicy):
    """Dynamic RRIP: set-dueling between SRRIP and bimodal insertion.

    A handful of leader sets always use SRRIP insertion, another handful
    always use bimodal (mostly-distant) insertion; a saturating PSEL
    counter tracks which leader group misses less and follower sets copy
    the winner.
    """

    PSEL_MAX = 1023
    BIP_EPSILON = 32  # 1-in-32 bimodal near insertions

    def __init__(self, sets: int, ways: int, leader_sets: int = 32) -> None:
        super().__init__(sets, ways)
        stride = max(1, sets // max(1, leader_sets))
        self._srrip_leaders = set(range(0, sets, stride * 2))
        self._brrip_leaders = set(range(stride, sets, stride * 2))
        self._psel = self.PSEL_MAX // 2
        self._bip_counter = 0

    def record_miss(self, set_idx: int) -> None:
        """Update the PSEL duel on a demand miss in a leader set."""
        if set_idx in self._srrip_leaders:
            self._psel = min(self.PSEL_MAX, self._psel + 1)
        elif set_idx in self._brrip_leaders:
            self._psel = max(0, self._psel - 1)

    def insert_rrpv(self, set_idx: int) -> int:
        if set_idx in self._srrip_leaders:
            use_brrip = False
        elif set_idx in self._brrip_leaders:
            use_brrip = True
        else:
            use_brrip = self._psel > self.PSEL_MAX // 2
        if not use_brrip:
            return self.MAX_RRPV - 1
        self._bip_counter = (self._bip_counter + 1) % self.BIP_EPSILON
        if self._bip_counter == 0:
            return self.MAX_RRPV - 1
        return self.MAX_RRPV


class ShipPolicy(SrripPolicy):
    """Lightweight SHiP: per-IP-signature reuse counters steer insertion.

    Blocks brought in by signatures that historically see reuse insert
    with a near re-reference prediction; dead signatures insert distant.
    """

    TABLE_SIZE = 4096
    COUNTER_MAX = 3

    def __init__(self, sets: int, ways: int) -> None:
        super().__init__(sets, ways)
        self._shct = [1] * self.TABLE_SIZE
        self._fill_sig = [[0] * ways for _ in range(sets)]
        self._reused = [[False] * ways for _ in range(sets)]

    @staticmethod
    def _signature(ip: int) -> int:
        return (ip ^ (ip >> 12) ^ (ip >> 24)) % ShipPolicy.TABLE_SIZE

    def on_fill(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        sig = self._signature(ip)
        self._fill_sig[set_idx][way] = sig
        self._reused[set_idx][way] = False
        if self._shct[sig] > 0:
            self._rrpv[set_idx][way] = self.MAX_RRPV - 1
        else:
            self._rrpv[set_idx][way] = self.MAX_RRPV

    def on_hit(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        super().on_hit(set_idx, way, is_prefetch, ip)
        if not self._reused[set_idx][way]:
            self._reused[set_idx][way] = True
            sig = self._fill_sig[set_idx][way]
            self._shct[sig] = min(self.COUNTER_MAX, self._shct[sig] + 1)

    def on_evict(self, set_idx: int, way: int, was_useful: bool, ip: int) -> None:
        if not self._reused[set_idx][way]:
            sig = self._fill_sig[set_idx][way]
            self._shct[sig] = max(0, self._shct[sig] - 1)


class RandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random replacement (xorshift-seeded)."""

    def __init__(self, sets: int, ways: int, seed: int = 0x9E3779B9) -> None:
        super().__init__(sets, ways)
        self._state = seed or 1

    def on_fill(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        pass

    def on_hit(self, set_idx: int, way: int, is_prefetch: bool, ip: int) -> None:
        pass

    def victim(self, set_idx: int) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x % self.ways


_POLICIES = {
    "lru": LruPolicy,
    "srrip": SrripPolicy,
    "drrip": DrripPolicy,
    "ship": ShipPolicy,
    "random": RandomPolicy,
}


def make_replacement_policy(name: str, sets: int, ways: int) -> ReplacementPolicy:
    """Construct a replacement policy by name.

    Known names: ``lru``, ``srrip``, ``drrip``, ``ship``, ``random``.
    """
    try:
        factory = _POLICIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"expected one of {sorted(_POLICIES)}"
        ) from None
    return factory(sets, ways)

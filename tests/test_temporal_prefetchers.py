"""Tests for the temporal family: ISB, Domino, Triage, and IPCP's
future-work TS class."""

import random
from collections import OrderedDict

from repro.core import IpcpConfig, IpcpL1
from repro.core.ipcp_l1 import PfClass
from repro.core.temporal import TemporalTable
from repro.prefetchers.base import AccessContext, AccessType
from repro.prefetchers.domino import DominoPrefetcher
from repro.prefetchers.isb import IsbPrefetcher
from repro.prefetchers.triage import TriagePrefetcher

BASE = 1 << 18


def ctx_for(line, ip=0x400, hit=False, cycle=0, mpki=0.0):
    return AccessContext(ip=ip, addr=line << 6, cache_hit=hit,
                         kind=AccessType.LOAD, cycle=cycle, mpki=mpki)


def ring(seed=3, size=64):
    lines = [BASE + i * 97 for i in range(size)]
    random.Random(seed).shuffle(lines)
    return lines


def feed_ring(pf, lines, laps):
    out = []
    i = 0
    for _ in range(laps):
        for line in lines:
            out.append((i, pf.on_access(ctx_for(line, cycle=i * 10))))
            i += 1
    return out


class TestTemporalTable:
    def test_successor_learned(self):
        table = TemporalTable()
        table.train(10, 99)
        assert table.predict_chain(10) == [99]

    def test_chain_follows_sequence(self):
        table = TemporalTable()
        sequence = [5, 17, 3, 88]
        for a, b in zip(sequence, sequence[1:]):
            table.train(a, b)
        assert table.predict_chain(5, degree=3) == [17, 3, 88]

    def test_chain_stops_at_cycle(self):
        table = TemporalTable()
        table.train(1, 2)
        table.train(2, 1)
        assert len(table.predict_chain(1, degree=10)) <= 2

    def test_conflicting_successor_replaced_after_decay(self):
        table = TemporalTable()
        table.train(7, 8)
        table.train(7, 9)  # confidence 1 -> 0 -> replaced
        assert table.predict_chain(7) == [9]

    def test_capacity_bounded(self):
        table = TemporalTable(entries=16)
        for i in range(100):
            table.train(i, i + 1)
        assert len(table) <= 16

    def test_self_loop_ignored(self):
        table = TemporalTable()
        table.train(4, 4)
        assert table.predict_chain(4) == []


class TestIsb:
    def test_learns_irregular_sequence(self):
        pf = IsbPrefetcher(degree=2)
        lines = ring()
        results = feed_ring(pf, lines, laps=3)
        # By the second lap, accesses should trigger predictions of the
        # actual (irregular) successors.
        late = [reqs for i, reqs in results if i >= len(lines)]
        predicted = [r.addr >> 6 for reqs in late for r in reqs]
        assert predicted
        successors = {a: b for a, b in zip(lines, lines[1:] + lines[:1])}
        hits = sum(1 for reqs, line in zip(late, lines * 2)
                   for r in reqs if (r.addr >> 6) == successors[line])
        assert hits > len(lines) // 2

    def test_streams_are_pc_localised(self):
        pf = IsbPrefetcher()
        # Two IPs interleave; each stream must train independently.
        for i in range(20):
            pf.on_access(ctx_for(BASE + i * 7, ip=0x400, cycle=2 * i))
            pf.on_access(ctx_for(BASE + 50_000 + i * 13, ip=0x500,
                                 cycle=2 * i + 1))
        chain = pf._successor.get(BASE)
        assert chain == BASE + 7  # not polluted by ip 0x500's stream

    def test_table_bounded(self):
        pf = IsbPrefetcher(correlation_entries=32)
        feed_ring(pf, ring(size=128), laps=1)
        assert len(pf._successor) <= 32


class TestDomino:
    def test_pair_key_beats_single_key(self):
        pf = DominoPrefetcher(degree=1)
        # Sequence A,B,C and X,B,D: pair key disambiguates after B.
        for _ in range(4):
            for line in (BASE + 1, BASE + 2, BASE + 3,
                         BASE + 50, BASE + 2, BASE + 60):
                pf.on_access(ctx_for(line))
        assert pf._by_pair.get((BASE + 1, BASE + 2)) == BASE + 3
        assert pf._by_pair.get((BASE + 50, BASE + 2)) == BASE + 60

    def test_trains_only_on_misses(self):
        pf = DominoPrefetcher()
        pf.on_access(ctx_for(BASE, hit=True))
        pf.on_access(ctx_for(BASE + 5, hit=True))
        assert not pf._by_single

    def test_predicts_recurring_ring(self):
        pf = DominoPrefetcher(degree=2)
        lines = ring(size=32)
        results = feed_ring(pf, lines, laps=3)
        late = [reqs for i, reqs in results if i >= 2 * len(lines)]
        assert any(reqs for reqs in late)


class TestTriage:
    def test_confidence_gates_prediction(self):
        pf = TriagePrefetcher()
        pf.on_access(ctx_for(BASE))
        pf.on_access(ctx_for(BASE + 31))  # trains (BASE -> BASE+31) conf 1
        pf.on_access(ctx_for(BASE))
        requests = pf.on_access(ctx_for(BASE + 31))
        # One observation is below the confidence gate; needs a repeat.
        pf.on_access(ctx_for(BASE))
        requests = pf.on_access(ctx_for(BASE))
        assert isinstance(requests, list)

    def test_covers_recurring_ring(self):
        pf = TriagePrefetcher(degree=2)
        lines = ring(size=48)
        results = feed_ring(pf, lines, laps=4)
        late = [reqs for i, reqs in results if i >= 3 * len(lines)]
        assert sum(len(reqs) for reqs in late) > len(lines) // 2

    def test_table_bounded_with_confidence_aware_eviction(self):
        pf = TriagePrefetcher(entries=16)
        feed_ring(pf, ring(size=64), laps=2)
        assert len(pf._table) <= 16

    @staticmethod
    def _full_table(confidences):
        class CountingTable(OrderedDict):
            pulled = 0

            def __iter__(self):
                for key in super().__iter__():
                    self.pulled += 1
                    yield key

        pf = TriagePrefetcher(entries=len(confidences))
        pf._table = CountingTable(
            (line, [line + 1, conf]) for line, conf in enumerate(confidences))
        return pf

    def test_eviction_scans_only_the_eight_lru_keys(self):
        # Confidence 1 first appears at the fourth LRU key.
        pf = self._full_table([3, 2, 2, 1, 1] + [3] * 59)
        pf._train(1_000, 1_001)
        assert pf._table.pulled <= 8
        assert 3 not in pf._table
        assert 4 in pf._table and 0 in pf._table
        assert len(pf._table) == 64

    def test_eviction_falls_back_to_lru_key(self):
        # No low-confidence key among the eight LRU ones: the LRU key
        # goes, even though the ninth is low-confidence.
        pf = self._full_table([2] * 8 + [1] + [3] * 55)
        pf._train(1_000, 1_001)
        assert pf._table.pulled <= 8
        assert 0 not in pf._table
        assert 8 in pf._table


class TestIpcpTemporalClass:
    def test_disabled_by_default(self):
        pf = IpcpL1()
        assert pf.temporal is None
        assert PfClass.TS not in pf.throttles

    def test_enabled_adds_storage_and_throttle(self):
        pf = IpcpL1(IpcpConfig(enable_temporal=True))
        assert pf.temporal is not None
        assert PfClass.TS in pf.throttles
        assert pf.storage_bits > IpcpL1().storage_bits

    def test_ts_fires_only_for_classless_accesses(self):
        pf = IpcpL1(IpcpConfig(enable_temporal=True))
        lines = ring(size=32)
        requests = []
        for lap in range(4):
            for i, line in enumerate(lines):
                # High MPKI: the tentative-NL gate is closed (this is the
                # regime irregular workloads actually run in), so the
                # access is classless and TS may claim it.
                ctx = ctx_for(line, cycle=(lap * 32 + i) * 10, mpki=80.0)
                requests.extend(pf.on_access(ctx))
        ts = [r for r in requests if r.pf_class == int(PfClass.TS)]
        assert ts  # the recurring irregular ring is covered by TS
        # TS predictions point at actual ring successors.
        successors = {a: b for a, b in zip(lines, lines[1:])}
        assert any((r.addr >> 6) in successors.values() for r in ts)

    def test_ts_silent_on_streams(self):
        pf = IpcpL1(IpcpConfig(enable_temporal=True))
        requests = []
        for i in range(200):
            requests.extend(pf.on_access(ctx_for(BASE + i, cycle=i * 10)))
        ts = [r for r in requests if r.pf_class == int(PfClass.TS)]
        # Streams are claimed by GS/CS, so the TS class stays quiet.
        assert len(ts) < 10

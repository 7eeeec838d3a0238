"""Tests for IPCP's coordinated throttling and class interplay
(Section V): when a high-priority class runs below the low watermark,
lower-priority classes get to prefetch alongside it."""

from repro.core.ipcp_l1 import IpcpConfig, IpcpL1, PfClass
from repro.prefetchers.base import AccessContext, AccessType

BASE = 1 << 18


def ctx_for(line, ip=0x400_101, cycle=0, mpki=30.0):
    return AccessContext(ip=ip, addr=line << 6, cache_hit=False,
                         kind=AccessType.LOAD, cycle=cycle, mpki=mpki)


def train_gs_and_cs(pf, count=200):
    """A unit-stride stream trains both GS (dense regions) and CS."""
    requests = []
    for i in range(count):
        requests.extend(pf.on_access(ctx_for(BASE + i, cycle=i * 10)))
    return requests


class TestCoordinatedThrottling:
    def test_high_accuracy_gs_silences_cs(self):
        pf = IpcpL1()
        requests = train_gs_and_cs(pf)
        late = requests[-20:]
        assert {PfClass(r.pf_class) for r in late} == {PfClass.GS}

    def test_low_accuracy_gs_lets_cs_explore(self):
        # On a unit-stride stream CS's exploration targets coincide with
        # GS's (and are deduped by the RR filter), so the observable
        # evidence of the coordination rule is the extra RR activity:
        # with GS accuracy low, CS attempts its strided emissions too.
        confident = IpcpL1()
        train_gs_and_cs(confident)
        confident.stats.clear()
        for i in range(200, 260):
            confident.on_access(ctx_for(BASE + i, cycle=i * 10))
        drops_when_confident = confident.stats.get("rr_filter_drops", 0)

        doubting = IpcpL1()
        train_gs_and_cs(doubting)
        doubting.throttles[PfClass.GS].accuracy = 0.1
        doubting.stats.clear()
        for i in range(200, 260):
            doubting.on_access(ctx_for(BASE + i, cycle=i * 10))
        drops_when_doubting = doubting.stats.get("rr_filter_drops", 0)

        # The doubting bouquet generated strictly more candidate
        # prefetches (CS exploring beside the throttled GS).
        assert drops_when_doubting > drops_when_confident

    def test_throttling_disabled_uses_default_degrees(self):
        # With throttling off, neither the degree nor the priority walk
        # may read the throttle: a GS throttle forced to degree 1 and
        # low accuracy must change no target and no RR-filter drop.
        # (Whole requests differ: metadata carries the stride only
        # above the high watermark, throttling or not.)
        free = IpcpL1(IpcpConfig(throttling=False))
        forced = IpcpL1(IpcpConfig(throttling=False))
        forced.throttles[PfClass.GS].degree = 1
        forced.throttles[PfClass.GS].accuracy = 0.1
        targets = [[(r.addr, r.pf_class) for r in train_gs_and_cs(pf)]
                   for pf in (free, forced)]
        assert any(pf_class == PfClass.GS for _, pf_class in targets[0])
        assert targets[0] == targets[1]
        assert free.stats == forced.stats

    def test_degree_recovers_after_good_epochs(self):
        pf = IpcpL1()
        throttle = pf.throttles[PfClass.GS]
        throttle.degree = 1
        for _ in range(6 * 256):
            pf.on_prefetch_fill(0, int(PfClass.GS))
            pf.on_prefetch_hit(0, int(PfClass.GS))
        assert throttle.degree == pf.config.gs_degree


class TestHysteresisInterplay:
    def test_untracked_ip_still_trains_rst(self):
        # Two IPs collide in the table; the loser still contributes to
        # region density (RST trains on every access), so the winner
        # goes GS sooner.
        pf = IpcpL1()
        winner = 0x400_101
        loser = winner + 64 * 16  # same index, different tag
        for i in range(64):
            pf.on_access(ctx_for(BASE + 2 * i, ip=winner, cycle=i * 20))
            pf.on_access(ctx_for(BASE + 2 * i + 1, ip=loser,
                                 cycle=i * 20 + 10))
        region_zero = pf.rst._table[BASE // 32]
        # Region density reflects BOTH IPs' lines.
        assert region_zero.bit_vector.bit_count() == 32
        entry = pf.ip_table._table[winner & 63]
        assert entry.tag == (winner >> 6) & 0x1FF and entry.stream_valid

    def test_loser_ip_issues_nothing(self):
        pf = IpcpL1()
        winner = 0x400_101
        loser = winner + 64 * 16
        pf.on_access(ctx_for(BASE, ip=winner))
        requests = pf.on_access(ctx_for(BASE + 1000, ip=loser, mpki=10.0))
        assert requests == []


class TestMpkiGateAtL2:
    def test_l2_nl_gate(self):
        from repro.core.ipcp_l2 import IpcpL2
        from repro.core.metadata import MetaClass, encode_metadata

        pf = IpcpL2()
        meta = encode_metadata(MetaClass.NL, 0)
        quiet = AccessContext(ip=0x400, addr=BASE << 6, cache_hit=False,
                              kind=AccessType.PREFETCH, cycle=0,
                              metadata=meta, mpki=10.0)
        busy = AccessContext(ip=0x400, addr=(BASE + 64) << 6,
                             cache_hit=False, kind=AccessType.PREFETCH,
                             cycle=0, metadata=meta, mpki=90.0)
        assert pf.on_access(quiet)      # below threshold 40: NL fires
        assert not pf.on_access(busy)   # above: suppressed

"""Tests for the IPCP L1 bouquet: classification, priority, throttling."""

import pytest

from repro.core.ipcp_l1 import IpcpConfig, IpcpL1, PfClass
from repro.core.metadata import MetaClass, decode_metadata
from repro.errors import ConfigurationError
from repro.prefetchers.base import AccessContext, AccessType


def feed(pf, accesses, mpki=30.0, ip=0x400_101):
    """Drive the prefetcher with (ip, line) or line accesses; collect all."""
    out = []
    for i, access in enumerate(accesses):
        if isinstance(access, tuple):
            access_ip, line = access
        else:
            access_ip, line = ip, access
        ctx = AccessContext(
            ip=access_ip,
            addr=line << 6,
            cache_hit=False,
            kind=AccessType.LOAD,
            cycle=i * 20,
            mpki=mpki,
        )
        out.extend((i, r) for r in pf.on_access(ctx))
    return out


def classes_of(requests):
    return {PfClass(r.pf_class) for _, r in requests}


BASE = 1 << 18  # line number well away from page 0


class TestConfigValidation:
    def test_rejects_zero_degree(self):
        with pytest.raises(ConfigurationError):
            IpcpConfig(cs_degree=0)

    def test_rejects_duplicate_priority(self):
        with pytest.raises(ConfigurationError):
            IpcpConfig(priority=(PfClass.GS, PfClass.GS))

    @pytest.mark.parametrize("field", ["ip_table_entries", "cspt_entries"])
    @pytest.mark.parametrize("entries", [0, 96, 100])
    def test_rejects_table_size_not_power_of_two(self, field, entries):
        # Direct-mapped tables index with ``entries - 1`` as a mask: a
        # 100-entry IP table would reach 16 slots, a 96-entry CSPT 64.
        with pytest.raises(ConfigurationError, match="power of two"):
            IpcpConfig(**{field: entries})

    def test_accepts_power_of_two_table_sizes(self):
        pf = IpcpL1(IpcpConfig(ip_table_entries=512, cspt_entries=1024))
        assert len(pf.ip_table._table) == 512
        assert len(pf.cspt._table) == 1024

    def test_default_priority_order(self):
        assert IpcpConfig().priority == (
            PfClass.GS, PfClass.CS, PfClass.CPLX, PfClass.NL
        )


class TestCsClass:
    def test_constant_stride_classified_cs(self):
        pf = IpcpL1()
        requests = feed(pf, [BASE + 3 * i for i in range(20)])
        assert PfClass.CS in classes_of(requests)

    def test_cs_prefetches_multiples_of_stride(self):
        pf = IpcpL1(IpcpConfig(enable_gs=False, enable_nl=False,
                               enable_cplx=False))
        requests = feed(pf, [BASE + 3 * i for i in range(20)])
        trigger_lines = {BASE + 3 * i for i in range(20)}
        for i, request in requests:
            delta = (request.addr >> 6) - (BASE + 3 * i)
            assert delta % 3 == 0 and delta > 0
        assert requests

    def test_cs_needs_confidence(self):
        pf = IpcpL1(IpcpConfig(enable_gs=False, enable_nl=False,
                               enable_cplx=False))
        requests = feed(pf, [BASE, BASE + 3])  # one stride seen once
        assert not requests

    def test_negative_stride_supported(self):
        pf = IpcpL1(IpcpConfig(enable_gs=False, enable_nl=False,
                               enable_cplx=False))
        requests = feed(pf, [BASE - 2 * i for i in range(20)])
        assert requests
        for i, request in requests:
            assert (request.addr >> 6) < BASE - 2 * i


class TestCplxClass:
    def test_one_two_pattern_classified_cplx(self):
        pf = IpcpL1(IpcpConfig(enable_gs=False, enable_nl=False,
                               enable_cs=True))
        lines, line = [], BASE
        for i in range(60):
            lines.append(line)
            line += 1 if i % 2 == 0 else 2
        requests = feed(pf, lines)
        assert PfClass.CPLX in classes_of(requests)
        # 1,2,1,2 never stabilises the 2-bit CS confidence.
        assert PfClass.CS not in classes_of(requests)

    def test_cplx_disabled_by_config(self):
        pf = IpcpL1(IpcpConfig(enable_cplx=False, enable_gs=False,
                               enable_nl=False))
        lines, line = [], BASE
        for i in range(60):
            lines.append(line)
            line += 1 if i % 2 == 0 else 2
        assert not feed(pf, lines)


class TestGsClass:
    def dense_sweep(self, regions=4):
        """Lines covering whole 2 KB regions accessed by three IPs."""
        accesses = []
        ips = [0x400_101, 0x400_207, 0x400_30D]
        line = BASE
        for _ in range(regions * 32):
            accesses.append((ips[line % 3], line))
            line += 1
        return accesses

    def test_dense_regions_classified_gs(self):
        pf = IpcpL1(IpcpConfig(enable_cs=False, enable_cplx=False,
                               enable_nl=False))
        requests = feed(pf, self.dense_sweep())
        assert classes_of(requests) == {PfClass.GS}

    def test_gs_direction_follows_stream(self):
        pf = IpcpL1(IpcpConfig(enable_cs=False, enable_cplx=False,
                               enable_nl=False))
        requests = feed(pf, self.dense_sweep())
        i, sample = requests[-1]
        assert (sample.addr >> 6) > BASE  # forward direction

    def test_gs_beats_cs_in_priority(self):
        # A unit-stride stream is both CS and GS; GS must win.
        pf = IpcpL1()
        requests = feed(pf, [BASE + i for i in range(200)])
        late = [r for i, r in requests if i > 100]
        assert late
        assert {PfClass(r.pf_class) for r in late} == {PfClass.GS}

    def test_priority_flip_prefers_cs(self):
        config = IpcpConfig(priority=(PfClass.CS, PfClass.GS, PfClass.CPLX,
                                      PfClass.NL))
        pf = IpcpL1(config)
        requests = feed(pf, [BASE + i for i in range(200)])
        late = [r for i, r in requests if i > 100]
        assert {PfClass(r.pf_class) for r in late} == {PfClass.CS}


class TestNlClass:
    def test_nl_fires_for_tracked_classless_ip(self):
        pf = IpcpL1()
        # Random-ish lines: no stride stabilises, regions stay sparse.
        lines = [BASE + (i * 977) % 4096 for i in range(30)]
        requests = feed(pf, lines, mpki=10.0)
        assert PfClass.NL in classes_of(requests)

    def test_nl_suppressed_at_high_mpki(self):
        pf = IpcpL1()
        lines = [BASE + (i * 977) % 4096 for i in range(30)]
        requests = feed(pf, lines, mpki=80.0)
        assert PfClass.NL not in classes_of(requests)

    def test_nl_prefetches_exactly_next_line(self):
        pf = IpcpL1(IpcpConfig(enable_cs=False, enable_cplx=False,
                               enable_gs=False))
        requests = feed(pf, [BASE, BASE + 100, BASE + 17], mpki=10.0)
        for i, request in requests:
            assert request.pf_class == int(PfClass.NL)


class TestPageBoundary:
    def test_no_prefetch_crosses_page(self):
        pf = IpcpL1()
        # Stride so large that naive prefetching would cross the page.
        requests = feed(pf, [BASE + 60 + i for i in range(8)])
        for i, request in requests:
            trigger_page = (BASE + 60 + i) // 64
            assert (request.addr >> 6) // 64 == trigger_page


class TestRrFilterIntegration:
    def test_duplicate_prefetches_suppressed(self):
        pf = IpcpL1()
        feed(pf, [BASE + i for i in range(100)])
        assert pf.stats.get("rr_filter_drops", 0) > 0


class TestMetadata:
    def test_cs_metadata_carries_stride(self):
        pf = IpcpL1(IpcpConfig(enable_gs=False, enable_nl=False,
                               enable_cplx=False))
        requests = feed(pf, [BASE + 3 * i for i in range(20)])
        _, sample = requests[-1]
        meta_class, stride = decode_metadata(sample.metadata)
        assert meta_class is MetaClass.CS
        assert stride == 3

    def test_metadata_disabled_by_config(self):
        pf = IpcpL1(IpcpConfig(send_metadata=False, enable_gs=False,
                               enable_nl=False, enable_cplx=False))
        requests = feed(pf, [BASE + 3 * i for i in range(20)])
        assert all(r.metadata == 0 for _, r in requests)

    def test_low_accuracy_strips_stride_from_metadata(self):
        pf = IpcpL1(IpcpConfig(enable_gs=False, enable_nl=False,
                               enable_cplx=False))
        pf.throttles[PfClass.CS].accuracy = 0.2  # below high watermark
        requests = feed(pf, [BASE + 3 * i for i in range(20)])
        _, sample = requests[-1]
        meta_class, stride = decode_metadata(sample.metadata)
        assert meta_class is MetaClass.CS
        assert stride == 0


class TestThrottlingFeedback:
    def test_fill_hit_feedback_reaches_throttle(self):
        pf = IpcpL1()
        for _ in range(10):
            pf.on_prefetch_fill(0x1000, int(PfClass.CS))
        for _ in range(5):
            pf.on_prefetch_hit(0x1000, int(PfClass.CS))
        throttle = pf.throttles[PfClass.CS]
        assert throttle.epoch_fills == 10
        assert throttle.epoch_hits == 5

    def test_unknown_class_feedback_ignored(self):
        pf = IpcpL1()
        pf.on_prefetch_fill(0x1000, 0)  # PfClass.NONE: no throttle
        # No exception and no counters moved.
        assert all(t.epoch_fills == 0 for t in pf.throttles.values())

    def test_storage_bits_match_table1(self):
        assert IpcpL1().storage_bits == 5913

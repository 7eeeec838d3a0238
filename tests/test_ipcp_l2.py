"""Tests for the metadata-driven L2 IPCP."""

import pytest

from repro.core.ipcp_l1 import PfClass
from repro.core.ipcp_l2 import IpcpL2, L2_STORAGE_BITS
from repro.core.metadata import MetaClass, encode_metadata
from repro.errors import ConfigurationError
from repro.prefetchers.base import AccessContext, AccessType

BASE = 1 << 18


def arrival(pf, ip, line, meta_class, stride, mpki=10.0, cycle=0):
    ctx = AccessContext(
        ip=ip,
        addr=line << 6,
        cache_hit=False,
        kind=AccessType.PREFETCH,
        cycle=cycle,
        metadata=encode_metadata(meta_class, stride),
        mpki=mpki,
    )
    return pf.on_access(ctx)


def demand(pf, ip, line, mpki=10.0, cycle=0):
    ctx = AccessContext(
        ip=ip,
        addr=line << 6,
        cache_hit=False,
        kind=AccessType.LOAD,
        cycle=cycle,
        mpki=mpki,
    )
    return pf.on_access(ctx)


class TestConstruction:
    def test_storage_matches_table1(self):
        assert IpcpL2().storage_bits == L2_STORAGE_BITS == 1237

    def test_rejects_bad_degrees(self):
        with pytest.raises(ConfigurationError):
            IpcpL2(cs_degree=0)

    def test_rejects_entries_not_power_of_two(self):
        # Direct-mapped with ``entries - 1`` as the index mask: 48
        # entries would reach 32 slots.
        with pytest.raises(ConfigurationError, match="power of two"):
            IpcpL2(entries=48)


class TestMetadataDecoding:
    def test_cs_arrival_extends_stride_deeper(self):
        pf = IpcpL2()
        requests = arrival(pf, 0x400, BASE, MetaClass.CS, 3)
        deltas = sorted((r.addr >> 6) - BASE for r in requests)
        assert deltas == [3, 6, 9, 12]  # degree 4 at the L2
        assert all(r.pf_class == int(PfClass.CS) for r in requests)

    def test_gs_arrival_extends_stream(self):
        pf = IpcpL2()
        line = BASE + 32  # mid-page so backward prefetches stay in-page
        requests = arrival(pf, 0x400, line, MetaClass.GS, -1)
        deltas = sorted((r.addr >> 6) - line for r in requests)
        assert deltas == [-4, -3, -2, -1]

    def test_nl_arrival_prefetches_next_line_when_mpki_low(self):
        pf = IpcpL2()
        requests = arrival(pf, 0x400, BASE, MetaClass.NL, 0, mpki=10.0)
        assert [(r.addr >> 6) - BASE for r in requests] == [1]

    def test_nl_arrival_suppressed_at_high_mpki(self):
        pf = IpcpL2()
        assert not arrival(pf, 0x400, BASE, MetaClass.NL, 0, mpki=60.0)

    def test_zero_stride_metadata_issues_nothing(self):
        pf = IpcpL2()
        # The L1 strips strides from low-accuracy classes.
        assert not arrival(pf, 0x400, BASE, MetaClass.CS, 0, mpki=60.0)


class TestDemandReplay:
    def test_demand_replays_recorded_cs_class(self):
        pf = IpcpL2()
        arrival(pf, 0x400, BASE, MetaClass.CS, 2)
        requests = demand(pf, 0x400, BASE + 10, mpki=60.0)
        deltas = sorted((r.addr >> 6) - (BASE + 10) for r in requests)
        assert deltas == [2, 4, 6, 8]

    def test_demand_with_unknown_ip_falls_back_to_nl(self):
        pf = IpcpL2()
        requests = demand(pf, 0x999, BASE, mpki=10.0)
        assert [(r.addr >> 6) - BASE for r in requests] == [1]
        assert requests[0].pf_class == int(PfClass.NL)

    def test_demand_with_unknown_ip_and_high_mpki_is_silent(self):
        pf = IpcpL2()
        assert not demand(pf, 0x999, BASE, mpki=60.0)

    def test_cplx_is_never_replayed_at_l2(self):
        pf = IpcpL2()
        # CPLX requests carry MetaClass.NONE; nothing should replay.
        requests = arrival(pf, 0x400, BASE, MetaClass.NONE, 5, mpki=60.0)
        assert not requests
        assert not demand(pf, 0x400, BASE + 1, mpki=60.0)


class TestPageBoundary:
    def test_replay_respects_page_boundary(self):
        pf = IpcpL2()
        line_near_page_end = BASE + 62  # page offset 62
        requests = arrival(pf, 0x400, line_near_page_end, MetaClass.CS, 3)
        for request in requests:
            assert (request.addr >> 6) // 64 == line_near_page_end // 64


class TestTableConflicts:
    def test_new_ip_overwrites_slot(self):
        pf = IpcpL2(entries=64)
        arrival(pf, 0x400, BASE, MetaClass.CS, 3)
        conflicting_ip = 0x400 + 64 * 4  # same index, different tag
        arrival(pf, conflicting_ip, BASE, MetaClass.GS, 1)
        # The original IP no longer matches: falls back to NL.
        requests = demand(pf, 0x400, BASE + 5, mpki=10.0)
        assert [(r.addr >> 6) - (BASE + 5) for r in requests] == [1]

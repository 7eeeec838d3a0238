"""Tests for the recent-request filter.

The L1 rules are driven through the production pipeline,
``IpcpL1.on_access``, and read back from the FIFO it leaves in
``pf.rr_filter._fifo``; ``check_and_insert`` is IPCP-I's entry point.
"""

from repro.core.ipcp_l1 import IpcpConfig, IpcpL1
from repro.core.rr_filter import RrFilter
from repro.prefetchers.base import AccessContext, AccessType

IP = 0x400_101
OTHER_IP = 0x400_102  # a different IP-table slot
BASE = 1 << 18  # line number well away from page 0


def access(pf, line, ip=IP, mpki=80.0):
    """One demand load through the L1 pipeline (NL gated off by default)."""
    return pf.on_access(AccessContext(ip=ip, addr=line << 6, cache_hit=False,
                                      kind=AccessType.LOAD, cycle=0,
                                      mpki=mpki))


def remembered(pf, line):
    """Would a prefetch of ``line`` hit the filter now?"""
    return pf.rr_filter._tag(line) in pf.rr_filter._fifo


class TestRrFilter:
    def test_contains_after_insert(self):
        pf = IpcpL1()
        access(pf, BASE + 0x123)
        assert remembered(pf, BASE + 0x123)

    def test_empty_filter_contains_nothing(self):
        pf = IpcpL1()
        assert not pf.rr_filter._fifo
        assert not remembered(pf, BASE + 0x123)

    def test_check_and_insert_reports_duplicates(self):
        rr = RrFilter()
        assert not rr.check_and_insert(0x55)  # first time: allowed
        assert rr.check_and_insert(0x55)      # duplicate: drop

    def test_demand_line_suppresses_its_prefetch(self):
        pf = IpcpL1()
        access(pf, BASE + 8)
        # A fresh IP one line below: its next-line target is the
        # demand line just seen, so the filter drops it.
        assert access(pf, BASE + 7, ip=OTHER_IP, mpki=10.0) == []
        assert pf.stats["rr_filter_drops"] == 1

    def test_fifo_capacity(self):
        # No class issues, so only demand lines enter the FIFO.
        pf = IpcpL1(IpcpConfig(enable_cs=False, enable_cplx=False,
                               enable_gs=False, enable_nl=False,
                               rr_entries=4))
        for line in range(BASE, BASE + 8):
            access(pf, line)
        assert len(pf.rr_filter._fifo) == 4
        assert not remembered(pf, BASE)   # oldest fell out
        assert remembered(pf, BASE + 7)

    def test_partial_tags_can_alias(self):
        # A line with the demand line's 12-bit tag, never requested
        # itself, is dropped as a prefetch target (hardware-faithful).
        pf = IpcpL1()
        access(pf, BASE)
        alias = next(line for line in range(BASE + 1, BASE + (1 << 16))
                     if pf.rr_filter._tag(line) == pf.rr_filter._tag(BASE)
                     and line & 63)
        assert access(pf, alias - 1, ip=OTHER_IP, mpki=10.0) == []
        assert pf.stats["rr_filter_drops"] == 1

    def test_default_geometry_is_32_entries(self):
        assert IpcpL1().rr_filter._fifo.maxlen == 32

"""Tests for the shared IP table: indexing, hysteresis, stride math.

Every rule is driven through the production pipeline,
``IpcpL1.on_access``, and read back from the entries it leaves in
``pf.ip_table._table``.
"""

from repro.core.ip_table import clamp_stride
from repro.core.ipcp_l1 import IpcpL1
from repro.params import PAGE_SIZE
from repro.prefetchers.base import AccessContext, AccessType

IP = 0x400
CHALLENGER = IP + 64 * 8  # same index, different tag
BASE_PAGE = 0x100  # keeps every line nonzero (0 means "never seen")


def access(pf, ip, addr):
    """One demand load through the L1 pipeline (NL gated off)."""
    return pf.on_access(AccessContext(ip=ip, addr=addr, cache_hit=False,
                                      kind=AccessType.LOAD, cycle=0,
                                      mpki=80.0))


def slot(pf, ip):
    """The entry in ``ip``'s slot, whoever owns it."""
    return pf.ip_table._table[ip & pf.ip_table._index_mask]


def owner_tag(pf, ip):
    """The tag ``ip`` carries into its slot."""
    table = pf.ip_table
    return (ip >> table._tag_shift) & table._tag_mask


def owns(pf, ip):
    """True when ``ip`` currently holds its slot."""
    entry = slot(pf, ip)
    return entry.seen_once and entry.tag == owner_tag(pf, ip)


def addr(page, offset):
    """Byte address of line ``offset`` of page ``BASE_PAGE + page``."""
    return (BASE_PAGE + page) * PAGE_SIZE + offset * 64


def stride_between(first, second):
    """The stride a fresh IP learns from two accesses."""
    pf = IpcpL1()
    access(pf, IP, first)
    access(pf, IP, second)
    return slot(pf, IP).stride


class TestClampStride:
    def test_within_range_unchanged(self):
        assert clamp_stride(5) == 5
        assert clamp_stride(-5) == -5

    def test_clamps_to_seven_bit_field(self):
        assert clamp_stride(100) == 63
        assert clamp_stride(-100) == -63


class TestLookupAndHysteresis:
    def test_new_ip_takes_empty_slot(self):
        pf = IpcpL1()
        access(pf, IP, addr(0, 0))
        assert owns(pf, IP)
        assert slot(pf, IP).valid

    def test_same_ip_returns_same_entry(self):
        pf = IpcpL1()
        access(pf, IP, addr(0, 0))
        first = slot(pf, IP)
        access(pf, IP, addr(0, 3))
        assert slot(pf, IP) is first

    def test_challenger_clears_valid_but_does_not_evict(self):
        pf = IpcpL1()
        access(pf, IP, addr(0, 0))
        access(pf, IP, addr(0, 9))  # the incumbent learns stride 9
        requests = access(pf, CHALLENGER, addr(1, 0))
        assert requests == []
        survivor = slot(pf, IP)
        assert owns(pf, IP) and survivor.stride == 9
        assert not survivor.valid

    def test_second_challenge_takes_over(self):
        pf = IpcpL1()
        access(pf, IP, addr(0, 0))
        access(pf, CHALLENGER, addr(1, 0))  # clears valid
        access(pf, CHALLENGER, addr(1, 1))  # now takes the slot
        assert owns(pf, CHALLENGER)
        assert not owns(pf, IP)
        assert slot(pf, CHALLENGER).valid

    def test_incumbent_revalidates_on_return(self):
        pf = IpcpL1()
        access(pf, IP, addr(0, 0))
        access(pf, CHALLENGER, addr(1, 0))
        access(pf, IP, addr(0, 1))  # incumbent returns
        assert owns(pf, IP) and slot(pf, IP).valid
        # Challenger is blocked again: at least one IP stays tracked.
        access(pf, CHALLENGER, addr(1, 1))
        assert owns(pf, IP) and not slot(pf, IP).valid


class TestStrideComputation:
    def test_simple_stride_within_page(self):
        assert stride_between(addr(0, 0), addr(0, 3)) == 3

    def test_negative_stride(self):
        assert stride_between(addr(0, 5), addr(0, 0)) == -5

    def test_forward_page_crossing(self):
        # Offset 63 -> offset 0 of the next page: stride (0-63)+64 = 1
        # (the paper's example).
        assert stride_between(addr(0, 63), addr(1, 0)) == 1

    def test_backward_page_crossing(self):
        # Page 1, offset 0 -> page 0, offset 63: (63-0)-64 = -1.
        assert stride_between(addr(1, 0), addr(0, 63)) == -1

    def test_far_page_jump_yields_no_stride(self):
        assert stride_between(addr(0, 0), addr(2, 0)) == 0

    def test_stride_saturates_to_seven_bits(self):
        # Offset 0 -> offset 63 of the next page is 127 lines.
        assert stride_between(addr(0, 0), addr(1, 63)) == 63

    def test_record_access_updates_shared_fields(self):
        pf = IpcpL1()
        target = addr(1, 5)
        access(pf, IP, target)
        entry = slot(pf, IP)
        assert entry.last_line_offset == 5
        assert entry.last_vpage == (BASE_PAGE + 1) & 0x3
        assert entry.last_line == target >> 6

"""Tests for the GS class's Region Stream Table.

Every rule is driven through the production pipeline,
``IpcpL1.on_access``, and read back from the regions it leaves in
``pf.rst._table``.
"""

from repro.core.ipcp_l1 import IpcpConfig, IpcpL1
from repro.core.rst import DIRECTION_MID, GS_TRAIN_THRESHOLD
from repro.params import LINES_PER_REGION
from repro.prefetchers.base import AccessContext, AccessType

IP = 0x400_101
OTHER_IP = 0x400_102  # a different IP-table slot
REGION_BASE = 0x1000  # keeps every line nonzero (0 means "never seen")


def touch(pf, region, offset, ip=IP):
    """One demand load of line ``offset`` of region ``REGION_BASE + region``."""
    line = (REGION_BASE + region) * LINES_PER_REGION + offset
    pf.on_access(AccessContext(ip=ip, addr=line << 6, cache_hit=False,
                               kind=AccessType.LOAD, cycle=0, mpki=80.0))
    return pf.rst._table.get(REGION_BASE + region)


def train_dense(pf, region, ip=IP):
    for offset in range(GS_TRAIN_THRESHOLD):
        touch(pf, region, offset, ip)


class TestDensityTraining:
    def test_threshold_is_75_percent(self):
        assert GS_TRAIN_THRESHOLD == 24

    def test_region_trains_after_threshold_lines(self):
        pf = IpcpL1()
        for offset in range(GS_TRAIN_THRESHOLD):
            entry = touch(pf, 5, offset)
        assert entry.trained
        assert entry.dense

    def test_region_not_trained_below_threshold(self):
        pf = IpcpL1()
        for offset in range(GS_TRAIN_THRESHOLD - 1):
            entry = touch(pf, 5, offset)
        assert not entry.trained

    def test_repeat_touches_do_not_double_count(self):
        pf = IpcpL1()
        for _ in range(100):
            entry = touch(pf, 5, 3)
        assert entry.bit_vector.bit_count() == 1
        assert not entry.trained


class TestDirection:
    def test_ascending_accesses_give_positive_direction(self):
        pf = IpcpL1()
        for offset in range(10):
            entry = touch(pf, 5, offset)
        assert entry.direction == 1
        assert entry.pos_neg_count > DIRECTION_MID

    def test_descending_accesses_give_negative_direction(self):
        pf = IpcpL1()
        for offset in range(LINES_PER_REGION - 1, LINES_PER_REGION - 11, -1):
            entry = touch(pf, 5, offset)
        assert entry.direction == -1
        assert entry.pos_neg_count < DIRECTION_MID

    def test_counter_saturates(self):
        pf = IpcpL1()
        for i in range(200):
            entry = touch(pf, 5, i % LINES_PER_REGION)
        assert 0 <= entry.pos_neg_count <= 63


class TestTentativePromotion:
    def test_new_region_after_dense_predecessor_is_tentative(self):
        pf = IpcpL1()
        train_dense(pf, 7)
        entry = touch(pf, 8, 0)
        assert entry.tentative
        assert not entry.trained

    def test_new_region_after_sparse_predecessor_is_not_tentative(self):
        pf = IpcpL1()
        touch(pf, 7, 0)  # region 7 never trains
        entry = touch(pf, 8, 0)
        assert not entry.tentative

    def test_no_previous_region_no_tentative(self):
        # Region 7 trained, but by another IP: this IP has no previous
        # region, so its first region does not start tentative.
        pf = IpcpL1()
        train_dense(pf, 7)
        entry = touch(pf, 8, 0, ip=OTHER_IP)
        assert not entry.tentative


class TestLru:
    def test_capacity_bounded(self):
        pf = IpcpL1()
        for region in range(20):
            touch(pf, region, 0)
        assert len(pf.rst._table) == 8

    def test_lru_eviction_order(self):
        pf = IpcpL1(IpcpConfig(rst_entries=2))
        touch(pf, 1, 0)
        touch(pf, 2, 0)
        touch(pf, 1, 1)   # refresh region 1
        touch(pf, 3, 0)   # evicts region 2
        assert list(pf.rst._table) == [REGION_BASE + 1, REGION_BASE + 3]

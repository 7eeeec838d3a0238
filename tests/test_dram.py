"""Tests for the DRAM channel-bandwidth model."""

import pytest

from repro.memsys.dram import Dram
from repro.params import DramParams


class TestUnloadedLatency:
    def test_idle_read_pays_base_latency(self):
        dram = Dram(DramParams(base_latency=160))
        assert dram.read(0x1000, 100) == 260

    def test_reads_counted(self):
        dram = Dram()
        dram.read(0x1000, 0)
        dram.read(0x2000, 0)
        assert dram.reads == 2


class TestQueuing:
    def test_back_to_back_reads_queue_on_one_channel(self):
        dram = Dram(DramParams(channels=1))
        first = dram.read(0x0000, 0)
        second = dram.read(0x0040, 0)
        # The second read waits one service slot (20 cycles at 12.8 GB/s).
        assert second == first + 20

    def test_queue_wait_accumulates(self):
        dram = Dram(DramParams(channels=1))
        for i in range(4):
            dram.read(i * 64, 0)
        assert dram.total_queue_cycles == pytest.approx(20 + 40 + 60)

    def test_two_channels_serve_interleaved_lines_in_parallel(self):
        dram = Dram(DramParams(channels=2))
        a = dram.read(0x0000, 0)  # channel 0
        b = dram.read(0x0040, 0)  # channel 1
        assert a == b  # no queuing across channels

    def test_channel_frees_over_time(self):
        dram = Dram(DramParams(channels=1))
        dram.read(0x0000, 0)
        late = dram.read(0x0040, 1_000)
        assert late == 1_000 + DramParams().base_latency


class TestBandwidthScaling:
    def test_low_bandwidth_increases_service_time(self):
        slow = Dram(DramParams(bandwidth_gbps=3.2))
        slow.read(0x0000, 0)
        second = slow.read(0x0040, 0)
        assert second == slow.params.base_latency + 80

    def test_high_bandwidth_decreases_service_time(self):
        fast = Dram(DramParams(bandwidth_gbps=25.6))
        fast.read(0x0000, 0)
        second = fast.read(0x0040, 0)
        assert second == fast.params.base_latency + 10


class TestWrites:
    def test_write_consumes_channel_but_returns_nothing(self):
        dram = Dram(DramParams(channels=1))
        dram.write(0x0000, 0)
        read_after = dram.read(0x0040, 0)
        assert read_after == DramParams().base_latency + 20
        assert dram.writes == 1

    def test_reset_stats_clears_counters_not_channel_state(self):
        dram = Dram()
        dram.read(0x0000, 0)
        dram.reset_stats()
        assert dram.reads == 0
        # Channel is still busy from before the reset.
        assert dram.read(0x0040, 0) > DramParams().base_latency

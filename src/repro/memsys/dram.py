"""Channel-bandwidth DRAM model.

The paper's sensitivity study (Section VI-C) varies DRAM bandwidth from
3.2 GB/s to 25 GB/s and the multicore results hinge on bandwidth
contention, so the model must capture *queuing under load*, not just a
fixed latency.  Each channel is a server that is busy for
``cycles_per_line`` core cycles per 64 B transfer; a request's latency
is the unloaded ``base_latency`` plus however long it waited for its
channel.  Reads and writes share the channel.
"""

from __future__ import annotations

from repro.params import DramParams, LINE_BITS


class Dram:
    """DRAM modeled as one queuing server per channel.

    Addresses are interleaved across channels at cache-line granularity,
    which is how ChampSim's default DRAM address mapping distributes
    consecutive lines.
    """

    def __init__(self, params: DramParams | None = None) -> None:
        self.params = params or DramParams()
        self._channel_free = [0.0] * self.params.channels
        self._service = self.params.cycles_per_line
        self.reads = 0
        self.writes = 0
        self.total_queue_cycles = 0.0

    def _book(self, addr: int, cycle: int) -> float:
        """Book one transfer of ``addr``'s line requested at ``cycle``:
        it starts (the cycle returned) at the later of ``cycle`` and its
        channel's free cycle, then holds the channel one service time."""
        channel = (addr >> LINE_BITS) % self.params.channels
        start = max(float(cycle), self._channel_free[channel])
        self._channel_free[channel] = start + self._service
        return start

    def read(self, addr: int, cycle: int) -> int:
        """Service a read; return the cycle at which data is available."""
        start = self._book(addr, cycle)
        self.reads += 1
        self.total_queue_cycles += start - cycle
        return int(start + self.params.base_latency)

    def write(self, addr: int, cycle: int) -> None:
        """Service a writeback; consumes channel bandwidth, never stalls."""
        self._book(addr, cycle)
        self.writes += 1

    def reset_stats(self) -> None:
        """Zero traffic counters (used at the end of cache warm-up)."""
        self.reads = 0
        self.writes = 0
        self.total_queue_cycles = 0.0

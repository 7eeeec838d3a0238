"""System-wide address-geometry constants and parameter dataclasses.

The defaults mirror Table II of the paper ("Simulated System
parameters"): a 4 GHz, 4-wide core with a 256-entry ROB, a 48 KB 12-way
L1-D (5-cycle latency, PQ 8, MSHR 16), a 512 KB 8-way L2 (10 cycles,
PQ 16, MSHR 32), a 2 MB/core 16-way LLC (20 cycles, PQ 32/core,
MSHR 64/core) and 1600 MT/s DDR4 DRAM (one channel per core for
single-core runs, two channels for multi-core runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

# Address geometry (fixed across the paper's experiments).
LINE_SIZE = 64
LINE_BITS = 6
PAGE_SIZE = 4096
PAGE_BITS = 12
LINES_PER_PAGE = PAGE_SIZE // LINE_SIZE  # 64 cache lines per 4 KB page

# GS-class region geometry (Section IV-C: 2 KB regions, 32 lines).
REGION_SIZE = 2048
REGION_BITS = 11
LINES_PER_REGION = REGION_SIZE // LINE_SIZE  # 32


@dataclass(frozen=True)
class CacheParams:
    """Geometry and resource limits for one cache level."""

    name: str
    size: int
    ways: int
    latency: int
    pq_entries: int
    mshr_entries: int
    replacement: str = "lru"
    line_size: int = LINE_SIZE

    def __post_init__(self) -> None:
        if self.size <= 0 or self.ways <= 0:
            raise ConfigurationError(
                f"{self.name}: size and ways must be positive "
                f"(got size={self.size}, ways={self.ways})"
            )
        if self.size % (self.ways * self.line_size) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size} is not a multiple of "
                f"ways*line_size ({self.ways}*{self.line_size})"
            )
        sets = self.size // (self.ways * self.line_size)
        if sets & (sets - 1) != 0:
            raise ConfigurationError(
                f"{self.name}: number of sets ({sets}) must be a power of two"
            )
        if self.latency < 1:
            raise ConfigurationError(f"{self.name}: latency must be >= 1")
        if self.pq_entries < 0 or self.mshr_entries < 1:
            raise ConfigurationError(
                f"{self.name}: pq_entries must be >= 0 and mshr_entries >= 1"
            )

    @property
    def sets(self) -> int:
        """Number of cache sets."""
        return self.size // (self.ways * self.line_size)


@dataclass(frozen=True)
class DramParams:
    """DRAM channel-bandwidth queuing model parameters.

    ``bandwidth_gbps`` is the per-channel peak bandwidth; the default
    12.8 GB/s matches one DDR4-1600 64-bit channel.  ``base_latency`` is
    the unloaded access latency in core cycles.
    """

    channels: int = 1
    bandwidth_gbps: float = 12.8
    base_latency: int = 160
    core_ghz: float = 4.0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigurationError("DRAM needs at least one channel")
        # Written so NaN fails too: every comparison with it is false.
        if not 0 < self.bandwidth_gbps < math.inf:
            raise ConfigurationError(
                "DRAM bandwidth must be a finite number above 0")
        if not 0 < self.core_ghz < math.inf:
            raise ConfigurationError(
                "core clock must be a finite number above 0")
        if self.base_latency < 1:
            raise ConfigurationError("DRAM base latency must be >= 1")

    @property
    def cycles_per_line(self) -> float:
        """Core cycles a channel is busy transferring one 64 B line."""
        bytes_per_cycle = self.bandwidth_gbps / self.core_ghz
        return LINE_SIZE / bytes_per_cycle


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core model parameters (Table II: 4 GHz, 4-wide, 256 ROB)."""

    width: int = 4
    rob_size: int = 256

    def __post_init__(self) -> None:
        if self.width < 1 or self.rob_size < 1:
            raise ConfigurationError("core width and ROB size must be >= 1")


def default_l1d() -> CacheParams:
    """Table II L1-D: 48 KB, 12-way, 5 cycles, PQ 8, MSHR 16."""
    return CacheParams("L1D", 48 * 1024, 12, 5, 8, 16)


def default_l2() -> CacheParams:
    """Table II L2: 512 KB, 8-way, 10 cycles, PQ 16, MSHR 32."""
    return CacheParams("L2", 512 * 1024, 8, 10, 16, 32)


def default_llc(cores: int = 1) -> CacheParams:
    """Table II LLC: 2 MB/core, 16-way, 20 cycles, PQ 32/core, MSHR 64/core."""
    return CacheParams(
        "LLC", 2 * 1024 * 1024 * cores, 16, 20, 32 * cores, 64 * cores
    )


@dataclass(frozen=True)
class SystemParams:
    """Full single-core (or per-core) system configuration.

    ``model_tlb`` enables the Table II DTLB/STLB on the load path.
    """

    core: CoreParams = field(default_factory=CoreParams)
    l1d: CacheParams = field(default_factory=default_l1d)
    l2: CacheParams = field(default_factory=default_l2)
    llc: CacheParams = field(default_factory=default_llc)
    dram: DramParams = field(default_factory=DramParams)
    model_tlb: bool = True

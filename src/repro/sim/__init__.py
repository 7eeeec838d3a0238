"""Trace-driven simulation engine: core model, single- and multi-core runs."""

from repro.sim.batched import (
    DEFAULT_CHUNK_RECORDS,
    ENGINES,
    simulate_batched,
    support_reason,
    validate_engine,
)
from repro.sim.cpu import Cpu, CpuResult
from repro.sim.engine import SimResult, simulate, simulate_ideal
from repro.sim.multicore import MixResult, simulate_mix
from repro.sim.trace import (
    BRANCH,
    LOAD,
    OTHER,
    STORE,
    Trace,
    TraceRecord,
)

__all__ = [
    "BRANCH",
    "Cpu",
    "CpuResult",
    "DEFAULT_CHUNK_RECORDS",
    "ENGINES",
    "LOAD",
    "MixResult",
    "OTHER",
    "STORE",
    "SimResult",
    "Trace",
    "TraceRecord",
    "simulate",
    "simulate_batched",
    "simulate_ideal",
    "simulate_mix",
    "support_reason",
    "validate_engine",
]

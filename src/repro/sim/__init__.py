"""Trace-driven simulation engine: core model, single- and multi-core runs."""

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
    "LOAD",
    "MixResult",
    "OTHER",
    "STORE",
    "SimResult",
    "Trace",
    "TraceRecord",
    "simulate",
    "simulate_ideal",
    "simulate_mix",
]

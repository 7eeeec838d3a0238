"""Experiment drivers shared by the claim registry, the CLI and examples."""

from repro.analysis.experiments import (
    ExperimentRunner,
    run_levels,
)
from repro.analysis.sweep import run_sweep, sweep_dram_bandwidth, sweep_system

__all__ = [
    "ExperimentRunner",
    "run_levels",
    "run_sweep",
    "sweep_dram_bandwidth",
    "sweep_system",
]

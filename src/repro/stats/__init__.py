"""Metrics and reporting helpers for the claim registry, CLI and examples."""

from repro.stats.metrics import (
    class_contributions,
    coverage_by_level,
    geometric_mean,
    normalized_weighted_speedup,
    speedup,
)
from repro.stats.report import format_table
from repro.stats.timeline import TimelineRecorder, Window, phase_shift_windows

__all__ = [
    "class_contributions",
    "coverage_by_level",
    "format_table",
    "geometric_mean",
    "normalized_weighted_speedup",
    "phase_shift_windows",
    "speedup",
    "TimelineRecorder",
    "Window",
]

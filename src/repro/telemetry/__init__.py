"""Profiling of the simulator hot path.

:mod:`repro.telemetry.profiling` wraps each phase (warm-up, ROI) of a
single-core run in its own cProfile and returns per-function rows; the
``repro profile`` subcommand renders them.  See ``docs/observability.md``.
"""

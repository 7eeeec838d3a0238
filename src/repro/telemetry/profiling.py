"""cProfile hooks for the simulator hot path, split by phase.

``Cpu.run`` is the simulator's single hottest loop (its inlined body is
hand-optimized — see :mod:`repro.sim.cpu`), and the interesting
question is always *where a phase spends its time*: warm-up exercises
cold caches and heavy prefetcher training, the ROI the steady state.
:func:`profile_phases` drives the same warm-up/ROI split as
:func:`repro.sim.engine.simulate`, wrapping each phase's ``Cpu.run``
call in its own :class:`cProfile.Profile`, and returns structured
per-function rows the ``repro profile`` subcommand renders as tables.

:func:`profile_job` applies the same treatment to a runner
:class:`~repro.runner.job.JobSpec`, so any cacheable cell (a sweep
point, a golden-stats cell) can be profiled exactly as the parallel
runner would execute it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memsys.hierarchy import build_hierarchy
from repro.params import SystemParams
from repro.prefetchers.base import Prefetcher
from repro.sim.cpu import Cpu
from repro.sim.trace import Trace


@dataclass(frozen=True)
class FunctionStat:
    """One function's share of a profiled phase."""

    name: str  # "file:lineno(function)" with the path basenamed
    calls: int
    tottime: float  # seconds spent in the function itself
    cumtime: float  # seconds including callees


@dataclass(frozen=True)
class PhaseProfile:
    """Profile of one simulation phase (warm-up or ROI)."""

    phase: str
    instructions: int
    cycles: int
    wall_seconds: float
    functions: tuple[FunctionStat, ...]

    def rows(self) -> list[list]:
        """Table rows for :func:`repro.stats.report.format_table`."""
        return [
            [stat.name, stat.calls, stat.tottime, stat.cumtime]
            for stat in self.functions
        ]


def _top_functions(profiler: cProfile.Profile, top: int
                   ) -> tuple[tuple[FunctionStat, ...], float]:
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, lineno, funcname), entry in stats.stats.items():
        _, ncalls, tottime, cumtime, _ = entry
        label = f"{os.path.basename(filename)}:{lineno}({funcname})"
        rows.append(FunctionStat(
            name=label, calls=ncalls, tottime=tottime, cumtime=cumtime,
        ))
    rows.sort(key=lambda stat: (-stat.tottime, stat.name))
    return tuple(rows[:top]), stats.total_tt


def profile_phases(
    trace: Trace,
    l1_prefetcher: Prefetcher | None = None,
    l2_prefetcher: Prefetcher | None = None,
    llc_prefetcher: Prefetcher | None = None,
    params: SystemParams | None = None,
    warmup: int | None = None,
    top: int = 12,
) -> list[PhaseProfile]:
    """Profile the simulator over ``trace``, one profile per phase.

    Mirrors :func:`repro.sim.engine.simulate`'s structure — warm-up
    (default 20% of the trace), statistics reset, then the ROI — so the
    profile describes exactly the code paths a real run executes.
    """
    if top < 1:
        raise ConfigurationError("top must be >= 1")
    params = params or SystemParams()
    hierarchy = build_hierarchy(
        params,
        l1_prefetcher=l1_prefetcher,
        l2_prefetcher=l2_prefetcher,
        llc_prefetcher=llc_prefetcher,
    )
    cpu = Cpu(hierarchy, params.core)
    warmup = warmup if warmup is not None else len(trace) // 5
    warmup = min(warmup, len(trace))

    profiles: list[PhaseProfile] = []
    for phase, records in (("warmup", trace[:warmup]),
                           ("roi", trace[warmup:])):
        if not len(records):
            continue
        profiler = cProfile.Profile()
        start_instr, start_cycle = cpu.mark()
        profiler.enable()
        cpu.run(records)
        profiler.disable()
        functions, total = _top_functions(profiler, top)
        profiles.append(PhaseProfile(
            phase=phase,
            instructions=cpu.retired - start_instr,
            cycles=cpu.cycle - start_cycle,
            wall_seconds=total,
            functions=functions,
        ))
        if phase == "warmup":
            hierarchy.reset_stats()
    return profiles


def profile_job(spec, top: int = 12) -> list[PhaseProfile]:
    """Profile one runner :class:`~repro.runner.job.JobSpec` cell.

    Only the ``levels`` kind carries a registered configuration a
    profile can rebuild; other kinds raise :class:`ConfigurationError`.
    """
    from repro.prefetchers import make_prefetcher
    from repro.runner.job import KIND_LEVELS

    if spec.kind != KIND_LEVELS:
        raise ConfigurationError(
            f"cannot profile a {spec.kind!r} job; expected levels"
        )
    levels = make_prefetcher(spec.config_name)
    built = {level: factory() for level, factory in levels.items()}
    return profile_phases(
        spec.build_trace(),
        l1_prefetcher=built.get("l1"),
        l2_prefetcher=built.get("l2"),
        llc_prefetcher=built.get("llc"),
        params=spec.params,
        warmup=spec.warmup,
        top=top,
    )

"""Measurement cells: the experiments behind the claim registry.

A :class:`Cell` computes a batch of named values (``fig8.mem.ipcp``,
``abl.nl.delta`` ...) from live simulations.  Cells draw every
simulation through one shared :class:`repro.runner.SimulationRunner`
(the :class:`CellContext` owns it), so

* the whole claim run parallelizes under ``--jobs`` and persists in the
  content-addressed result cache — a warm re-check replays cached
  results instead of re-simulating, and
* the resilience layer (retries, timeouts) applies to every
  cell uniformly.

:class:`ClaimEngine` resolves the cell dependency set of the requested
claims, computes each cell once (timing it for BENCH telemetry), then
evaluates the claims against the merged value dict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import ExperimentRunner
from repro.errors import ConfigurationError
from repro.runner import SimulationRunner, levels_job, mix_job
from repro.sim.trace import Trace
from repro.stats.metrics import (
    geometric_mean,
    normalized_weighted_speedup,
)

from repro.paperclaims.claims import Claim, ClaimVerdict

#: Fixed workload scales — constants, not knobs: the regenerated
#: EXPERIMENTS.md must be byte-identical across runs and machines, so
#: the claim harness always measures the same grid.
SUITE_SCALE = 0.5
SWEEP_SCALE = 0.4
MIX_SCALE = 0.25
MIXDIST_SCALE = 0.2


@dataclass(frozen=True)
class Cell:
    """One named measurement producing a dict of ``{key: value}``."""

    id: str
    title: str
    compute: Callable[["CellContext"], dict[str, float]]


class CellContext:
    """Shared suites/runners for cell computations (built lazily).

    Everything here is memoized per run: several cells share the
    memory-intensive suite runner, the sweep traces and the mix specs,
    and each underlying simulation cell is resolved at most once per
    process (and at most once *ever* with the persistent cache).
    """

    def __init__(self, backend: SimulationRunner) -> None:
        self.backend = backend
        self._memo: dict[str, object] = {}

    def _cached(self, key: str, build: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- suites ----------------------------------------------------- #

    @property
    def mem_runner(self) -> ExperimentRunner:
        """Memory-intensive suite at the claim-harness suite scale."""
        from repro.workloads import memory_intensive_suite

        return self._cached("mem_runner", lambda: ExperimentRunner(
            memory_intensive_suite(scale=SUITE_SCALE), runner=self.backend))

    @property
    def full_runner(self) -> ExperimentRunner:
        """Full synthetic-SPEC suite at the claim-harness suite scale."""
        from repro.workloads import full_suite

        return self._cached("full_runner", lambda: ExperimentRunner(
            full_suite(scale=SUITE_SCALE), runner=self.backend))

    @property
    def neural_runner(self) -> ExperimentRunner:
        """CNN/RNN kernel suite (Fig. 14b's single-core sweep)."""
        from repro.workloads import neural_suite

        return self._cached("neural_runner", lambda: ExperimentRunner(
            neural_suite(scale=SWEEP_SCALE), runner=self.backend))

    def spec_runner(self, names: tuple[str, ...],
                    scale: float = SWEEP_SCALE) -> ExperimentRunner:
        """A runner over specific SPEC-like traces (sweeps/ablations)."""
        from repro.workloads import spec_trace

        key = f"spec_runner:{','.join(names)}@{scale}"
        return self._cached(key, lambda: ExperimentRunner(
            [spec_trace(name, scale) for name in names],
            runner=self.backend))

    def spec_traces(self, names: tuple[str, ...],
                    scale: float = SWEEP_SCALE) -> list[Trace]:
        """Memoized SPEC-like traces for sweeps that bypass runners."""
        from repro.workloads import spec_trace

        key = f"spec_traces:{','.join(names)}@{scale}"
        return self._cached(
            key, lambda: [spec_trace(name, scale) for name in names])

    # -- helpers over runners --------------------------------------- #

    def mean_speedups(self, runner: ExperimentRunner,
                      configs: list[str]) -> dict[str, float]:
        """Geomean speedup per config, resolved in one fan-out."""
        runner.ensure(
            (name, config)
            for name in runner.traces
            for config in [*configs, "none"]
        )
        return {config: runner.mean_speedup(config) for config in configs}

    def dram_overhead(self, runner: ExperimentRunner,
                      config: str) -> float:
        """Mean per-trace DRAM-traffic overhead of ``config`` vs none."""
        overheads = []
        for name in runner.traces:
            base = runner.result(name, "none")
            result = runner.result(name, config)
            if base.dram_bytes:
                overheads.append(result.dram_bytes / base.dram_bytes - 1.0)
        return sum(overheads) / len(overheads)

    def ipc_geomean(self, traces: list[Trace], config: str,
                    params) -> float:
        """Geomean absolute IPC of ``config`` on ``traces`` @ ``params``."""
        specs = [levels_job(trace, config, params) for trace in traces]
        results = self.backend.run(specs)
        return geometric_mean([result.ipc for result in results])

    # -- multicore mixes -------------------------------------------- #

    def mix_nws(self, traces: list[Trace], configs: list[str],
                warmup: int, roi: int) -> dict[str, float]:
        """Normalized weighted speedup per config for one mix.

        The baseline ("none") and every configuration run as cacheable
        :func:`repro.runner.mix_job` cells through the shared backend.
        """
        specs = [mix_job(traces, config, warmup=warmup, roi=roi)
                 for config in ["none", *configs]]
        base, *results = self.backend.run(specs)
        return {
            config: normalized_weighted_speedup(result, base)
            for config, result in zip(configs, results)
        }


@dataclass
class EngineReport:
    """Everything one claim run produced."""

    values: dict[str, float]
    verdicts: list[ClaimVerdict]
    cell_seconds: dict[str, float]
    claims: list[Claim]
    simulations_run: int = 0
    cache_hits: int = 0

    @property
    def passed(self) -> int:
        """How many evaluated claims hold."""
        return sum(1 for verdict in self.verdicts if verdict.passed)

    @property
    def failed(self) -> int:
        """How many evaluated claims flipped."""
        return sum(1 for verdict in self.verdicts if not verdict.passed)

    @property
    def ok(self) -> bool:
        """True when every evaluated claim holds."""
        return self.failed == 0

    @property
    def cached_replay_rate(self) -> float:
        """Fraction of simulation cells served from the result cache."""
        total = self.simulations_run + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def by_section(self) -> dict[str, tuple[int, int]]:
        """``{section: (passed, failed)}`` over the evaluated claims."""
        sections: dict[str, list[int]] = {}
        for claim, verdict in zip(self.claims, self.verdicts):
            bucket = sections.setdefault(claim.section, [0, 0])
            bucket[0 if verdict.passed else 1] += 1
        return {name: (good, bad) for name, (good, bad) in sections.items()}


class ClaimEngine:
    """Schedule cells, merge values, evaluate claims.

    ``cells`` and ``claims`` are the full registry
    (:mod:`repro.paperclaims.registry`); ``only`` restricts evaluation
    to a claim subset and computes just the cells those claims need.
    """

    def __init__(self, cells: list[Cell], claims: list[Claim],
                 backend: SimulationRunner) -> None:
        self.cells = {cell.id: cell for cell in cells}
        self.claims = claims
        self.backend = backend
        for claim in claims:
            unknown = [cid for cid in claim.cells if cid not in self.cells]
            if unknown:
                raise ConfigurationError(
                    f"claim {claim.id!r} references unknown cells {unknown}")

    def select(self, only: list[str] | None) -> list[Claim]:
        """The claims to evaluate (validated ``--only`` subset or all)."""
        if not only:
            return list(self.claims)
        known = {claim.id: claim for claim in self.claims}
        missing = [cid for cid in only if cid not in known]
        if missing:
            raise ConfigurationError(
                f"unknown claim id(s) {missing}; "
                f"see `repro paper --list`")
        return [known[cid] for cid in only]

    def run(self, only: list[str] | None = None,
            progress: Callable[[str], None] | None = None) -> EngineReport:
        """Compute the needed cells once each and evaluate the claims."""
        claims = self.select(only)
        wanted: list[str] = []
        for claim in claims:
            for cell_id in claim.cells:
                if cell_id not in wanted:
                    wanted.append(cell_id)

        context = CellContext(self.backend)
        values: dict[str, float] = {}
        cell_seconds: dict[str, float] = {}
        for cell_id in wanted:
            cell = self.cells[cell_id]
            if progress:
                progress(f"cell {cell.id}: {cell.title}")
            start = time.perf_counter()
            produced = cell.compute(context)
            cell_seconds[cell.id] = time.perf_counter() - start
            collisions = set(produced) & set(values)
            if collisions:
                raise ConfigurationError(
                    f"cell {cell.id!r} re-produces value keys "
                    f"{sorted(collisions)}")
            values.update(produced)

        verdicts = [claim.evaluate(values) for claim in claims]
        return EngineReport(
            values=values,
            verdicts=verdicts,
            cell_seconds=cell_seconds,
            claims=claims,
            simulations_run=self.backend.simulations_run,
            cache_hits=self.backend.cache_hits,
        )

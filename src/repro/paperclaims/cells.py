"""Measurement cells: the experiments behind the claim registry.

A cell is a function ``ctx -> {key: value}`` that computes a batch of
named values (``fig8.mem.ipcp``, ``abl.nl.delta`` ...) from live
simulations; a :class:`~repro.paperclaims.claims.Claim` holds the cell
functions its predicates read.  Each cell resolves its whole grid in
one fan-out through one of two accessors: an
:class:`~repro.analysis.ExperimentRunner` grid of single-core
``(trace, config[, params])`` cells, or :meth:`CellContext.mix_gains`
for multicore mixes.  Both draw every simulation through one shared
:class:`repro.runner.SimulationRunner` (the :class:`CellContext` owns
it), so

* the whole claim run parallelizes under ``--jobs`` and persists in the
  content-addressed result cache — a warm re-check replays cached
  results instead of re-simulating, and
* the resilience layer (retries, timeouts) applies to every
  cell uniformly.

:class:`ClaimEngine` runs each distinct cell of the requested claims
once (timing it for BENCH telemetry), then checks each claim against
the values its own cells returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.analysis import ExperimentRunner
from repro.errors import ConfigurationError
from repro.runner import SimulationRunner, levels_job, mix_job
from repro.sim.trace import Trace
from repro.stats.metrics import (
    dram_traffic_overhead,
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


class CellContext:
    """Shared traces and runners for cell computations (built lazily).

    Everything here is memoized per run: :meth:`spec_trace` builds each
    ``(name, scale)`` trace once for every suite and cell that uses it,
    several cells share the memory-intensive suite runner and the sweep
    runners, and each underlying simulation cell is resolved at most
    once per process (and at most once *ever* with the persistent
    cache).
    """

    def __init__(self, backend: SimulationRunner) -> None:
        self.backend = backend
        self._memo: dict[str, object] = {}

    def _cached(self, key: str, build: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- traces and suites ------------------------------------------ #

    def spec_trace(self, name: str, scale: float) -> Trace:
        """One SPEC-like trace (default seed), built once per run."""
        from repro.workloads import spec_trace

        return self._cached(f"trace:{name}@{scale}",
                            lambda: spec_trace(name, scale))

    def spec_runner(self, names: tuple[str, ...],
                    scale: float = SWEEP_SCALE) -> ExperimentRunner:
        """A runner over specific SPEC-like traces, in ``names`` order."""
        key = f"spec_runner:{','.join(names)}@{scale}"
        return self._cached(key, lambda: ExperimentRunner(
            [self.spec_trace(name, scale) for name in names],
            runner=self.backend))

    @property
    def mem_runner(self) -> ExperimentRunner:
        """Memory-intensive suite at the claim-harness suite scale."""
        from repro.workloads import SPEC_BENCHMARKS

        return self.spec_runner(tuple(
            name for name, (_, intensive, _) in SPEC_BENCHMARKS.items()
            if intensive), SUITE_SCALE)

    @property
    def full_runner(self) -> ExperimentRunner:
        """Full synthetic-SPEC suite at the claim-harness suite scale."""
        from repro.workloads import SPEC_BENCHMARKS

        return self.spec_runner(tuple(SPEC_BENCHMARKS), SUITE_SCALE)

    @property
    def neural_runner(self) -> ExperimentRunner:
        """CNN/RNN kernel suite (Fig. 14b's single-core sweep)."""
        from repro.workloads import neural_suite

        return self._cached("neural_runner", lambda: ExperimentRunner(
            neural_suite(scale=SWEEP_SCALE), runner=self.backend))

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

    def speedup_cell(self, prefix: str, runner: ExperimentRunner,
                     configs: dict[str, str] | list[str]
                     ) -> dict[str, float]:
        """``{prefix.label: geomean speedup}`` for every ``{label:
        config}`` (a list labels each config by its own name), resolved
        in one fan-out by :meth:`mean_speedups`."""
        if not isinstance(configs, dict):
            configs = {config: config for config in configs}
        means = self.mean_speedups(runner, list(configs.values()))
        return {f"{prefix}.{label}": means[config]
                for label, config in configs.items()}

    def dram_overhead(self, runner: ExperimentRunner,
                      config: str) -> float:
        """Mean per-trace DRAM-traffic overhead of ``config`` vs none
        (:func:`repro.stats.metrics.dram_traffic_overhead`)."""
        overheads = [dram_traffic_overhead(runner.result(name, config),
                                           runner.result(name, "none"))
                     for name in runner.traces]
        return sum(overheads) / len(overheads)

    # -- multicore mixes -------------------------------------------- #

    def mix_gains(self, mixes: list[list[Trace]], configs: list[str],
                  warmup: int | list[int], roi: int,
                  mpki: bool = False) -> dict[str, list[float]]:
        """Normalized weighted speedup of every config on every mix.

        Returns ``{config: [NWS per mix]}``; each mix's baseline is the
        same mix with no prefetching.  ``warmup`` is one count for every
        mix or a list with one count per mix.  With ``mpki=True`` the
        dict also maps ``"mpki"`` to each mix's mean L1 demand MPKI over
        its cores' traces, each run alone on the single-core system with
        no prefetching.
        Every job — the :func:`repro.runner.mix_job` cells and the
        single-core ones — resolves in one fan-out through the shared
        backend.
        """
        if isinstance(warmup, int):
            warmup = [warmup] * len(mixes)
        columns = ["none", *configs]
        specs = [mix_job(traces, config, warmup=warm, roi=roi)
                 for traces, warm in zip(mixes, warmup)
                 for config in columns]
        if mpki:
            specs += [levels_job(trace, "none")
                      for traces in mixes for trace in traces]
        results = iter(self.backend.run(specs))
        gains: dict[str, list[float]] = {config: [] for config in configs}
        for _ in mixes:
            base, *rows = [next(results) for _ in columns]
            for config, result in zip(configs, rows):
                gains[config].append(normalized_weighted_speedup(result, base))
        if mpki:
            gains["mpki"] = [
                sum(next(results).mpki("l1") for _ in traces) / len(traces)
                for traces in mixes
            ]
        return gains


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
    """Run cells once each, then check every claim against its own.

    ``claims`` is the full registry (:data:`repro.paperclaims.registry.
    CLAIMS`); ``only`` restricts evaluation to a claim subset and runs
    just the cells those claims hold.
    """

    def __init__(self, claims: list[Claim],
                 backend: SimulationRunner) -> None:
        self.claims = claims
        self.backend = backend

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
        """Run each needed cell once, in first-use order, and check
        each claim against the values of its own cells."""
        claims = self.select(only)
        context = CellContext(self.backend)
        produced: dict[Callable, dict[str, float]] = {}
        values: dict[str, float] = {}
        cell_seconds: dict[str, float] = {}
        for cell in dict.fromkeys(cell for claim in claims
                                  for cell in claim.cells):
            # The progress line and BENCH's per-cell timing key.
            name = cell.__name__.removeprefix("_cell_")
            if progress:
                progress(f"cell {name}")
            start = time.perf_counter()
            produced[cell] = cell(context)
            cell_seconds[name] = time.perf_counter() - start
            collisions = set(produced[cell]) & set(values)
            if collisions:
                raise ConfigurationError(
                    f"cell {name!r} re-produces value keys "
                    f"{sorted(collisions)}")
            values.update(produced[cell])

        verdicts = [
            claim.evaluate({key: value for cell in claim.cells
                            for key, value in produced[cell].items()})
            for claim in claims
        ]
        return EngineReport(
            values=values,
            verdicts=verdicts,
            cell_seconds=cell_seconds,
            claims=claims,
            simulations_run=self.backend.simulations_run,
            cache_hits=self.backend.cache_hits,
        )

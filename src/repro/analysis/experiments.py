"""High-level experiment runner behind the claim cells and the CLI.

:class:`ExperimentRunner` runs (trace x named-configuration) cells on
top of :class:`repro.runner.SimulationRunner`: cells fan out across
worker processes (``jobs=N``), land in a persistent content-addressed
cache (``cache_dir=...``) and are additionally memoized in-process, so
a claim run that measures several figures over the same suite
simulates each cell at most once — and a *second* run over the same
suite simulates nothing at all.  Named configurations come
from the prefetcher registry
(:func:`repro.prefetchers.make_prefetcher`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.params import SystemParams
from repro.prefetchers import make_prefetcher
from repro.resilience import JobFailure
from repro.runner import ResultCache, SimulationRunner, levels_job
from repro.sim.engine import SimResult, simulate
from repro.sim.trace import Trace
from repro.stats.metrics import geometric_mean, speedup


def _cell_speedup(result, baseline):
    """Speedup of one degraded-grid cell; failures propagate as cells.

    A runner in degraded mode resolves terminally-failed jobs to
    :class:`JobFailure` values instead of raising, so a partial grid
    still renders — with the failure (not a bogus number) in any cell
    whose own result or baseline is missing.
    """
    if isinstance(result, JobFailure):
        return result
    if isinstance(baseline, JobFailure):
        return baseline
    return speedup(result, baseline)


def run_levels(
    trace: Trace,
    config_name: str,
    params: SystemParams | None = None,
) -> SimResult:
    """Simulate one trace under one registered configuration."""
    levels = make_prefetcher(config_name)
    return simulate(
        trace,
        l1_prefetcher=levels["l1"]() if "l1" in levels else None,
        l2_prefetcher=levels["l2"]() if "l2" in levels else None,
        llc_prefetcher=levels["llc"]() if "llc" in levels else None,
        params=params,
    )


class ExperimentRunner:
    """Memoizing (trace, config) -> SimResult runner over a fixed suite.

    ``jobs`` and ``cache_dir`` configure a private
    :class:`SimulationRunner`; alternatively a shared ``runner`` may be
    injected (the claim harness does this so every claim cell draws
    from one pool and one cache).  ``engine`` selects the
    simulation engine for every cell this runner produces (see
    :mod:`repro.sim.batched`); results are engine-independent, but
    cache keys are engine-salted.
    """

    def __init__(
        self,
        traces: list[Trace],
        params: SystemParams | None = None,
        jobs: int = 1,
        cache_dir: str | None = None,
        runner: SimulationRunner | None = None,
        engine: str = "scalar",
    ) -> None:
        self.traces = {trace.name: trace for trace in traces}
        self.params = params
        self.engine = engine
        if runner is None:
            cache = ResultCache(cache_dir) if cache_dir else None
            runner = SimulationRunner(jobs=jobs, cache=cache)
        self.runner = runner
        self._cache: dict[tuple[str, str], SimResult] = {}

    @property
    def simulations_run(self) -> int:
        """Simulations actually executed (cache hits excluded)."""
        return self.runner.simulations_run

    def _spec(self, trace_name: str, config_name: str):
        return levels_job(
            self.traces[trace_name], config_name, self.params,
            engine=self.engine,
        )

    def ensure(self, cells: Iterable[tuple[str, str]]) -> None:
        """Resolve a batch of (trace, config) cells in one fan-out.

        This is where parallelism comes from: a figure that needs a
        whole grid should ensure it up front rather than pulling cells
        one at a time through :meth:`result`.
        """
        missing: list[tuple[str, str]] = []
        for cell in cells:
            if cell not in self._cache and cell not in missing:
                missing.append(cell)
        if not missing:
            return
        specs = [self._spec(*cell) for cell in missing]
        for cell, payload in zip(missing, self.runner.run(specs)):
            self._cache[cell] = payload

    def result(self, trace_name: str, config_name: str) -> SimResult:
        """Run (or recall) one cell."""
        key = (trace_name, config_name)
        if key not in self._cache:
            self.ensure([key])
        return self._cache[key]

    def speedups(self, config_name: str, baseline: str = "none"
                 ) -> dict[str, float]:
        """Per-trace speedup of ``config_name`` over ``baseline``."""
        self.ensure(
            (name, config)
            for name in self.traces
            for config in (config_name, baseline)
        )
        return {
            name: _cell_speedup(
                self.result(name, config_name), self.result(name, baseline)
            )
            for name in self.traces
        }

    def mean_speedup(self, config_name: str, baseline: str = "none"):
        """Geometric-mean speedup over the suite (the paper's averages).

        If any contributing cell failed (degraded runner), the mean is
        that failure — an explicit ``FAILED(...)`` beats a silently
        partial geomean.
        """
        values = list(self.speedups(config_name, baseline).values())
        for value in values:
            if isinstance(value, JobFailure):
                return value
        return geometric_mean(values)

    def speedup_table(
        self, config_names: list[str], baseline: str = "none"
    ) -> list[list]:
        """Rows of [trace, speedup_per_config...] plus a geomean row."""
        self.ensure(
            (name, config)
            for name in self.traces
            for config in [*config_names, baseline]
        )
        rows = []
        for name in self.traces:
            row: list = [name]
            for config in config_names:
                row.append(
                    _cell_speedup(self.result(name, config),
                                  self.result(name, baseline))
                )
            rows.append(row)
        mean_row: list = ["geomean"]
        for config in config_names:
            mean_row.append(self.mean_speedup(config, baseline))
        rows.append(mean_row)
        return rows

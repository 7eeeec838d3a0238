"""High-level experiment runner behind the claim cells and the CLI.

:class:`ExperimentRunner` runs (trace x named-configuration x system
parameters) cells on top of :class:`repro.runner.SimulationRunner`:
cells fan out across the runner's worker processes, land in its
persistent content-addressed cache and are additionally memoized
in-process, so a claim run that measures several figures over the same
suite simulates each cell at most once — and a *second* run over the
same suite simulates nothing at all.  A sensitivity sweep is the same
grid with the system parameters as one more coordinate.  Named
configurations come from the prefetcher registry
(:func:`repro.prefetchers.build_levels`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.params import SystemParams
from repro.prefetchers import build_levels
from repro.runner import SimulationRunner, levels_job
from repro.sim.engine import SimResult, simulate
from repro.sim.trace import Trace
from repro.stats.metrics import geometric_mean, speedup


def run_levels(
    trace: Trace,
    config_name: str,
    params: SystemParams | None = None,
) -> SimResult:
    """Simulate one trace under one registered configuration."""
    return simulate(trace, *build_levels(config_name), params=params)


class ExperimentRunner:
    """Memoizing ``(trace, config[, params]) -> SimResult`` grid over a suite.

    A cell names a trace of the suite, a registered configuration and,
    optionally, the :class:`SystemParams` to simulate it on (``None``,
    the default, is Table II).  ``runner`` is the
    :class:`SimulationRunner` every cell resolves through (default:
    serial and uncached); the claim harness and the CLI pass a shared
    one, so every grid draws from one pool and one cache.
    """

    def __init__(
        self,
        traces: list[Trace],
        runner: SimulationRunner | None = None,
    ) -> None:
        self.traces = {trace.name: trace for trace in traces}
        self.runner = runner if runner is not None else SimulationRunner()
        self._cache: dict[tuple, SimResult] = {}

    @property
    def simulations_run(self) -> int:
        """Simulations actually executed (cache hits excluded)."""
        return self.runner.simulations_run

    def ensure(self, cells: Iterable[tuple]) -> None:
        """Resolve a batch of ``(trace, config[, params])`` cells in one
        fan-out.

        This is where parallelism comes from: a figure that needs a
        whole grid — every swept parameter point included — should
        ensure it up front rather than pulling cells one at a time
        through :meth:`result`.
        """
        missing: dict[tuple, None] = {}
        for cell in cells:
            key = tuple(cell) if len(cell) == 3 else (*cell, None)
            if key not in self._cache:
                missing[key] = None
        if not missing:
            return
        specs = [levels_job(self.traces[name], config, params)
                 for name, config, params in missing]
        for key, payload in zip(missing, self.runner.run(specs)):
            self._cache[key] = payload

    def result(self, trace_name: str, config_name: str,
               params: SystemParams | None = None) -> SimResult:
        """Run (or recall) one cell."""
        key = (trace_name, config_name, params)
        if key not in self._cache:
            self.ensure([key])
        return self._cache[key]

    def speedups(self, config_name: str,
                 params: SystemParams | None = None) -> dict[str, float]:
        """Per-trace speedup of ``config_name`` over no prefetching."""
        self.ensure(
            (name, config, params)
            for name in self.traces
            for config in (config_name, "none")
        )
        return {
            name: speedup(self.result(name, config_name, params),
                          self.result(name, "none", params))
            for name in self.traces
        }

    def mean_speedup(self, config_name: str,
                     params: SystemParams | None = None) -> float:
        """Geometric-mean speedup over the suite (the paper's averages)."""
        speedups = self.speedups(config_name, params)
        return geometric_mean(list(speedups.values()))

    def speedup_table(self, config_names: list[str]) -> list[list]:
        """Rows of [trace, speedup_per_config...] plus a geomean row."""
        self.ensure(
            (name, config)
            for name in self.traces
            for config in [*config_names, "none"]
        )
        rows = []
        for name in self.traces:
            row: list = [name]
            for config in config_names:
                row.append(speedup(self.result(name, config),
                                   self.result(name, "none")))
            rows.append(row)
        mean_row: list = ["geomean"]
        for config in config_names:
            mean_row.append(self.mean_speedup(config))
        rows.append(mean_row)
        return rows

    def sweep_table(
        self,
        config_names: list[str],
        points: Iterable[tuple[str, SystemParams]],
    ) -> list[list]:
        """Rows of [point label, geomean speedup per config...].

        ``points`` are ``(label, params)`` pairs, one per swept value.
        The whole (point x trace x config) grid resolves in one
        fan-out.
        """
        points = list(points)
        self.ensure(
            (name, config, params)
            for _, params in points
            for name in self.traces
            for config in [*config_names, "none"]
        )
        return [
            [label] + [self.mean_speedup(config, params)
                       for config in config_names]
            for label, params in points
        ]

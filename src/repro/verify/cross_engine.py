"""Cross-engine equivalence gate: scalar vs batched, bit for bit.

The batched columnar engine (:mod:`repro.sim.batched`) is a pure
performance play — it must never change a result.  This harness runs
the golden (workload x registered-prefetcher) grid through *both*
engines with freshly built prefetchers and demands
``SimResult.__eq__`` on every cell, which covers timing (instructions,
cycles), every cache-stats field, DRAM traffic and the full prefetcher
counter summaries.  A handful of edge cells stress the boundaries the
fused loop special-cases: zero warm-up, warm-up covering the whole
trace, an ROI instruction budget, and a tiny columnar gather window.

The scalar engine is the oracle; the batched engine is on trial.  A
cell where the batched engine *fell back* to scalar still counts as a
pass (the fallback is part of its contract), but the report says so —
CI asserts a minimum fused coverage so the fast path cannot silently
rot into "always fall back".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TraceError
from repro.params import SystemParams
from repro.prefetchers import available_prefetchers, build_levels
from repro.sim.batched import simulate_batched, support_reason
from repro.sim.engine import simulate
from repro.verify.golden import GOLDEN_SCALE, GOLDEN_WORKLOADS
from repro.workloads import spec_trace

#: (warmup, max_instructions, chunk_records) tuples exercised on one
#: workload/config pair beyond the default-parameter grid.
EDGE_CASES = (
    (0, None, 8192),
    (10_000_000, None, 8192),
    (None, 1_000, 8192),
    (17, 2_500, 64),
)


@dataclass(frozen=True)
class EngineCell:
    """Outcome of one scalar-vs-batched comparison cell."""

    workload: str
    config: str
    label: str
    fused: bool
    reason: str | None
    match: bool

    def describe(self) -> str:
        """One human-readable report line for this cell."""
        path = "fused" if self.fused else f"fallback ({self.reason})"
        verdict = "ok" if self.match else "MISMATCH"
        return f"{self.label}: {verdict} [{path}]"


@dataclass(frozen=True)
class CrossEngineReport:
    """Aggregate verdict of a cross-engine verification run."""

    cells: tuple[EngineCell, ...]

    @property
    def mismatches(self) -> tuple[EngineCell, ...]:
        """Cells where the two engines disagreed (must be empty)."""
        return tuple(cell for cell in self.cells if not cell.match)

    @property
    def fused_cells(self) -> int:
        """How many cells actually exercised the fused columnar loop."""
        return sum(1 for cell in self.cells if cell.fused)

    @property
    def ok(self) -> bool:
        """True when every cell matched bit for bit."""
        return not self.mismatches

    def describe(self) -> str:
        """Multi-line summary: totals plus every mismatching cell."""
        lines = [
            f"cross-engine: {len(self.cells)} cells, "
            f"{self.fused_cells} fused, "
            f"{len(self.cells) - self.fused_cells} fallback, "
            f"{len(self.mismatches)} mismatches"
        ]
        lines.extend(cell.describe() for cell in self.mismatches)
        return "\n".join(lines)


def _compare(trace, config: str, label: str, warmup=None,
             max_instructions=None, chunk_records=8192) -> EngineCell:
    """Run one cell under both engines and diff the results."""
    scalar = simulate(
        trace, *build_levels(config),
        warmup=warmup, max_instructions=max_instructions,
    )
    levels = build_levels(config)
    reason = support_reason(trace, *levels, SystemParams(), None)
    batched = simulate_batched(
        trace, *levels,
        warmup=warmup, max_instructions=max_instructions,
        chunk_records=chunk_records,
    )
    return EngineCell(
        workload=trace.name,
        config=config,
        label=label,
        fused=reason is None,
        reason=reason,
        match=scalar == batched,
    )


def _ingest_round_trip_trace(trace):
    """A trace round-tripped through a RIB1 file.

    Writes the workload with :func:`~repro.ingest.write_binary`, then
    strict-ingests it back — the exact path a trace file takes into the
    simulator.  The twin must hold the source's records; it carries a
    new name, so it is a separate cell that both engines must agree on
    too.
    """
    import os
    import tempfile

    from repro.ingest import ingest_binary, write_binary

    name = f"{trace.name}.rib"
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, name)
        write_binary(trace, path)
        ingested, _ = ingest_binary(path, name=name)
    if list(ingested) != list(trace):
        raise TraceError(f"{name}: the RIB1 round trip changed the records")
    return ingested


def run_cross_engine(
    workloads: tuple[str, ...] = GOLDEN_WORKLOADS,
    prefetchers: list[str] | None = None,
    scale: float = GOLDEN_SCALE,
    edge_cases: bool = True,
) -> CrossEngineReport:
    """Verify scalar/batched equivalence over the golden grid.

    Every (workload, config) cell is simulated twice — once per engine,
    each time with freshly constructed prefetchers so no state leaks
    between runs — and the two :class:`repro.sim.engine.SimResult`
    values must compare equal.  One extra cell round-trips the first
    workload through a RIB1 trace file so traces read by ``repro
    run-trace`` are covered by the same equivalence demand.  With
    ``edge_cases`` the harness also sweeps the warm-up/budget/chunking
    boundary combinations in :data:`EDGE_CASES` on the first workload
    under the full IPCP configuration.
    """
    if prefetchers is None:
        prefetchers = available_prefetchers()
    cells: list[EngineCell] = []
    traces = [spec_trace(name, scale) for name in workloads]
    for trace in traces:
        for config in prefetchers:
            cells.append(_compare(trace, config, f"{trace.name}/{config}"))
    if traces:
        ingested = _ingest_round_trip_trace(traces[0])
        cells.append(_compare(
            ingested, "ipcp", f"{ingested.name}/ipcp[ingest-round-trip]",
        ))
    if edge_cases and traces:
        trace = traces[0]
        for warmup, budget, chunk in EDGE_CASES:
            label = (f"{trace.name}/ipcp"
                     f"[warmup={warmup},max={budget},chunk={chunk}]")
            cells.append(_compare(
                trace, "ipcp", label,
                warmup=warmup, max_instructions=budget,
                chunk_records=chunk,
            ))
    return CrossEngineReport(cells=tuple(cells))

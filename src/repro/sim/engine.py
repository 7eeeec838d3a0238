"""Single-core simulation driver.

Mirrors the paper's methodology: warm the caches for a number of
instructions, reset all statistics, then measure a region of interest
(ROI).  The paper warms for 50 M and measures 200 M sim-point
instructions on ChampSim; our synthetic traces are far shorter, so the
defaults scale down proportionally while keeping the warm-up/ROI split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memsys.cache import CacheStats, InstructionCounter
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import Hierarchy, build_hierarchy
from repro.params import SystemParams
from repro.prefetchers.base import Prefetcher, PrefetcherSummary
from repro.sim.cpu import Cpu
from repro.sim.trace import Trace


@dataclass
class SimResult:
    """Everything a figure/table needs from one single-core run.

    The prefetcher fields are :class:`PrefetcherSummary` snapshots — not
    live prefetcher objects — so a result pickles cleanly across process
    boundaries and into the persistent result cache without dragging
    prefetcher internals (tables, filters, throttlers) along.
    """

    trace_name: str
    prefetcher_name: str
    instructions: int
    cycles: int
    l1: CacheStats
    l2: CacheStats
    llc: CacheStats
    dram_reads: int
    dram_writes: int
    l1_prefetcher: PrefetcherSummary | None = None
    l2_prefetcher: PrefetcherSummary | None = None

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the measured region."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def mpki(self, level: str) -> float:
        """Demand-miss MPKI at ``level`` ('l1', 'l2' or 'llc')."""
        stats = getattr(self, level)
        if not self.instructions:
            return 0.0
        return stats.demand_misses * 1000.0 / self.instructions

    @property
    def dram_bytes(self) -> int:
        """DRAM traffic (bytes) over the measured region."""
        return (self.dram_reads + self.dram_writes) * 64

    def speedup_over(self, baseline: "SimResult") -> float:
        """IPC speedup of this run relative to ``baseline``."""
        return self.ipc / baseline.ipc if baseline.ipc else 0.0

    @classmethod
    def of_run(cls, trace: Trace, l1_prefetcher: Prefetcher | None,
               l2_prefetcher: Prefetcher | None, instructions: int,
               cycles: int, l1: CacheStats, l2: CacheStats,
               llc: CacheStats, dram: Dram) -> "SimResult":
        """The result of one run of ``trace``, named after its L1 and L2
        prefetchers (``"none"`` without an L1 one) and holding their
        summaries, the three levels' statistics and ``dram``'s traffic."""
        pf_name = l1_prefetcher.name if l1_prefetcher is not None else "none"
        if l2_prefetcher is not None:
            pf_name += f"+{l2_prefetcher.name}@L2"
        return cls(
            trace_name=trace.name, prefetcher_name=pf_name,
            instructions=instructions, cycles=cycles, l1=l1, l2=l2, llc=llc,
            dram_reads=dram.reads, dram_writes=dram.writes,
            l1_prefetcher=(l1_prefetcher.summary()
                           if l1_prefetcher is not None else None),
            l2_prefetcher=(l2_prefetcher.summary()
                           if l2_prefetcher is not None else None),
        )


def warmup_length(trace: Trace, warmup: int | None) -> int:
    """How many of ``trace``'s records warm the machine up before the ROI.

    ``None`` means the paper's split, 20% of the trace; any warm-up is
    clamped to the trace's length.
    """
    return min(len(trace) // 5 if warmup is None else warmup, len(trace))


class _IdealHierarchy:
    """Stand-in hierarchy where every load hits the L1 (100% hit rate).

    The paper frames prefetching's opportunity as "an ideal solution to
    the memory wall would be an L1-D hit rate of 100%"; simulating
    against this stub measures that upper bound for any trace.
    """

    def __init__(self, l1_latency: int) -> None:
        self.latency = l1_latency
        self.instruction_counter = InstructionCounter()

    def tick_instruction(self, count: int = 1) -> None:
        self.instruction_counter.value += count

    def load(self, vaddr: int, ip: int, cycle: int) -> int:
        return cycle + self.latency

    def store(self, vaddr: int, ip: int, cycle: int) -> int:
        return cycle + 1


def simulate_ideal(
    trace: Trace,
    params: SystemParams | None = None,
    warmup: int | None = None,
) -> float:
    """IPC of ``trace`` with a perfect L1 (every load a 5-cycle hit).

    This is the paper's Section I opportunity bound: the best any
    prefetcher could possibly do on this trace and core.
    """
    params = params or SystemParams()
    hierarchy = _IdealHierarchy(params.l1d.latency)
    cpu = Cpu(hierarchy, params.core)
    warmup = warmup_length(trace, warmup)
    cpu.run(trace[:warmup])
    start_instr, start_cycle = cpu.mark()
    cpu.run(trace[warmup:])
    cycles = cpu.cycle - start_cycle
    instructions = cpu.retired - start_instr
    return instructions / cycles if cycles else 0.0


def simulate(
    trace: Trace,
    l1_prefetcher: Prefetcher | None = None,
    l2_prefetcher: Prefetcher | None = None,
    llc_prefetcher: Prefetcher | None = None,
    params: SystemParams | None = None,
    warmup: int | None = None,
    max_instructions: int | None = None,
    hierarchy: Hierarchy | None = None,
    engine: str = "scalar",
) -> SimResult:
    """Run one trace through one prefetcher configuration.

    ``warmup`` defaults to 20% of the trace; ``max_instructions`` caps
    the ROI length.  A pre-built ``hierarchy`` may be supplied (used by
    the multicore engine and by tests that inspect internals).

    ``engine`` selects the execution strategy: ``"scalar"`` (this
    per-record loop, the reference semantics) or ``"batched"``, which
    dispatches to :func:`repro.sim.batched.simulate_batched` — a fused
    columnar engine that returns a bit-identical :class:`SimResult`
    and falls back to the scalar path for configurations it cannot
    model (:func:`repro.sim.batched.support_reason` says which; see
    :doc:`docs/engine`).  This is the only selector: the runner, the
    CLI and the claim registry always take the scalar path.
    """
    if engine == "batched":
        # Deferred import: repro.sim.batched imports this module for
        # the SimResult type and the scalar fallback, and only a
        # batched request needs it loaded.  The fallback calls
        # simulate() with the default engine, so dispatch cannot recurse.
        from repro.sim.batched import simulate_batched

        return simulate_batched(
            trace, l1_prefetcher, l2_prefetcher, llc_prefetcher,
            params=params, warmup=warmup,
            max_instructions=max_instructions,
            hierarchy=hierarchy,
        )
    if engine != "scalar":
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'scalar' or 'batched'"
        )
    params = params or SystemParams()
    if hierarchy is None:
        hierarchy = build_hierarchy(
            params,
            l1_prefetcher=l1_prefetcher,
            l2_prefetcher=l2_prefetcher,
            llc_prefetcher=llc_prefetcher,
        )
    cpu = Cpu(hierarchy, params.core)

    warmup = warmup_length(trace, warmup)
    cpu.run(trace[:warmup])
    hierarchy.reset_stats()
    roi_start_instr, roi_start_cycle = cpu.mark()

    roi_records = trace[warmup:]
    cpu.run(roi_records, max_instructions=max_instructions)
    instructions = cpu.retired - roi_start_instr
    cycles = cpu.cycle - roi_start_cycle

    return SimResult.of_run(
        trace, l1_prefetcher, l2_prefetcher, instructions, cycles,
        hierarchy.l1d.stats, hierarchy.l2.stats, hierarchy.llc.stats,
        hierarchy.dram,
    )

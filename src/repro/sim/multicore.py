"""Multicore simulation: private L1/L2 per core, shared LLC and DRAM.

Cores are interleaved in small chunks, always advancing the core whose
clock is furthest behind, so contention for the shared LLC and DRAM
channels happens at (approximately) the right relative times.  Per the
paper's methodology, every core must execute its full quota of ROI
instructions; cores that finish early replay their trace until the
slowest core is done.

The headline multicore metric is the *weighted speedup*
``sum_i IPC_together(i) / IPC_alone(i)`` where ``IPC_alone`` is measured
on the same shared system with all other cores idle; benchmarks then
normalise a prefetching configuration's weighted speedup to the
no-prefetching configuration's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.memsys.cache import Cache
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import DramPort, Hierarchy, build_hierarchy
from repro.params import DramParams, SystemParams, default_llc
from repro.prefetchers.base import Prefetcher
from repro.sim.cpu import Cpu
from repro.sim.trace import Trace

PrefetcherFactory = Callable[[], Prefetcher | None]

_CHUNK = 64  # instructions per scheduling quantum


@dataclass
class MixResult:
    """Outcome of one multicore mix."""

    trace_names: list[str]
    ipc_together: list[float]
    ipc_alone: list[float]
    dram_reads: int
    dram_writes: int

    @property
    def per_core_speedup(self) -> list[float]:
        """Each core's IPC_together(i) / IPC_alone(i) contribution.

        A degenerate core — zero or non-finite alone IPC (empty ROI
        window), or a non-finite together IPC — contributes a defined
        0.0 instead of propagating ``nan``/``inf`` into mix tables and
        claim predicates; :attr:`degenerate_cores` names the culprits.
        """
        return [
            together / alone
            if alone > 0.0 and math.isfinite(alone)
            and math.isfinite(together)
            else 0.0
            for together, alone in zip(self.ipc_together, self.ipc_alone)
        ]

    @property
    def degenerate_cores(self) -> tuple[int, ...]:
        """Indices of cores whose speedup contribution was zeroed."""
        return tuple(
            core
            for core, (together, alone) in enumerate(
                zip(self.ipc_together, self.ipc_alone)
            )
            if not (alone > 0.0 and math.isfinite(alone)
                    and math.isfinite(together))
        )

    @property
    def weighted_speedup(self) -> float:
        """sum_i IPC_together(i) / IPC_alone(i)."""
        return sum(self.per_core_speedup)

    @property
    def cores(self) -> int:
        """Number of cores in the mix."""
        return len(self.trace_names)


def _multicore_params(base: SystemParams, cores: int) -> SystemParams:
    """Scale the shared LLC/DRAM to the core count (Table II)."""
    dram = DramParams(
        channels=2 if cores > 1 else 1,
        bandwidth_gbps=base.dram.bandwidth_gbps,
        base_latency=base.dram.base_latency,
        core_ghz=base.dram.core_ghz,
    )
    return SystemParams(
        core=base.core,
        l1d=base.l1d,
        l2=base.l2,
        llc=default_llc(cores),
        dram=dram,
    )


def _run_cores(
    cpus: list[Cpu],
    quota: int,
    iterators: list,
) -> list[tuple[int, int]]:
    """Interleave cores until each retires ``quota`` more instructions.

    Each quantum is ``_CHUNK`` records through :meth:`Cpu.run` with
    ``drain=False``: the core's ROB stays in flight between quanta, as
    if it had stepped record by record.  Returns per-core (instructions,
    cycles) marks at the moment each core hit its quota (cores keep
    running afterwards to provide contention, as in the paper).
    """
    start = [cpu.mark() for cpu in cpus]
    finish_mark: list[tuple[int, int] | None] = [None] * len(cpus)
    pending = len(cpus)

    # Every core keeps running (replaying its trace) until the slowest
    # one reaches quota — finished cores must keep generating shared-LLC
    # and DRAM contention, exactly the paper's replay methodology.
    while pending:
        core = min(range(len(cpus)), key=lambda i: cpus[i].cycle)
        cpu = cpus[core]
        cpu.run(iterators[core], _CHUNK, drain=False)
        if finish_mark[core] is None and \
                cpu.retired - start[core][0] >= quota:
            cpu.finish()
            finish_mark[core] = (cpu.retired, cpu.cycle)
            pending -= 1
    return [
        (mark[0] - begin[0], mark[1] - begin[1])
        for mark, begin in zip(finish_mark, start)
    ]


def _build_shared_system(
    params: SystemParams,
    cores: int,
    l1_factory: PrefetcherFactory | None,
    l2_factory: PrefetcherFactory | None,
    llc_factory: PrefetcherFactory | None,
    seed: int,
) -> tuple[list[Hierarchy], Cache, Dram]:
    dram = Dram(params.dram)
    llc_pf = llc_factory() if llc_factory else None
    llc = Cache(params.llc, DramPort(dram), prefetcher=llc_pf)
    hierarchies = []
    for core in range(cores):
        hierarchies.append(
            build_hierarchy(
                params,
                l1_prefetcher=l1_factory() if l1_factory else None,
                l2_prefetcher=l2_factory() if l2_factory else None,
                shared_llc=llc,
                shared_dram=dram,
                vmem_seed=seed + core,
                asid=core,
            )
        )
    return hierarchies, llc, dram


def _simulate_together(
    traces: list[Trace],
    params: SystemParams,
    l1_factory,
    l2_factory,
    llc_factory,
    warmup: int,
    roi: int,
    seed: int,
) -> tuple[list[float], Dram]:
    cores = len(traces)
    hierarchies, llc, dram = _build_shared_system(
        params, cores, l1_factory, l2_factory, llc_factory, seed
    )
    cpus = [Cpu(h, params.core) for h in hierarchies]
    iterators = [trace.replay() for trace in traces]

    _run_cores(cpus, warmup, iterators)
    for hierarchy in hierarchies:
        hierarchy.reset_stats()
    llc.reset_stats()
    dram.reset_stats()

    marks = _run_cores(cpus, roi, iterators)
    ipcs = [instr / cycles if cycles else 0.0 for instr, cycles in marks]
    return ipcs, dram


def simulate_mix(
    traces: list[Trace],
    l1_factory: PrefetcherFactory | None = None,
    l2_factory: PrefetcherFactory | None = None,
    llc_factory: PrefetcherFactory | None = None,
    params: SystemParams | None = None,
    warmup: int = 5_000,
    roi: int = 20_000,
    seed: int = 1,
    runner=None,
) -> MixResult:
    """Simulate an N-core mix and return per-core IPCs + weighted speedup.

    Each core's alone IPC is one job of ``runner`` (a
    :class:`repro.runner.SimulationRunner`, default serial and
    uncached), all submitted in one call: the runner executes identical
    jobs once, so a homogeneous mix runs a single alone simulation, and
    a persistent cache replays them across mixes.

    Mixes always run on the scalar path: the cores interleave through
    one shared LLC/DRAM hierarchy, which the batched engine does not
    model (see :func:`repro.sim.batched.support_reason`).
    """
    mc_params = _multicore_params(params or SystemParams(), len(traces))

    ipcs, dram = _simulate_together(
        traces, mc_params, l1_factory, l2_factory, llc_factory,
        warmup, roi, seed,
    )

    # IPC_alone is always measured WITHOUT prefetching: the weighted
    # speedup then weights every configuration by the same per-core
    # denominator, so WS(config)/WS(none) reflects throughput gain (the
    # paper's "normalized weighted-speedup compared to a baseline with
    # no prefetching") rather than sensitivity to contention.
    from repro.runner import SimulationRunner, alone_ipc_job

    runner = runner or SimulationRunner()
    alone = runner.run([alone_ipc_job(trace, mc_params, warmup, roi, seed)
                        for trace in traces])

    return MixResult(
        trace_names=[t.name for t in traces],
        ipc_together=ipcs,
        ipc_alone=alone,
        dram_reads=dram.reads,
        dram_writes=dram.writes,
    )

"""Multicore mixes: weighted speedup under shared-LLC/DRAM contention.

Reproduces the paper's Section VI-D methodology in miniature: a 4-core
homogeneous mix (every core runs the same memory-intensive trace) and a
heterogeneous mix, comparing no prefetching against multi-level IPCP
using the normalized weighted speedup metric.

Run:  python examples/multicore_mix.py   (takes ~a minute)
"""

import tempfile

from repro import IpcpL1, IpcpL2
from repro.runner import ResultCache, SimulationRunner
from repro.sim.multicore import simulate_mix
from repro.stats import format_table, normalized_weighted_speedup
from repro.workloads import heterogeneous_mixes, homogeneous_mix


def run_mix(label, traces, runner):
    base = simulate_mix(traces, warmup=2_000, roi=8_000, runner=runner)
    ipcp = simulate_mix(traces, l1_factory=IpcpL1, l2_factory=IpcpL2,
                        warmup=2_000, roi=8_000, runner=runner)
    return [
        label,
        ", ".join(sorted(set(base.trace_names))),
        base.weighted_speedup,
        ipcp.weighted_speedup,
        normalized_weighted_speedup(ipcp, base),
    ]


def main() -> None:
    # The alone-IPC runs are prefetcher-independent: a result cache
    # computes each core's once, keyed by its trace's content.
    with tempfile.TemporaryDirectory() as cache_dir:
        runner = SimulationRunner(cache=ResultCache(cache_dir))
        rows = [
            run_mix("homogeneous lbm x4",
                    homogeneous_mix("lbm_like", 4, scale=0.25), runner),
            run_mix("homogeneous omnetpp x4",
                    homogeneous_mix("omnetpp_like", 4, scale=0.25), runner),
            run_mix("heterogeneous",
                    heterogeneous_mixes(1, 4, scale=0.25, seed=42)[0],
                    runner),
        ]
    print(format_table(
        ["mix", "benchmarks", "WS base", "WS IPCP", "normalized WS"],
        rows,
        title="4-core mixes: weighted speedup (paper average: IPCP +23.4%)",
    ))
    print("\nNote: omnetpp-style irregular mixes stay near 1.0 — no "
          "spatial prefetcher covers pointer chasing (Section VI-D).")


if __name__ == "__main__":
    main()

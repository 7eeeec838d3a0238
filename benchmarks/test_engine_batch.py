"""Batched-engine throughput across columnar gather-window sizes.

Companion guard to ``test_simulator_throughput.py``: sweeps the
batched engine's ``chunk_records`` knob (1k / 8k / 64k records per
gather window) on the region-of-interest workload under both the
no-prefetch baseline and the full IPCP bouquet, and asserts the
batched engine beats the scalar engine at *every* window size — the
chunking is a memory/locality trade-off, never a correctness or a
win/lose one.  Rates land in ``extra_info`` for BENCH_*.json.
"""

import time

from repro.core import IpcpL1, IpcpL2
from repro.sim.batched import simulate_batched
from repro.sim.engine import simulate
from repro.workloads import spec_trace

CHUNK_SIZES = (1_024, 8_192, 65_536)


def best_rate(trace, runner, reps):
    """Best-of-``reps`` records/second for ``runner(trace)``."""
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        runner(trace)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return len(trace) / best


def configs():
    """The two measured configurations: baseline and full IPCP."""
    return (
        ("baseline", lambda: {}),
        ("ipcp", lambda: {"l1_prefetcher": IpcpL1(),
                          "l2_prefetcher": IpcpL2()}),
    )


def test_engine_batch_sizes(benchmark, emit):
    trace = spec_trace("lbm_like", 0.5)

    def run():
        rates = {}
        for config, build in configs():
            rates[f"scalar_{config}"] = best_rate(
                trace, lambda t: simulate(t, **build()), reps=3)
            for chunk in CHUNK_SIZES:
                rates[f"batched_{config}_{chunk // 1024}k"] = best_rate(
                    trace,
                    lambda t, c=chunk: simulate_batched(
                        t, chunk_records=c, **build()),
                    reps=5)
        return rates

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rates"] = {k: round(v) for k, v in rates.items()}
    emit("engine_batch", "\n".join(
        [f"batched engine vs chunk size ({trace.name}, "
         f"{len(trace)} records)"]
        + [f"  {name}: {rate:,.0f} records/s"
           for name, rate in rates.items()]
    ))
    for config, _ in configs():
        scalar = rates[f"scalar_{config}"]
        for chunk in CHUNK_SIZES:
            assert rates[f"batched_{config}_{chunk // 1024}k"] >= scalar

"""Simulator throughput guard.

Not a paper artifact — a regression guard for the repository itself:
the claim harness only stays runnable if the simulator keeps
processing on the order of 10^5 instructions per second in pure
Python.  This bench measures records/second several ways — raw scalar
baseline, scalar with IPCP, the batched columnar engine on the same
workload, both engines on a compute-dense trace, cached replay through
the persistent result cache, and a 2-worker parallel fan-out — and
fails if raw throughput collapses by an order of magnitude, the cache
stops being a shortcut, or the batched engine loses its edge.  All
rates land in the pytest-benchmark JSON (``extra_info``) so
BENCH_*.json tracks the speedup trajectory over time.

The batched engine's headline gate runs on the compute-dense trace
(<1% memory events): suite workloads carry 14-20% memory events, and
the serialized cache/classifier updates on that event path bound any
engine's overall speedup to a few x (Amdahl); the dense mix isolates
the gap-kernel win the engine exists for.  Both mixes are reported so
the trade-off stays visible (docs/engine.md).
"""

import os
import time

from repro.core import IpcpL1, IpcpL2
from repro.runner import ResultCache, SimulationRunner, levels_job
from repro.sim.batched import simulate_batched
from repro.sim.engine import simulate
from repro.workloads import compute_dense_trace, spec_trace


def measure(trace, reps=1, engine=simulate, levels=None, **kwargs):
    """Best-of-``reps`` records/second for one engine on one trace.

    ``levels`` is a zero-argument factory returning fresh
    (l1, l2, llc) prefetchers per repetition, so no run ever observes
    trained state.  Best-of (not mean) because the guard compares two
    engines on one noisy machine: minima track the code's cost, means
    track the neighbours'.
    """
    best = None
    for _ in range(reps):
        l1, l2, llc = levels() if levels is not None else (None, None, None)
        start = time.perf_counter()
        engine(trace, l1_prefetcher=l1, l2_prefetcher=l2,
               llc_prefetcher=llc, **kwargs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return len(trace) / best


def measure_jobs(specs, total_records, jobs, cache=None):
    """Aggregate records/second resolving ``specs`` with ``jobs`` workers."""
    runner = SimulationRunner(jobs=jobs, cache=cache)
    start = time.perf_counter()
    runner.run(specs)
    elapsed = time.perf_counter() - start
    return total_records / elapsed


def ipcp_levels():
    """Fresh IPCP L1+L2 prefetchers (one pair per measured run)."""
    return IpcpL1(), IpcpL2(), None


def no_levels():
    return None, None, None


def test_simulator_throughput(benchmark, emit, tmp_path):
    trace = spec_trace("lbm_like", 0.5)
    dense = compute_dense_trace()

    # A >=4-trace suite for the parallel fan-out comparison (smaller
    # scale keeps the sequential leg of the comparison affordable).
    suite = [spec_trace(name, 0.25)
             for name in ("lbm_like", "bwaves_like", "fotonik_like",
                          "wrf_like")]
    suite_records = sum(len(t) for t in suite)
    suite_specs = [levels_job(t, "ipcp") for t in suite]

    cache = ResultCache(str(tmp_path / "simcache"))
    replay_spec = levels_job(trace, "ipcp")

    def run():
        rates = {
            "baseline": measure(trace, reps=3),
            "ipcp": measure(trace, reps=3, levels=ipcp_levels),
            "batched_baseline": measure(trace, reps=5,
                                        engine=simulate_batched),
            "batched_ipcp": measure(trace, reps=5, engine=simulate_batched,
                                    levels=ipcp_levels),
            "dense_baseline": measure(dense, reps=3),
            "dense_ipcp": measure(dense, reps=3, levels=ipcp_levels),
            "dense_batched_baseline": measure(dense, reps=5,
                                              engine=simulate_batched),
            "dense_batched_ipcp": measure(dense, reps=5,
                                          engine=simulate_batched,
                                          levels=ipcp_levels),
        }
        # Warm the cache once, then time a cold-process-equivalent
        # replay: the second resolution must be a pure cache hit.
        SimulationRunner(cache=cache).run([replay_spec])
        rates["cached_replay"] = measure_jobs(
            [replay_spec], len(trace), jobs=1, cache=cache
        )
        rates["parallel_1w"] = measure_jobs(suite_specs, suite_records, 1)
        rates["parallel_2w"] = measure_jobs(suite_specs, suite_records, 2)
        return rates

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rates"] = {k: round(v) for k, v in rates.items()}
    emit("simulator_throughput", "\n".join(
        [f"simulator throughput ({trace.name}, {len(trace)} records; "
         f"dense trace {len(dense)} records; "
         f"parallel suite {suite_records} records on "
         f"{os.cpu_count()} cpus)"]
        + [f"  {name}: {rate:,.0f} records/s" for name, rate in rates.items()]
    ))
    # Floors chosen ~10x below current performance: they catch
    # accidental quadratic behaviour, not machine variance.
    assert rates["baseline"] > 30_000
    assert rates["ipcp"] > 15_000
    # Prefetching costs simulation time but not more than ~5x.
    assert rates["ipcp"] > rates["baseline"] / 5
    # The batched engine must beat scalar on the suite workload (the
    # honest number: ~15% memory events bound it to a few x) ...
    assert rates["batched_baseline"] > rates["baseline"]
    assert rates["batched_ipcp"] > rates["ipcp"]
    # ... and by >=10x where gap arithmetic dominates (<1% events).
    assert rates["dense_batched_baseline"] >= 10 * rates["dense_baseline"]
    assert rates["dense_batched_ipcp"] > 4 * rates["dense_ipcp"]
    # A cache hit must beat re-simulating by a wide margin.
    assert rates["cached_replay"] > rates["ipcp"] * 5
    # Fan-out must pay for its process overhead where cores exist.
    if (os.cpu_count() or 1) >= 4:
        rate_4w = measure_jobs(suite_specs, suite_records, 4)
        benchmark.extra_info["rates"]["parallel_4w"] = round(rate_4w)
        assert rate_4w >= 2.0 * rates["parallel_1w"]
    if (os.cpu_count() or 1) >= 2:
        assert rates["parallel_2w"] > rates["parallel_1w"]

"""Tests for the parallel simulation runner and its persistent cache.

Covers the contract the figure pipeline depends on: cache keys are a
pure function of simulation inputs, parallel execution is bit-identical
to sequential execution, corrupted cache entries are recomputed rather
than crashed on or trusted, and a warm cache turns a repeated suite
into zero simulations.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.runner.pool as runner_pool
from repro.analysis import ExperimentRunner
from repro.errors import ConfigurationError, ReproError
from repro.params import SystemParams
from repro.runner import (
    JobSpec,
    ResultCache,
    SimulationRunner,
    alone_ipc_job,
    execute_job,
    levels_job,
    mix_job,
    trace_signature,
)
from repro.sim.multicore import simulate_mix
from repro.sim.trace import Trace
from repro.workloads import spec_trace


def slow_execute(spec, attempt=1):
    """Hold each job long enough for the runner to fill its window."""
    time.sleep(0.25)
    return execute_job(spec)


@pytest.fixture(scope="module")
def trace():
    return spec_trace("bwaves_like", 0.05)


@pytest.fixture(scope="module")
def suite():
    return [spec_trace(name, 0.05)
            for name in ("bwaves_like", "gcc_like", "lbm_like", "wrf_like")]


class TestCacheKeyStability:
    def test_same_inputs_same_key(self, trace):
        rebuilt = spec_trace("bwaves_like", 0.05)
        assert trace is not rebuilt
        assert trace_signature(trace) == trace_signature(rebuilt)
        assert (levels_job(trace, "ipcp").cache_key()
                == levels_job(rebuilt, "ipcp").cache_key())

    def test_key_depends_on_records(self, trace):
        other = Trace(list(trace)[:-1], name=trace.name)
        assert (levels_job(trace, "ipcp").cache_key()
                != levels_job(other, "ipcp").cache_key())

    def test_key_depends_on_config_params_and_roi(self, trace):
        from repro.analysis import sweep_system
        from repro.sim.multicore import _multicore_params

        base = levels_job(trace, "ipcp").cache_key()
        assert levels_job(trace, "none").cache_key() != base
        swept = levels_job(trace, "ipcp", sweep_system(l1_pq=2))
        assert swept.cache_key() != base
        shared = _multicore_params(SystemParams(), 4)
        alone = alone_ipc_job(trace, shared, warmup=5, roi=100, seed=1)
        assert alone_ipc_job(trace, shared, warmup=7, roi=100,
                             seed=1).cache_key() != alone.cache_key()

    def test_params_fingerprint_bytes_are_pinned(self):
        # Every cache key embeds this serialization: a change to it
        # would orphan every persistent cache entry.
        import hashlib

        from repro.analysis import sweep_system
        from repro.runner import params_fingerprint
        from repro.sim.multicore import _multicore_params

        digest = hashlib.blake2b(digest_size=8)
        for params in (SystemParams(), sweep_system(l1_pq=2, l1_mshr=4),
                       sweep_system(replacement="ship"),
                       _multicore_params(SystemParams(), 4)):
            digest.update(params_fingerprint(params).encode())
        assert digest.hexdigest() == "45da4d12b1da2732"
        assert params_fingerprint(None) == "default"

    def test_alone_job_distinct_from_levels_job(self, trace):
        from repro.sim.multicore import _multicore_params
        from repro.params import SystemParams

        params = _multicore_params(SystemParams(), 1)
        alone = alone_ipc_job(trace, params, 100, 400, seed=1)
        assert alone.cache_key() != levels_job(trace, "none").cache_key()

    def test_specs_pickle(self, trace):
        spec = levels_job(trace, "ipcp")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()


class TestZeroCopySpecs:
    """Specs reference their trace's record tuple instead of copying it."""

    def test_levels_and_alone_specs_share_the_trace_tuple(self, trace):
        assert levels_job(trace, "ipcp").records is trace.records
        alone = alone_ipc_job(trace, SystemParams(), 500, 1_000, 1)
        assert alone.records is trace.records

    def test_mix_spec_shares_each_core_tuple(self, suite):
        spec = mix_job(suite[:2], "none", warmup=500, roi=1_000)
        assert [core is trace.records
                for core, trace in zip(spec.records, suite)] == [True, True]

    def test_build_trace_wraps_the_spec_tuple(self, trace):
        spec = levels_job(trace, "none")
        rebuilt = spec.build_trace()
        assert rebuilt.records is spec.records
        assert rebuilt.name == trace.name

    def test_plus_in_a_mix_core_name_is_rejected(self, suite):
        # The worker splits the joined core names on "+", so such a
        # name would rename every later core of the mix.
        lbm = spec_trace("lbm_like", 0.05)
        renamed = Trace(list(lbm), name="lbm+copy")
        with pytest.raises(ConfigurationError, match=r"lbm\+copy"):
            mix_job([renamed, suite[1]], "none", warmup=500, roi=1_000)


class TestPoolTransport:
    """A pool batch ships records once per worker, not once per job."""

    def test_specs_are_submitted_without_records(self, suite,
                                                 recording_pool):
        specs = [levels_job(trace, "none") for trace in suite]
        serial = SimulationRunner().run(specs)
        pooled = SimulationRunner(jobs=2).run(specs)
        assert ([pickle.dumps(cell) for cell in pooled]
                == [pickle.dumps(cell) for cell in serial])
        assert len(recording_pool.calls) == len(specs)
        for size, (_, spec, _) in recording_pool.calls:
            assert spec.records == ()
            assert size < 1_000
        assert min(len(pickle.dumps(spec)) for spec in specs) > 10_000
        [(table,)] = recording_pool.initargs
        assert table.keys() == {trace_signature(t) for t in suite}
        assert all(table[trace_signature(t)] is t.records for t in suite)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_table_reaches_spawned_workers(self, suite, monkeypatch,
                                           method):
        # Without fork the table is pickled to each worker at start-up.
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(
            runner_pool, "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=context))
        specs = [levels_job(trace, "none") for trace in suite[:2]]
        specs.append(mix_job(suite[:2], "none", warmup=500, roi=1_000))
        assert ([pickle.dumps(cell)
                 for cell in SimulationRunner(jobs=2).run(specs)]
                == [pickle.dumps(cell)
                    for cell in SimulationRunner().run(specs)])

    @pytest.mark.parametrize("timeout, window", [(None, 4), (60.0, 2)])
    def test_in_flight_window(self, suite, recording_pool, timeout, window):
        # One job queued behind each running one without a deadline;
        # with one, only the running jobs, so it times execution.
        specs = [levels_job(trace, config) for trace in suite[:3]
                 for config in ("none", "next_line")]
        SimulationRunner(jobs=2, timeout=timeout,
                         execute=slow_execute).run(specs)
        assert recording_pool.in_flight[:window] == list(range(1, window + 1))
        assert max(recording_pool.in_flight) == window


class TestResultPickling:
    def test_sim_result_round_trips(self, trace):
        result = execute_job(levels_job(trace, "ipcp"))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.ipc == result.ipc
        assert clone.l1_prefetcher.name == "ipcp"
        assert clone.l1_prefetcher.storage_bits > 0
        assert isinstance(clone.l1_prefetcher.stats, dict)

    def test_no_live_prefetcher_objects(self, trace):
        from repro.prefetchers.base import PrefetcherSummary

        result = execute_job(levels_job(trace, "ipcp"))
        assert isinstance(result.l1_prefetcher, PrefetcherSummary)
        assert isinstance(result.l2_prefetcher, PrefetcherSummary)


class TestParallelDeterminism:
    def test_jobs1_and_jobs4_bit_identical(self, suite):
        specs = [levels_job(t, config)
                 for t in suite for config in ("none", "ipcp")]
        sequential = SimulationRunner(jobs=1).run(specs)
        parallel = SimulationRunner(jobs=4).run(specs)
        assert len(sequential) == len(parallel) == len(specs)
        for seq, par in zip(sequential, parallel):
            assert pickle.dumps(seq) == pickle.dumps(par)

    def test_duplicate_specs_run_once(self, trace):
        runner = SimulationRunner(jobs=1)
        spec = levels_job(trace, "none")
        first, second = runner.run([spec, spec])
        assert runner.simulations_run == 1
        assert first is second

    def test_run_rejects_bad_job_count(self):
        with pytest.raises(ReproError):
            SimulationRunner(jobs=0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0, -1])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        # NaN would never fire (and the pool would busy-poll); inf
        # would overflow the pool's deadline arithmetic.
        with pytest.raises(ReproError, match="finite number above 0"):
            SimulationRunner(jobs=2, timeout=timeout)


class TestPersistentCache:
    def test_second_pass_performs_zero_simulations(self, suite, tmp_path):
        cache_dir = str(tmp_path / "cache")
        configs = ["none", "ipcp"]

        cold = ExperimentRunner(
            suite, runner=SimulationRunner(cache=ResultCache(cache_dir)))
        cold_table = cold.speedup_table(["ipcp"])
        assert cold.simulations_run == len(suite) * len(configs)

        warm = ExperimentRunner(
            suite, runner=SimulationRunner(cache=ResultCache(cache_dir)))
        warm_table = warm.speedup_table(["ipcp"])
        assert warm.simulations_run == 0
        assert warm_table == cold_table

    def test_cached_result_bit_identical(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = levels_job(trace, "ipcp")
        fresh = SimulationRunner(cache=cache).run_one(spec)
        replay = SimulationRunner(cache=cache).run_one(spec)
        assert pickle.dumps(fresh) == pickle.dumps(replay)

    def test_poisoned_entry_recomputed(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = levels_job(trace, "none")
        reference = SimulationRunner(cache=cache).run_one(spec)

        entry = cache._entry_path(spec.cache_key())
        with open(entry, "wb") as fh:
            fh.write(b"RPRC1\n" + b"\x00" * 16 + b"garbage payload")

        runner = SimulationRunner(cache=cache)
        recovered = runner.run_one(spec)
        assert runner.simulations_run == 1
        assert cache.corrupt == 1
        assert pickle.dumps(recovered) == pickle.dumps(reference)

    def test_truncated_entry_recomputed(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = levels_job(trace, "none")
        SimulationRunner(cache=cache).run_one(spec)

        entry = cache._entry_path(spec.cache_key())
        with open(entry, "rb") as fh:
            blob = fh.read()
        with open(entry, "wb") as fh:
            fh.write(blob[: len(blob) // 2])

        runner = SimulationRunner(cache=cache)
        runner.run_one(spec)
        assert runner.simulations_run == 1

    def test_corrupt_entry_evicted_from_disk(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = levels_job(trace, "none")
        SimulationRunner(cache=cache).run_one(spec)
        entry = cache._entry_path(spec.cache_key())
        with open(entry, "wb") as fh:
            fh.write(b"RPRC1\n" + b"\x00" * 16 + b"garbage")
        hit, _ = cache.get(spec.cache_key())
        assert not hit
        assert not os.path.exists(entry)

    def test_corrupt_evictions_counter(self, trace, tmp_path):
        # Every successful eviction of a corrupt entry is counted, and
        # the runner surfaces the counter alongside its own.
        cache = ResultCache(str(tmp_path / "cache"))
        spec = levels_job(trace, "none")
        runner = SimulationRunner(cache=cache)
        runner.run_one(spec)
        assert cache.corrupt_evictions == 0
        entry = cache._entry_path(spec.cache_key())
        with open(entry, "wb") as fh:
            fh.write(b"RPRC1\n" + b"\x00" * 16 + b"garbage")
        runner.run_one(spec)
        assert cache.corrupt == 1
        assert cache.corrupt_evictions == 1
        assert runner.corrupt_evictions == 1
        assert SimulationRunner(cache=None).corrupt_evictions == 0

    def test_len_counts_entries(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert len(cache) == 0
        SimulationRunner(cache=cache).run([
            levels_job(trace, "none"), levels_job(trace, "ipcp"),
        ])
        assert len(cache) == 2


class TestConcurrentCacheWriters:
    """Same-key races: last writer wins, eviction is never spurious.

    The job service runs several worker threads against one cache
    directory, so the same key can be written and read concurrently.
    The contract: every published entry is complete (atomic replace),
    the survivor of a same-key race is one of the written payloads,
    and a reader evicting a corrupt blob can never take out a valid
    entry a concurrent writer republished in the meantime.
    """

    KEY = "ab" + "0" * 30

    def test_same_key_racing_puts_leave_valid_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        payloads = [{"writer": index, "rows": list(range(64))}
                    for index in range(8)]
        barrier = threading.Barrier(len(payloads))

        def hammer(payload):
            barrier.wait()
            for _ in range(25):
                cache.put(self.KEY, payload)
                hit, value = cache.get(self.KEY)
                assert hit
                assert value in payloads  # always complete, never torn

        threads = [threading.Thread(target=hammer, args=(payload,))
                   for payload in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        hit, survivor = cache.get(self.KEY)
        assert hit
        assert survivor in payloads
        assert len(cache) == 1
        assert cache.corrupt == 0

    def test_evict_spares_entry_republished_after_corrupt_read(
            self, tmp_path):
        # The exact interleaving that used to lose a valid entry:
        # reader opens a corrupt blob, a writer atomically republishes
        # the key, then the reader's eviction fires.  The guarded
        # eviction must notice the file changed under it and leave the
        # republished entry alone.
        cache = ResultCache(str(tmp_path / "cache"))
        entry = cache._entry_path(self.KEY)
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        with open(entry, "wb") as fh:
            fh.write(b"RPRC1\n" + b"\x00" * 16 + b"garbage")
        with open(entry, "rb") as fh:
            stale_stat = os.fstat(fh.fileno())
        cache.put(self.KEY, {"fresh": True})  # concurrent writer wins
        cache._evict(entry, stale_stat)
        hit, payload = cache.get(self.KEY)
        assert hit
        assert payload == {"fresh": True}

    def test_evict_still_removes_unreplaced_corrupt_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        entry = cache._entry_path(self.KEY)
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        with open(entry, "wb") as fh:
            fh.write(b"RPRC1\n" + b"\x00" * 16 + b"garbage")
        with open(entry, "rb") as fh:
            stat = os.fstat(fh.fileno())
        cache._evict(entry, stat)
        assert not os.path.exists(entry)

    def test_reader_vs_writer_race_never_spuriously_recomputes(
            self, tmp_path):
        # One thread keeps republishing a valid entry while another
        # keeps reading it: after the first put, every read must be a
        # verified hit — a miss here would mean eviction took out a
        # valid entry (the spurious evict-then-recompute bug).
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(self.KEY, {"generation": -1})
        stop = threading.Event()
        failures = []

        def writer():
            generation = 0
            while not stop.is_set():
                cache.put(self.KEY, {"generation": generation})
                generation += 1

        def reader():
            for _ in range(400):
                hit, payload = cache.get(self.KEY)
                if not hit or "generation" not in payload:
                    failures.append(payload)
            stop.set()

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert cache.corrupt == 0


class TestMulticoreAloneRuns:
    def test_alone_ipcs_cached_across_mixes(self, tmp_path):
        traces = [spec_trace("bwaves_like", 0.05),
                  spec_trace("gcc_like", 0.05)]
        cache = ResultCache(str(tmp_path / "cache"))

        cold_runner = SimulationRunner(cache=cache)
        cold = simulate_mix(traces, warmup=500, roi=2_000,
                            runner=cold_runner)
        assert cold_runner.simulations_run == len(traces)

        warm_runner = SimulationRunner(cache=cache)
        warm = simulate_mix(traces, warmup=500, roi=2_000,
                            runner=warm_runner)
        assert warm_runner.simulations_run == 0
        assert warm.ipc_alone == cold.ipc_alone
        assert warm.weighted_speedup == cold.weighted_speedup


class TestExecuteJob:
    def test_unknown_kind_raises(self, trace):
        spec = JobSpec(
            kind="bogus",
            trace_name=trace.name,
            config_name="none",
            trace_sig=trace_signature(trace),
            records=tuple(trace),
        )
        with pytest.raises(ReproError):
            execute_job(spec)


class TestFigureHelperDeterminism:
    """Every figure helper rewired onto the runner must produce results
    independent of the worker count."""

    def test_speedup_table_jobs_invariant(self, suite):
        table1 = ExperimentRunner(
            suite, runner=SimulationRunner(jobs=1)).speedup_table(["ipcp"])
        table2 = ExperimentRunner(
            suite, runner=SimulationRunner(jobs=2)).speedup_table(["ipcp"])
        assert table1 == table2

    def test_run_sweep_jobs_invariant(self, suite):
        from repro.analysis import sweep_system

        points = [(str(bw), sweep_system(dram_bandwidth_gbps=bw))
                  for bw in (3.2, 25.0)]
        tables = [ExperimentRunner(suite[:2], runner=SimulationRunner(
                      jobs=jobs)).sweep_table(["ipcp"], points)
                  for jobs in (1, 2)]
        assert tables[0] == tables[1]

    def test_simulate_mix_alone_runs_jobs_invariant(self):
        traces = [spec_trace("bwaves_like", 0.05),
                  spec_trace("gcc_like", 0.05)]
        seq = simulate_mix(traces, warmup=500, roi=2_000,
                           runner=SimulationRunner(jobs=1))
        par = simulate_mix(traces, warmup=500, roi=2_000,
                           runner=SimulationRunner(jobs=2))
        assert seq.ipc_alone == par.ipc_alone
        assert seq.ipc_together == par.ipc_together

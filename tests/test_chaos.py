"""Chaos proof: recovered runs are bit-identical to fault-free runs.

The fault-injection harness (``tests/chaos.py``) schedules
crashes, hangs, transient exceptions and cache corruption as a pure
function of ``(seed, key, attempt, kind)``.  These tests drive a real
multi-cell sweep through each fault family — and then all of them at
once — and assert the recovered results match a fault-free reference
byte for byte, with the runner's counters proving the faults actually
fired rather than the schedule silently missing.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.errors import ConfigurationError, TransientJobError, WorkerCrashError
from repro.resilience import RetryPolicy
from repro.runner import ResultCache, SimulationRunner, levels_job
from repro.workloads import spec_trace

from chaos import (
    CORRUPT,
    CRASH,
    HANG,
    TRANSIENT,
    ChaosCache,
    ChaosPlan,
    chaos_execute_job,
)

FAST = RetryPolicy(max_attempts=5, backoff_base=0.0)


@pytest.fixture(scope="module")
def traces():
    return [spec_trace("bwaves_like", 0.05), spec_trace("gcc_like", 0.05)]


@pytest.fixture(scope="module")
def grid(traces):
    return [levels_job(trace, config)
            for trace in traces for config in ("none", "ipcp")]


@pytest.fixture(scope="module")
def reference(grid):
    return [pickle.dumps(cell) for cell in SimulationRunner().run(grid)]


def chaotic(plan: ChaosPlan):
    return functools.partial(chaos_execute_job, plan=plan)


class TestChaosPlan:
    def test_rolls_are_deterministic_and_uniformish(self):
        plan = ChaosPlan(seed=3)
        draw = plan.roll("key", 1, "exec")
        assert draw == ChaosPlan(seed=3).roll("key", 1, "exec")
        assert 0.0 <= draw < 1.0
        assert draw != ChaosPlan(seed=4).roll("key", 1, "exec")
        assert draw != plan.roll("key", 2, "exec")
        assert draw != plan.roll("other", 1, "exec")

    def test_rate_partition(self):
        plan = ChaosPlan(crash_rate=1.0)
        assert plan.execution_fault("any-key", 1) == CRASH
        assert ChaosPlan(hang_rate=1.0).execution_fault("k", 1) == HANG
        assert (ChaosPlan(transient_rate=1.0).execution_fault("k", 1)
                == TRANSIENT)
        assert ChaosPlan().execution_fault("k", 1) is None

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(crash_rate=0.5, hang_rate=0.4, transient_rate=0.2)

    def test_faults_stop_after_fault_attempts(self):
        plan = ChaosPlan(transient_rate=1.0, fault_attempts=2)
        assert plan.execution_fault("k", 1) == TRANSIENT
        assert plan.execution_fault("k", 2) == TRANSIENT
        assert plan.execution_fault("k", 3) is None

    def test_forced_schedule_overrides_roll(self, grid):
        spec = grid[0]
        plan = ChaosPlan(forced=(((spec.trace_name, spec.config_name),
                                  TRANSIENT, 2),))
        assert plan.fault_for(spec, 1) == TRANSIENT
        assert plan.fault_for(spec, 2) == TRANSIENT
        assert plan.fault_for(spec, 3) is None
        # Other cells fall through to the (zero-rate) roll.
        assert plan.fault_for(grid[1], 1) is None


class TestSingleFaultFamilies:
    def test_transient_everywhere_recovers_serial(self, grid, reference):
        runner = SimulationRunner(
            retry=FAST,
            execute=chaotic(ChaosPlan(transient_rate=1.0)))
        recovered = runner.run(grid)
        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert runner.transient_errors == len(grid)
        assert runner.retries == len(grid)

    def test_in_process_crash_surfaces_as_worker_crash(self, grid):
        runner = SimulationRunner(
            retry=RetryPolicy(max_attempts=1),
            execute=chaotic(ChaosPlan(crash_rate=1.0)))
        with pytest.raises(WorkerCrashError):
            runner.run_one(grid[0])

    def test_worker_crash_everywhere_recovers_pool(self, grid, reference):
        runner = SimulationRunner(
            jobs=2, retry=FAST,
            execute=chaotic(ChaosPlan(crash_rate=1.0)))
        recovered = runner.run(grid)
        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert runner.worker_crashes >= 1
        assert runner.pool_respawns >= 1

    def test_hang_everywhere_times_out_and_recovers(self, grid, reference):
        runner = SimulationRunner(
            jobs=2, timeout=0.5, retry=FAST,
            execute=chaotic(ChaosPlan(hang_rate=1.0, hang_seconds=30.0)))
        recovered = runner.run(grid)
        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert runner.timeouts >= len(grid)
        assert runner.pool_respawns >= 1

    def test_corrupt_entries_detected_and_recomputed(self, grid, reference,
                                                     tmp_path):
        plan = ChaosPlan(corrupt_rate=1.0)
        cold_cache = ChaosCache(ResultCache(str(tmp_path / "cache")), plan)
        cold = SimulationRunner(cache=cold_cache)
        cold.run(grid)
        assert cold_cache.corruptions == len(grid)

        # Warm pass: every entry fails its digest check, is evicted and
        # recomputed; ChaosCache corrupts each key only once (tracked
        # per instance), so the republished entries survive.
        warm = SimulationRunner(cache=cold_cache)
        recovered = warm.run(grid)
        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert cold_cache.inner.corrupt == len(grid)
        assert warm.simulations_run == len(grid)

        # Third pass over the repaired cache: pure hits, zero work.
        final = SimulationRunner(cache=ResultCache(str(tmp_path / "cache")))
        assert ([pickle.dumps(cell) for cell in final.run(grid)]
                == reference)
        assert final.simulations_run == 0
        assert final.cache_hits == len(grid)


class TestCombinedChaosProof:
    """The acceptance scenario: one sweep absorbing >=1 worker crash,
    >=1 job timeout, >=1 transient exception and >=1 corrupt cache
    entry, completing with statistics bit-identical to a fault-free
    run — and a checkpoint resume doing zero redundant simulations."""

    def test_multi_fault_sweep_is_bit_identical(self, traces, grid,
                                                reference, tmp_path):
        bwaves, gcc = traces[0].name, traces[1].name
        plan = ChaosPlan(
            seed=1,
            corrupt_rate=1.0,
            hang_seconds=30.0,
            # The crash cell gets one faulted attempt: its dying worker
            # takes co-resident futures down as collateral (refunded,
            # not charged), so the hang/transient cells fault on two
            # attempts to guarantee their families still fire at least
            # once each.
            forced=(
                ((bwaves, "none"), CRASH, 1),
                ((bwaves, "ipcp"), TRANSIENT, 2),
                ((gcc, "none"), HANG, 2),
            ),
        )
        cache = ChaosCache(ResultCache(str(tmp_path / "cache")), plan)
        runner = SimulationRunner(
            jobs=2, timeout=0.6,
            retry=RetryPolicy(max_attempts=6, backoff_base=0.0),
            cache=cache,
            execute=chaotic(plan),
        )
        recovered = runner.run(grid)

        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert runner.worker_crashes >= 1
        assert runner.timeouts >= 1
        assert runner.transient_errors >= 1
        assert cache.corruptions >= 1
        assert runner.failures == 0

        # Second pass detects and repairs the corrupted entries (the
        # same ChaosCache instance never re-corrupts a key), then a
        # clean run over the same cache performs zero simulations.
        repair = SimulationRunner(cache=cache)
        assert ([pickle.dumps(cell) for cell in repair.run(grid)]
                == reference)
        clean = SimulationRunner(cache=ResultCache(str(tmp_path / "cache")))
        assert ([pickle.dumps(cell) for cell in clean.run(grid)]
                == reference)
        assert clean.simulations_run == 0

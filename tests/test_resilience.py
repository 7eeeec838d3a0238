"""Tests for the fault-tolerant execution layer (``repro.resilience``).

Covers the survivability contract of the runner: transient failures
retry with bounded budgets and deterministic backoff, fatal failures
never retry, per-job timeouts kill and re-dispatch overdue work, worker
crashes respawn the pool without losing resolved results, completed
results stream into the cache even when a later job fails, degraded
mode renders ``FAILED(reason)`` cells, and checkpoint journals make an
interrupted batch resumable with zero recomputation.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, wait

import pytest

import repro.runner.pool as runner_pool
from repro.analysis import ExperimentRunner
from repro.analysis.sweep import sweep_system
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    FatalJobError,
    JobTimeout,
    ReproError,
    SimulationError,
    TraceError,
    TransientJobError,
    WorkerCrashError,
    exit_code_for,
)
from repro.resilience import (
    CheckpointJournal,
    FATAL,
    JobFailure,
    RetryPolicy,
    TIMEOUT,
    TRANSIENT,
    classify_failure,
    flush_active_journals,
)
from repro.resilience.policy import BACKOFF_MAX
from repro.runner import (
    JobSpec,
    ResultCache,
    SimulationRunner,
    execute_job,
    levels_job,
    trace_signature,
)
from repro.stats import format_table
from repro.workloads import spec_trace

NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_base=0.0)


# Fault-injecting execution functions must be module-level so they
# pickle into pool workers, exactly like the real execute_job.

def fail_first_attempt(spec, attempt=1):
    if attempt == 1:
        raise TransientJobError("injected transient")
    return execute_job(spec)


def always_transient(spec, attempt=1):
    raise TransientJobError("injected transient (every attempt)")


def always_fatal(spec, attempt=1):
    raise SimulationError("injected fatal")


def foreign_exception(spec, attempt=1):
    raise ValueError("not a repro error")


def fatal_for_ipcp(spec, attempt=1):
    if spec.config_name == "ipcp":
        raise SimulationError("ipcp cell poisoned")
    return execute_job(spec)


def crash_first_attempt(spec, attempt=1):
    if attempt == 1 and multiprocessing.parent_process() is not None:
        os._exit(23)
    return execute_job(spec)


def crash_bwaves_none_once(spec, attempt=1):
    # The pause lets the runner fill its window before the crash.
    if ((spec.trace_name, spec.config_name) == ("bwaves_like", "none")
            and attempt == 1 and multiprocessing.parent_process() is not None):
        time.sleep(0.2)
        os._exit(23)
    return execute_job(spec)


def sleep_first_attempt(spec, attempt=1):
    if attempt == 1:
        time.sleep(30.0)
    return execute_job(spec)


def always_sleep(spec, attempt=1):
    time.sleep(30.0)


def logged_failure(key: str) -> JobFailure:
    """A terminal failure as the runner journals it."""
    return JobFailure(key=key, error_type="SimulationError",
                      message="boom", attempts=1)


@pytest.fixture(scope="module")
def trace():
    return spec_trace("bwaves_like", 0.05)


@pytest.fixture(scope="module")
def second_trace():
    return spec_trace("gcc_like", 0.05)


@pytest.fixture(scope="module")
def reference_none(trace):
    return pickle.dumps(SimulationRunner().run_one(levels_job(trace, "none")))


def poisoned_spec(trace) -> JobSpec:
    """A spec whose execution always raises (unknown job kind)."""
    return JobSpec(
        kind="poisoned",
        trace_name=trace.name,
        config_name="none",
        trace_sig=trace_signature(trace),
        records=tuple(trace),
    )


class TestTaxonomy:
    def test_classification(self):
        assert classify_failure(TransientJobError("x")) == TRANSIENT
        assert classify_failure(WorkerCrashError("x")) == TRANSIENT
        assert classify_failure(ConnectionError("x")) == TRANSIENT
        assert classify_failure(JobTimeout("x")) == TIMEOUT
        assert classify_failure(FatalJobError("x")) == FATAL
        assert classify_failure(SimulationError("x")) == FATAL
        assert classify_failure(ValueError("x")) == FATAL

    def test_exit_codes_distinct(self):
        errors = [ReproError, ConfigurationError, TraceError,
                  SimulationError, JobTimeout, TransientJobError,
                  FatalJobError, CheckpointError]
        codes = [cls.exit_code for cls in errors]
        assert len(set(codes)) == len(codes)
        assert all(code >= 2 for code in codes)
        assert exit_code_for(ValueError("x")) == 2

    def test_should_retry_gates_on_classification(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(TRANSIENT, 1)
        assert policy.should_retry(TIMEOUT, 2)
        assert not policy.should_retry(TRANSIENT, 3)
        assert not policy.should_retry(FATAL, 1)

    @pytest.mark.parametrize("attempts", [0, -2])
    def test_attempt_budget_must_be_at_least_one(self, attempts):
        with pytest.raises(ConfigurationError, match="at least 1"):
            RetryPolicy(max_attempts=attempts)

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1)
        delays = [policy.delay("somekey", attempt)
                  for attempt in (1, 2, 3, 10)]
        assert delays == [policy.delay("somekey", attempt)
                          for attempt in (1, 2, 3, 10)]
        # base * [1, 1+jitter) envelope, capped at BACKOFF_MAX
        assert 0.1 <= delays[0] < 0.15
        assert 0.2 <= delays[1] < 0.3
        assert BACKOFF_MAX <= delays[3] < BACKOFF_MAX * 1.5
        # jitter decorrelates different jobs
        assert policy.delay("somekey", 1) != policy.delay("otherkey", 1)
        assert RetryPolicy(backoff_base=0.0).delay("k", 1) == 0.0


class TestRetrySerial:
    def test_transient_failure_retried_to_success(self, trace,
                                                  reference_none):
        runner = SimulationRunner(retry=NO_BACKOFF,
                                  execute=fail_first_attempt)
        result = runner.run_one(levels_job(trace, "none"))
        assert pickle.dumps(result) == reference_none
        assert runner.retries == 1
        assert runner.transient_errors == 1
        assert runner.simulations_run == 2

    def test_attempt_budget_exhausted_raises(self, trace):
        runner = SimulationRunner(retry=RetryPolicy(max_attempts=2,
                                                    backoff_base=0.0),
                                  execute=always_transient)
        with pytest.raises(TransientJobError):
            runner.run_one(levels_job(trace, "none"))
        assert runner.simulations_run == 2

    def test_fatal_failure_not_retried(self, trace):
        runner = SimulationRunner(retry=NO_BACKOFF, execute=always_fatal)
        with pytest.raises(SimulationError):
            runner.run_one(levels_job(trace, "none"))
        assert runner.simulations_run == 1
        assert runner.retries == 0

    def test_foreign_exception_wrapped_as_fatal_job_error(self, trace):
        runner = SimulationRunner(execute=foreign_exception)
        with pytest.raises(FatalJobError) as excinfo:
            runner.run_one(levels_job(trace, "none"))
        assert "ValueError" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestStreamingPublish:
    """Completed results must reach the cache even when a later job in
    the batch fails (regression for the all-or-nothing batch publish)."""

    def test_serial_batch_keeps_results_before_poison(
            self, trace, second_trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        good1 = levels_job(trace, "none")
        good2 = levels_job(second_trace, "none")
        runner = SimulationRunner(cache=cache)
        with pytest.raises(ReproError):
            runner.run([good1, poisoned_spec(trace), good2])
        # good1 completed before the poison and must have been
        # published; good2 was never reached.
        warm = SimulationRunner(cache=ResultCache(str(tmp_path / "cache")))
        warm.run([good1])
        assert warm.simulations_run == 0
        assert warm.cache_hits == 1

    def test_pool_drains_and_publishes_inflight_on_fatal(
            self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        good = levels_job(trace, "none")
        # Poison first: it fails fast while the good job is in flight;
        # the runner must drain and publish the good result, then raise.
        runner = SimulationRunner(jobs=2, cache=cache)
        with pytest.raises(ReproError):
            runner.run([poisoned_spec(trace), good])
        warm = SimulationRunner(cache=ResultCache(str(tmp_path / "cache")))
        warm.run([good])
        assert warm.simulations_run == 0

    def test_failed_jobs_are_never_cached(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = SimulationRunner(cache=cache, degraded=True,
                                  execute=always_fatal)
        runner.run([levels_job(trace, "none")])
        assert len(cache) == 0


class TestDegradedMode:
    def test_failure_cells_instead_of_abort(self, trace, second_trace,
                                            reference_none):
        specs = [levels_job(trace, "none"), levels_job(trace, "ipcp"),
                 levels_job(second_trace, "ipcp")]
        runner = SimulationRunner(degraded=True, execute=fatal_for_ipcp)
        good, bad1, bad2 = runner.run(specs)
        assert pickle.dumps(good) == reference_none
        assert isinstance(bad1, JobFailure) and isinstance(bad2, JobFailure)
        assert bad1.error_type == "SimulationError"
        assert "poisoned" in bad1.message
        assert runner.failures == 2

    def test_duplicate_failing_spec_fills_every_slot(self, trace):
        """One execution, one failure, both output slots (satellite)."""
        spec = levels_job(trace, "ipcp")
        runner = SimulationRunner(degraded=True, execute=fatal_for_ipcp)
        first, second = runner.run([spec, spec])
        assert isinstance(first, JobFailure)
        assert first is second
        assert runner.simulations_run == 1

    def test_format_table_renders_failed_cells(self):
        failure = JobFailure(key="k", error_type="JobTimeout",
                             message="exceeded 1s", attempts=3)
        text = format_table(["trace", "ipcp"], [["bwaves", failure]])
        assert "FAILED(JobTimeout)" in text
        assert failure.reason == "JobTimeout: exceeded 1s"

    def test_experiment_runner_partial_grid(self, trace, second_trace):
        backend = SimulationRunner(degraded=True, execute=fatal_for_ipcp)
        experiment = ExperimentRunner([trace, second_trace],
                                      runner=backend)
        rows = experiment.speedup_table(["ipcp"])
        cells = {row[0]: row[1] for row in rows}
        assert isinstance(cells[trace.name], JobFailure)
        assert isinstance(cells["geomean"], JobFailure)
        text = format_table(["trace", "ipcp"], rows)
        assert "FAILED(SimulationError)" in text

    def test_run_sweep_partial_grid(self, trace):
        backend = SimulationRunner(degraded=True, execute=fatal_for_ipcp)
        experiment = ExperimentRunner([trace], runner=backend)
        rows = experiment.sweep_table(
            ["ipcp", "none"], [("12.8", sweep_system()),
                               ("3.2", sweep_system(dram_bandwidth_gbps=3.2))])
        assert all(isinstance(row[1], JobFailure) for row in rows)
        assert [row[2] for row in rows] == [1.0, 1.0]
        text = format_table(["dram-bandwidth", "ipcp", "none"], rows)
        assert text.count("FAILED(SimulationError)") == 2


class TestPoolRecovery:
    def test_worker_crash_respawns_and_recovers(self, trace, second_trace,
                                                reference_none):
        specs = [levels_job(trace, "none"), levels_job(second_trace, "none"),
                 levels_job(trace, "ipcp")]
        reference = [pickle.dumps(cell)
                     for cell in SimulationRunner().run(specs)]
        runner = SimulationRunner(jobs=2,
                                  retry=RetryPolicy(max_attempts=4,
                                                    backoff_base=0.0),
                                  execute=crash_first_attempt)
        recovered = runner.run(specs)
        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert runner.worker_crashes >= 1
        assert runner.pool_respawns >= 1

    def test_crash_charges_only_the_running_jobs(self, trace, second_trace,
                                                 recording_pool):
        # Four jobs in flight on two workers: only the two that can have
        # been running pay an attempt; the two queued ones are refunded.
        specs = [levels_job(t, config) for t in (trace, second_trace)
                 for config in ("none", "ipcp")]
        reference = [pickle.dumps(cell)
                     for cell in SimulationRunner().run(specs)]
        runner = SimulationRunner(jobs=2, retry=NO_BACKOFF,
                                  execute=crash_bwaves_none_once)
        recovered = runner.run(specs)
        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert recording_pool.in_flight[:4] == [1, 2, 3, 4]
        assert runner.worker_crashes == 1
        assert 1 <= runner.retries <= 2
        assert runner.failures == 0

    @pytest.mark.parametrize("busy", [True, False])
    def test_pool_broken_between_rounds_recovers(self, trace, second_trace,
                                                 monkeypatch, busy):
        # A queued job can crash its worker while the runner publishes a
        # result, so the next submit meets a broken pool: with jobs in
        # flight (busy) they settle as a crash, with none the pool is
        # respawned, and the unsubmitted job waits for the new pool.
        specs = [levels_job(t, config) for t in (trace, second_trace)
                 for config in ("none", "next_line", "ipcp")]
        reference = [pickle.dumps(cell)
                     for cell in SimulationRunner().run(specs)]
        futures, killed = [], []

        class BreakingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                if len(futures) == 4 and not killed:
                    killed.append(self)
                    if not busy:
                        wait(futures)
                    for process in list(self._processes.values()):
                        process.kill()
                    deadline = time.monotonic() + 10.0
                    while not self._broken and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert self._broken
                future = super().submit(fn, *args, **kwargs)
                futures.append(future)
                return future

        monkeypatch.setattr(runner_pool, "ProcessPoolExecutor",
                            BreakingPool)
        runner = SimulationRunner(jobs=2, retry=NO_BACKOFF)
        recovered = runner.run(specs)
        assert [pickle.dumps(cell) for cell in recovered] == reference
        assert runner.worker_crashes == 1
        assert runner.pool_respawns == 1
        assert runner.retries <= (2 if busy else 0)
        assert runner.failures == 0

    def test_timeout_kills_and_retries(self, trace, reference_none):
        runner = SimulationRunner(jobs=2, timeout=0.4, retry=NO_BACKOFF,
                                  execute=sleep_first_attempt)
        started = time.monotonic()
        result = runner.run_one(levels_job(trace, "none"))
        elapsed = time.monotonic() - started
        assert pickle.dumps(result) == reference_none
        assert runner.timeouts == 1
        assert runner.pool_respawns == 1
        assert elapsed < 10.0

    def test_timeout_budget_exhausted_raises_job_timeout(self, trace):
        runner = SimulationRunner(jobs=2, timeout=0.3,
                                  retry=RetryPolicy(max_attempts=1),
                                  execute=always_sleep)
        with pytest.raises(JobTimeout):
            runner.run_one(levels_job(trace, "none"))

    def test_timeout_degraded_returns_failure_cell(self, trace):
        runner = SimulationRunner(jobs=2, timeout=0.3,
                                  retry=RetryPolicy(max_attempts=1),
                                  degraded=True, execute=always_sleep)
        cell = runner.run_one(levels_job(trace, "none"))
        assert isinstance(cell, JobFailure)
        assert cell.error_type == "JobTimeout"

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ReproError):
            SimulationRunner(timeout=0.0)

    def test_rejects_timeout_with_one_job(self):
        # An in-process job cannot be preempted: the deadline would be
        # silently ignored, so the runner refuses it up front.
        with pytest.raises(ReproError, match="jobs >= 2"):
            SimulationRunner(jobs=1, timeout=5.0)


class TestCheckpointJournal:
    def test_resume_performs_zero_redundant_simulations(
            self, trace, second_trace, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal_path = str(tmp_path / "sweep.journal")
        specs = [levels_job(trace, "none"), levels_job(trace, "ipcp"),
                 levels_job(second_trace, "none")]

        # "Interrupted" run resolves only the first two cells.
        with CheckpointJournal(journal_path) as journal:
            interrupted = SimulationRunner(cache=ResultCache(cache_dir),
                                           journal=journal)
            interrupted.run(specs[:2])
            assert interrupted.simulations_run == 2

        resumed_journal = CheckpointJournal(journal_path)
        resumed = SimulationRunner(cache=ResultCache(cache_dir),
                                   journal=resumed_journal)
        resumed.run(specs)
        assert resumed.simulations_run == 1  # only the never-run cell
        assert resumed.cache_hits == 2
        resumed_journal.close()

    def test_degraded_resume_skips_known_fatal_cells(self, trace, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        spec = levels_job(trace, "ipcp")
        with CheckpointJournal(journal_path) as journal:
            failing = SimulationRunner(degraded=True, journal=journal,
                                       execute=always_fatal)
            failing.run([spec])

        with CheckpointJournal(journal_path) as journal:
            resumed = SimulationRunner(degraded=True, journal=journal,
                                       execute=always_fatal)
            cell = resumed.run_one(spec)
        assert isinstance(cell, JobFailure)
        assert cell.error_type == "SimulationError"
        assert resumed.simulations_run == 0
        assert resumed.journal_hits == 1

    def test_strict_resume_retries_previously_failed_cells(
            self, trace, reference_none, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        spec = levels_job(trace, "none")
        with CheckpointJournal(journal_path) as journal:
            SimulationRunner(degraded=True, journal=journal,
                             execute=always_fatal).run([spec])

        # Strict mode does not trust a recorded failure — the fault may
        # have been environmental; the cell is re-executed.
        with CheckpointJournal(journal_path) as journal:
            retried = SimulationRunner(journal=journal)
            result = retried.run_one(spec)
            assert journal.failure_for(spec.cache_key()) is None
        assert pickle.dumps(result) == reference_none
        assert retried.simulations_run == 1
        # The success is on disk too: a degraded rerun must not render
        # the superseded failure.
        with CheckpointJournal(journal_path) as journal:
            assert journal.failed_keys == set()

    def test_torn_trailing_line_is_skipped(self, trace, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        with CheckpointJournal(journal_path) as journal:
            journal.record_failed("aaaa", logged_failure("aaaa"))
            journal.record_failed("bbbb", JobFailure(
                key="bbbb", error_type="JobTimeout", message="slow",
                attempts=3))
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "cccc", "sta')  # writer SIGKILLed mid-append

        journal = CheckpointJournal(journal_path)
        assert journal.failed_keys == {"aaaa", "bbbb"}
        assert journal.skipped_lines == 1
        failure = journal.failure_for("bbbb")
        assert failure.error_type == "JobTimeout"
        assert failure.attempts == 3
        journal.close()

    def test_nul_padded_tail_is_skipped_and_counted(self, tmp_path):
        # A journalling filesystem replaying a metadata-only commit
        # after power loss can leave a pre-allocated run of NUL bytes
        # where flushed lines never hit the platter.
        journal_path = str(tmp_path / "sweep.journal")
        with CheckpointJournal(journal_path) as journal:
            journal.record_failed("aaaa", logged_failure("aaaa"))
            journal.record_failed("bbbb", logged_failure("bbbb"))
        with open(journal_path, "ab") as fh:
            fh.write(b"\x00" * 256 + b"\n")          # padded tail
            fh.write(b'{"key": "cccc", "sta\x00\x00')  # torn + padded

        journal = CheckpointJournal(journal_path)
        assert journal.failed_keys == {"aaaa", "bbbb"}
        assert journal.skipped_lines == 2
        journal.close()

    def test_entry_padded_with_nuls_still_loads(self, tmp_path):
        # NUL runs around an intact entry must not hide it.
        journal_path = str(tmp_path / "sweep.journal")
        with open(journal_path, "wb") as fh:
            fh.write(b'\x00\x00{"key": "aaaa", "status": "failed"}\x00\x00\n')
        journal = CheckpointJournal(journal_path)
        assert journal.failed_keys == {"aaaa"}
        assert journal.skipped_lines == 0
        journal.close()

    def test_flush_active_journals(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "a.journal"))
        assert flush_active_journals() >= 1
        journal.close()
        assert flush_active_journals() == 0

    def test_unwritable_journal_raises_checkpoint_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        with pytest.raises(CheckpointError):
            CheckpointJournal(str(blocker / "sweep.journal"))


class TestAtomicCachePut:
    def test_interrupted_publish_leaves_no_entry(self, trace, tmp_path,
                                                 monkeypatch):
        """A writer killed between write and rename publishes nothing."""
        cache = ResultCache(str(tmp_path / "cache"))
        spec = levels_job(trace, "none")
        payload = SimulationRunner().run_one(spec)

        real_replace = os.replace

        def dying_replace(src, dst):
            raise OSError("simulated SIGKILL before rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError):
            cache.put(spec.cache_key(), payload)
        monkeypatch.setattr(os, "replace", real_replace)

        # No entry, no stray temp file, and the key still misses.
        assert len(cache) == 0
        shard = os.path.dirname(cache._entry_path(spec.cache_key()))
        assert [name for name in os.listdir(shard)
                if not name.startswith(".")] == []
        hit, _ = cache.get(spec.cache_key())
        assert not hit

        cache.put(spec.cache_key(), payload)
        hit, replay = cache.get(spec.cache_key())
        assert hit
        assert pickle.dumps(replay) == pickle.dumps(payload)

    def test_orphan_temp_file_is_invisible(self, trace, tmp_path):
        """A SIGKILL mid-write leaves only a dot-temp, never a torn
        entry; reads and counts ignore it."""
        cache = ResultCache(str(tmp_path / "cache"))
        spec = levels_job(trace, "none")
        key = spec.cache_key()
        shard = os.path.dirname(cache._entry_path(key))
        os.makedirs(shard, exist_ok=True)
        with open(os.path.join(shard, ".tmp-killed.pkl"), "wb") as fh:
            fh.write(b"RPRC1\n half-written garbage")

        assert len(cache) == 0
        hit, _ = cache.get(key)
        assert not hit
        runner = SimulationRunner(cache=cache)
        runner.run_one(spec)
        assert runner.simulations_run == 1
        assert len(cache) == 1

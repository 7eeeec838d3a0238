"""Fan jobs out across processes, backed by the persistent cache.

:meth:`SimulationRunner.run` resolves a batch of specs in three steps:
probe the journal and cache, execute the misses (sequentially or on a
``ProcessPoolExecutor``), publish each result **as it completes**
(streaming — a later failure can never discard an earlier success).
Results come back in submission order regardless of worker completion
order, and duplicate specs within a batch are executed once, so a
caller can submit a whole figure grid naively and still get
deterministic output.

Execution is fault-tolerant (see ``docs/resilience.md``):

* failures are classified (:func:`repro.resilience.classify_failure`)
  and transient ones retried under a :class:`~repro.resilience.
  RetryPolicy` with exponential backoff and deterministic jitter;
* ``timeout`` imposes a per-job wall-clock deadline — an overdue worker
  is killed, the pool respawned, and only unresolved jobs re-dispatched
  (likewise for a worker that crashes outright: ``BrokenProcessPool``
  is recovery, not the end of the batch);
* a :class:`~repro.resilience.CheckpointJournal` records every
  resolution, so an interrupted batch resumes with zero recomputation;
* in degraded mode a job that exhausts its budget resolves to a
  :class:`~repro.resilience.JobFailure` cell instead of aborting the
  whole batch.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.errors import (
    FatalJobError,
    JobTimeout,
    ReproError,
    WorkerCrashError,
)
from repro.resilience.journal import CheckpointJournal
from repro.resilience.policy import (
    JobFailure,
    RetryPolicy,
    TIMEOUT,
    TRANSIENT,
    classify_failure,
)
from repro.runner.cache import ResultCache
from repro.runner.job import JobSpec, default_execute


def _as_repro_error(error: BaseException) -> ReproError:
    """Raise library failures, wrap foreign ones as FatalJobError."""
    if isinstance(error, ReproError):
        return error
    wrapped = FatalJobError(f"job failed: {type(error).__name__}: {error}")
    wrapped.__cause__ = error
    return wrapped


class SimulationRunner:
    """Fault-tolerant batch executor for :class:`JobSpec` values.

    ``jobs`` is the worker-process count (1 = run in this process);
    ``cache`` an optional :class:`ResultCache`.  ``retry`` bounds the
    attempt budget for transient failures and timeouts; ``timeout`` is
    the per-job wall-clock deadline in seconds (enforced only with
    ``jobs >= 2`` — an in-process job cannot be preempted).  ``journal``
    checkpoints resolutions for resume; ``degraded`` turns terminal
    failures into :class:`JobFailure` cells instead of exceptions.
    ``execute`` swaps the execution function (``fn(spec, attempt)``) —
    the chaos harness uses this to inject faults.

    ``simulations_run`` counts execution *attempts* — cache and journal
    hits do not increment it, which is how tests assert that a warm
    rerun (or a checkpoint resume) performs zero simulations.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        journal: CheckpointJournal | None = None,
        degraded: bool = False,
        execute=None,
    ) -> None:
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ReproError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.journal = journal
        self.degraded = degraded
        self.execute = execute if execute is not None else default_execute
        self.simulations_run = 0
        self.cache_hits = 0
        self.journal_hits = 0
        self.retries = 0
        self.timeouts = 0
        self.transient_errors = 0
        self.worker_crashes = 0
        self.pool_respawns = 0
        self.failures = 0

    @property
    def corrupt_evictions(self) -> int:
        """Corrupt cache entries this runner's cache evicted from disk.

        Lives on the cache (eviction happens inside ``cache.get``) but
        is surfaced here so run summaries read every observability
        counter off the runner.
        """
        return self.cache.corrupt_evictions if self.cache is not None else 0

    def run(self, specs: list[JobSpec], degraded: bool | None = None) -> list:
        """Resolve every spec; returns payloads in submission order.

        In degraded mode (``degraded=True`` here or on the runner) the
        returned list may contain :class:`JobFailure` values; every
        output slot of a duplicated spec shares the same failure.
        """
        degraded = self.degraded if degraded is None else degraded
        order: list[str] = []
        resolved: dict[str, object] = {}
        pending: dict[str, JobSpec] = {}
        for spec in specs:
            key = spec.cache_key()
            order.append(key)
            if key in resolved or key in pending:
                continue
            if self.cache is not None:
                hit, payload = self.cache.get(key)
                if hit:
                    self.cache_hits += 1
                    resolved[key] = payload
                    continue
            if degraded and self.journal is not None:
                failure = self.journal.failure_for(key)
                if failure is not None:
                    # A resumed degraded sweep does not burn a fresh
                    # attempt budget on a known-terminal cell.
                    self.journal_hits += 1
                    resolved[key] = failure
                    continue
            pending[key] = spec

        def publish(key: str, payload: object) -> None:
            resolved[key] = payload
            if self.cache is not None:
                self.cache.put(key, payload)
            if self.journal is not None:
                self.journal.record_done(key)

        def publish_failure(key: str, failure: JobFailure) -> None:
            resolved[key] = failure
            self.failures += 1
            if self.journal is not None:
                self.journal.record_failed(key, failure)

        if pending:
            if self.jobs == 1:
                self._dispatch_serial(
                    list(pending.items()), publish, publish_failure, degraded
                )
            else:
                self._dispatch_pool(
                    list(pending.items()), publish, publish_failure, degraded
                )
        return [resolved[key] for key in order]

    def run_one(self, spec: JobSpec):
        """Resolve a single spec (convenience wrapper around :meth:`run`)."""
        return self.run([spec])[0]

    # ------------------------------------------------------------------
    # in-process dispatch (jobs == 1)
    # ------------------------------------------------------------------

    def _dispatch_serial(self, items, publish, publish_failure,
                         degraded: bool) -> None:
        for key, spec in items:
            attempt = 0
            while True:
                attempt += 1
                self.simulations_run += 1
                try:
                    payload = self.execute(spec, attempt)
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    classification = classify_failure(error)
                    if (classification == TRANSIENT
                            and not isinstance(error, WorkerCrashError)):
                        self.transient_errors += 1
                    if self.retry.should_retry(classification, attempt):
                        self.retries += 1
                        delay = self.retry.delay(key, attempt)
                        if delay > 0.0:
                            time.sleep(delay)
                        continue
                    publish_failure(
                        key, JobFailure.from_error(key, error, attempt)
                    )
                    if not degraded:
                        raise _as_repro_error(error) from error
                    break
                else:
                    publish(key, payload)
                    break

    # ------------------------------------------------------------------
    # process-pool dispatch (jobs >= 2)
    # ------------------------------------------------------------------

    def _dispatch_pool(self, items, publish, publish_failure,
                       degraded: bool) -> None:
        specs = dict(items)
        workers = min(self.jobs, len(items))
        attempts = {key: 0 for key in specs}
        # (earliest re-dispatch time, key); sorted each round so backoff
        # delays never stall jobs that are already eligible.
        ready: list[tuple[float, str]] = [(0.0, key) for key in specs]
        unresolved = set(specs)
        inflight: dict = {}
        deadlines: dict = {}
        fatal: ReproError | None = None

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while unresolved and (inflight or ready or fatal is None):
                now = time.monotonic()
                if fatal is None:
                    # Windowed submission: at most `workers` jobs in
                    # flight, so a deadline measured from submission is
                    # a deadline on actual execution, not queue time.
                    ready.sort()
                    while (len(inflight) < workers and ready
                           and ready[0][0] <= now):
                        _, key = ready.pop(0)
                        attempts[key] += 1
                        self.simulations_run += 1
                        future = pool.submit(
                            self.execute, specs[key], attempts[key]
                        )
                        inflight[future] = key
                        deadlines[future] = (
                            now + self.timeout
                            if self.timeout is not None else None
                        )
                if not inflight:
                    if fatal is not None or not ready:
                        break
                    time.sleep(max(0.0, ready[0][0] - time.monotonic()))
                    continue

                waits = [d - now for d in deadlines.values()
                         if d is not None]
                done, _ = wait(
                    list(inflight),
                    timeout=max(0.0, min(waits)) if waits else None,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for future in done:
                    key = inflight.pop(future)
                    deadlines.pop(future, None)
                    error = future.exception()
                    if error is None:
                        unresolved.discard(key)
                        publish(key, future.result())
                        continue
                    if isinstance(error, BrokenProcessPool):
                        broken = True
                        error = WorkerCrashError(
                            f"worker process died executing "
                            f"{specs[key].trace_name}/"
                            f"{specs[key].config_name} "
                            f"(attempt {attempts[key]})"
                        )
                    fatal = self._settle_failure(
                        key, error, attempts, ready, unresolved,
                        publish_failure, degraded,
                    ) or fatal

                now = time.monotonic()
                expired = [future for future, deadline in deadlines.items()
                           if deadline is not None and deadline <= now]
                for future in expired:
                    key = inflight.pop(future)
                    deadlines.pop(future, None)
                    self.timeouts += 1
                    error = JobTimeout(
                        f"{specs[key].trace_name}/{specs[key].config_name} "
                        f"exceeded {self.timeout:g}s "
                        f"(attempt {attempts[key]})"
                    )
                    fatal = self._settle_failure(
                        key, error, attempts, ready, unresolved,
                        publish_failure, degraded,
                    ) or fatal

                if broken or expired:
                    if broken:
                        self.worker_crashes += 1
                    # Killing the pool takes the innocent in-flight
                    # jobs with it; re-dispatch them without charging
                    # their attempt budget.
                    now = time.monotonic()
                    for future in list(inflight):
                        key = inflight.pop(future)
                        deadlines.pop(future, None)
                        attempts[key] -= 1
                        ready.append((now, key))
                    self._kill_pool(pool)
                    self.pool_respawns += 1
                    pool = ProcessPoolExecutor(max_workers=workers)
        except BaseException:
            # Ctrl-C or an internal error: terminate workers instead of
            # waiting out whatever they are running.
            self._kill_pool(pool)
            raise
        else:
            # The pool is idle here (the loop drains in-flight work
            # before exiting); waiting joins the executor's management
            # thread so nothing races interpreter shutdown.
            pool.shutdown(wait=True, cancel_futures=True)
        if fatal is not None and not degraded:
            raise fatal

    def _settle_failure(self, key, error, attempts, ready, unresolved,
                        publish_failure, degraded: bool):
        """Retry a failed job or mark it terminal; returns a fatal error
        to raise (after the in-flight drain) in strict mode."""
        classification = classify_failure(error)
        if (classification == TRANSIENT
                and not isinstance(error, WorkerCrashError)):
            self.transient_errors += 1
        if self.retry.should_retry(classification, attempts[key]):
            self.retries += 1
            not_before = (time.monotonic()
                          + self.retry.delay(key, attempts[key]))
            ready.append((not_before, key))
            return None
        unresolved.discard(key)
        publish_failure(key, JobFailure.from_error(key, error,
                                                   attempts[key]))
        if degraded:
            return None
        if classification == TIMEOUT:
            return error
        return _as_repro_error(error)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate worker processes and abandon the executor.

        Used when a job overruns its deadline (the only way to stop a
        running worker is to kill it) or the pool is already broken.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

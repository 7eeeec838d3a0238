"""Fan jobs out across processes, backed by the persistent cache.

:meth:`SimulationRunner.run` resolves a batch of specs in three steps:
probe the cache, execute the misses (sequentially or on a
``ProcessPoolExecutor``), publish each result **as it completes**
(streaming — a later failure can never discard an earlier success).
Results come back in submission order regardless of worker completion
order, and duplicate specs within a batch are executed once, so a
caller can submit a whole figure grid naively and still get
deterministic output.

A pool batch ships each trace's records to a worker once: the pool's
initializer installs one ``{trace_sig: records}`` table per worker
(inherited under fork, pickled once per worker otherwise) and every
job is submitted without its records, which the worker puts back.

Execution is fault-tolerant (see ``docs/resilience.md``):

* failures are classified (:func:`repro.resilience.classify_failure`)
  and transient ones retried under a :class:`~repro.resilience.
  RetryPolicy` with exponential backoff and deterministic jitter;
* ``timeout`` imposes a per-job wall-clock deadline — an overdue worker
  is killed, the pool respawned, and only unresolved jobs re-dispatched
  (likewise for a worker that crashes outright: ``BrokenProcessPool``
  is recovery, not the end of the batch);
* an interrupted batch resumes from the cache, which holds every
  result published before the interrupt;
* in degraded mode a job that exhausts its budget resolves to a
  :class:`~repro.resilience.JobFailure` cell instead of aborting the
  whole batch.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.errors import (
    FatalJobError,
    JobTimeout,
    ReproError,
    WorkerCrashError,
)
from repro.resilience.policy import (
    JobFailure,
    RetryPolicy,
    TRANSIENT,
    classify_failure,
)
from repro.runner.cache import ResultCache
from repro.runner.job import JobSpec, default_execute

# The record table of the pool this worker process belongs to, set
# once by _install_records when the worker starts and read by
# _execute_shipped.  The parent process never writes it.
_shipped_records: dict[str, tuple] = {}


def _install_records(table: dict[str, tuple]) -> None:
    """Pool initializer: keep the batch's ``{trace_sig: records}`` table."""
    global _shipped_records
    _shipped_records = table


def _execute_shipped(execute, spec: JobSpec, attempt: int):
    """Pool entry point: give a record-free spec its records, then run it.

    ``execute`` (the runner's hook) receives a whole spec, exactly as
    on the serial path.
    """
    records = _shipped_records[spec.trace_sig]
    return execute(replace(spec, records=records), attempt)


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
    the per-job wall-clock deadline in seconds (it needs ``jobs >= 2``
    — an in-process job cannot be preempted, so it is rejected).
    ``degraded`` turns terminal failures into :class:`JobFailure` cells
    instead of exceptions.
    ``execute`` swaps the execution function (``fn(spec, attempt)``) —
    the chaos harness uses this to inject faults.  With ``jobs >= 2``
    each worker receives the batch's distinct record tuples once, at
    start-up, and the specs travel without records; ``execute`` still
    sees whole specs.  Without a ``timeout`` one job waits queued behind
    each running one, so a worker need not wait while this process
    publishes a result.

    ``simulations_run`` counts execution *attempts* — cache hits do not
    increment it, which is how tests assert that a warm rerun performs
    zero simulations.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        degraded: bool = False,
        execute=None,
    ) -> None:
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and not 0 < timeout < math.inf:
            # A NaN deadline never fires (it compares false with any
            # time), and an infinite one overflows wait()'s timeout.
            raise ReproError(f"timeout must be a finite number above 0, "
                             f"got {timeout}")
        if timeout is not None and jobs == 1:
            raise ReproError("timeout needs jobs >= 2: an in-process job "
                             "cannot be preempted")
        self.jobs = jobs
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.degraded = degraded
        self.execute = execute if execute is not None else default_execute
        self.simulations_run = 0
        self.cache_hits = 0
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

    def run(self, specs: list[JobSpec]) -> list:
        """Resolve every spec; returns payloads in submission order.

        In degraded mode (``degraded=True`` on the runner) the returned
        list may contain :class:`JobFailure` values; every output slot
        of a duplicated spec shares the same failure.
        """
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
            pending[key] = spec

        def publish(key: str, payload: object) -> None:
            resolved[key] = payload
            if self.cache is not None:
                self.cache.put(key, payload)

        def publish_failure(key: str, failure: JobFailure) -> None:
            resolved[key] = failure
            self.failures += 1

        if pending:
            if self.jobs == 1:
                self._dispatch_serial(
                    list(pending.items()), publish, publish_failure)
            else:
                self._dispatch_pool(
                    list(pending.items()), publish, publish_failure)
        return [resolved[key] for key in order]

    def run_one(self, spec: JobSpec):
        """Resolve a single spec (convenience wrapper around :meth:`run`)."""
        return self.run([spec])[0]

    # ------------------------------------------------------------------
    # in-process dispatch (jobs == 1)
    # ------------------------------------------------------------------

    def _dispatch_serial(self, items, publish, publish_failure) -> None:
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
                    delay = self._retry_delay(key, error, attempt)
                    if delay is not None:
                        if delay > 0.0:
                            time.sleep(delay)
                        continue
                    publish_failure(
                        key, JobFailure.from_error(key, error, attempt)
                    )
                    if not self.degraded:
                        raise _as_repro_error(error) from error
                    break
                else:
                    publish(key, payload)
                    break

    # ------------------------------------------------------------------
    # process-pool dispatch (jobs >= 2)
    # ------------------------------------------------------------------

    def _dispatch_pool(self, items, publish, publish_failure) -> None:
        specs = dict(items)
        workers = min(self.jobs, len(items))
        attempts = {key: 0 for key in specs}
        # (earliest re-dispatch time, key); sorted each round so backoff
        # delays never stall jobs that are already eligible.
        ready: list[tuple[float, str]] = [(0.0, key) for key in specs]
        unresolved = set(specs)
        # future -> key, in submission order (dicts keep insertion order).
        inflight: dict = {}
        deadlines: dict = {}
        fatal: ReproError | None = None
        # trace_sig already names the records in every cache key, so it
        # keys the table each worker receives once; specs go without.
        table = {spec.trace_sig: spec.records for spec in specs.values()}
        # Windowed submission.  Without a deadline a second job waits in
        # the executor's call queue behind each running one, so a worker
        # starts its next job while this process publishes a result.
        # With one, at most `workers` jobs are in flight, so a deadline
        # measured from submission is a deadline on actual execution,
        # not queue time.
        window = workers if self.timeout is not None else 2 * workers

        def new_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=workers,
                                       initializer=_install_records,
                                       initargs=(table,))

        pool = new_pool()
        try:
            while unresolved and (inflight or ready or fatal is None):
                now = time.monotonic()
                dead = False
                if fatal is None:
                    ready.sort()
                    while (len(inflight) < window and ready
                           and ready[0][0] <= now):
                        _, key = ready.pop(0)
                        try:
                            future = pool.submit(
                                _execute_shipped, self.execute,
                                replace(specs[key], records=()),
                                attempts[key] + 1,
                            )
                        except BrokenProcessPool:
                            # A worker died since the last round (a
                            # queued job can start, and crash, while
                            # this process publishes).  The in-flight
                            # jobs fail with the pool and are settled
                            # below; this one waits for the new pool.
                            ready.append((now, key))
                            dead = True
                            break
                        attempts[key] += 1
                        self.simulations_run += 1
                        inflight[future] = key
                        deadlines[future] = (
                            now + self.timeout
                            if self.timeout is not None else None
                        )
                if not inflight:
                    if dead:
                        self.worker_crashes += 1
                        self._kill_pool(pool)
                        self.pool_respawns += 1
                        pool = new_pool()
                        continue
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
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        # Settled below with the rest of the in-flight
                        # jobs the broken pool took down.
                        broken = True
                        continue
                    key = inflight.pop(future)
                    deadlines.pop(future, None)
                    if error is None:
                        unresolved.discard(key)
                        publish(key, future.result())
                        continue
                    fatal = self._settle_failure(
                        key, error, attempts, ready, unresolved,
                        publish_failure) or fatal

                if broken:
                    self.worker_crashes += 1
                    # Workers take jobs in submission order, so only the
                    # `workers` oldest unresolved jobs can have been
                    # running; each is charged the crash.  The younger
                    # ones were still queued and are refunded below.
                    for future in list(inflight)[:workers]:
                        key = inflight.pop(future)
                        deadlines.pop(future, None)
                        error = WorkerCrashError(
                            f"worker process died executing "
                            f"{specs[key].trace_name}/"
                            f"{specs[key].config_name} "
                            f"(attempt {attempts[key]})"
                        )
                        fatal = self._settle_failure(
                            key, error, attempts, ready, unresolved,
                            publish_failure) or fatal

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
                        publish_failure) or fatal

                if broken or expired:
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
                    pool = new_pool()
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
        if fatal is not None and not self.degraded:
            raise fatal

    def _retry_delay(self, key: str, error: BaseException,
                     attempt: int) -> float | None:
        """Backoff before retrying ``key`` after ``error`` ended its
        ``attempt``, or None when the failure is terminal; counts a
        transient error (a crash is counted as a crash) and a retry."""
        classification = classify_failure(error)
        if (classification == TRANSIENT
                and not isinstance(error, WorkerCrashError)):
            self.transient_errors += 1
        if not self.retry.should_retry(classification, attempt):
            return None
        self.retries += 1
        return self.retry.delay(key, attempt)

    def _settle_failure(self, key, error, attempts, ready, unresolved,
                        publish_failure):
        """Retry a failed job or mark it terminal; returns a fatal error
        to raise (after the in-flight drain) in strict mode."""
        delay = self._retry_delay(key, error, attempts[key])
        if delay is not None:
            ready.append((time.monotonic() + delay, key))
            return None
        unresolved.discard(key)
        publish_failure(key, JobFailure.from_error(key, error,
                                                   attempts[key]))
        if self.degraded:
            return None
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

"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause.

Each class carries a distinct ``exit_code`` so the CLI can translate a
failure into a stable, scriptable process exit status (see
``docs/resilience.md`` for the full table).  The execution-layer
taxonomy (:class:`JobError` and friends) is what the fault-tolerant
runner uses to decide whether a failed job is worth retrying:

* :class:`TransientJobError` — infrastructure hiccups (a crashed worker
  process, an injected chaos fault, a dropped connection).  Retried
  with exponential backoff up to the policy's attempt budget.
* :class:`JobTimeout` — the job exceeded its wall-clock budget.
  Retried when the policy says timeouts are retryable.
* :class:`FatalJobError` — the job itself is broken (bad spec, a bug in
  the simulator).  Never retried; re-running cannot help.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    exit_code = 2


class ConfigurationError(ReproError):
    """A simulation or prefetcher configuration is invalid.

    Raised eagerly at construction time (e.g. a cache whose size is not a
    multiple of ``ways * line_size``, or a prefetch degree below one).
    """

    exit_code = 3


class TraceError(ReproError):
    """A trace record or trace file is malformed."""

    exit_code = 4


class TraceFormatError(TraceError):
    """An ingested trace record does not parse under its declared format.

    Raised by the streaming readers in :mod:`repro.ingest` under the
    ``strict`` policy at the first malformed record (torn line, unknown
    command, field overflow); under ``lenient``/``quarantine`` the
    record is skipped and counted instead.
    """

    exit_code = 14


class TraceTruncatedError(TraceError):
    """An ingested trace stream ended before its declared end.

    Covers a gzip member cut mid-stream, a binary trace whose byte size
    is not a whole number of records, and a record count that stops
    short of the header's promise.
    """

    exit_code = 15


class TraceChecksumError(TraceError):
    """A trace's content signature does not match its recorded one.

    Raised when a binary trace's embedded footer checksum fails, or
    when a registered trace file no longer hashes to the signature in
    the trace registry — the registry refuses to run (or replay cached
    results for) a file that silently changed underneath it.
    """

    exit_code = 16


class TraceBudgetError(TraceError):
    """Lenient ingestion exhausted its malformed-record budget.

    ``lenient``/``quarantine`` ingestion skips and counts bad records,
    but only up to ``max_errors``; a stream that is mostly garbage is a
    wrong *file*, not a recoverable blemish, and fails loudly.
    """

    exit_code = 17


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""

    exit_code = 5


class JobError(ReproError):
    """Base class for failures of a single execution-layer job."""

    exit_code = 6


class JobTimeout(JobError):
    """A job exceeded its per-job wall-clock budget.

    Raised by the runner (the worker itself is killed); retried when
    :class:`repro.resilience.RetryPolicy` has ``retry_timeouts`` set and
    attempt budget remains.
    """

    exit_code = 7


class TransientJobError(JobError):
    """A job failed for a reason that a retry can plausibly fix."""

    exit_code = 8


class WorkerCrashError(TransientJobError):
    """A worker process died underneath a job (``BrokenProcessPool``).

    Transient: the runner respawns the pool and re-dispatches the
    unresolved jobs.
    """


class FatalJobError(JobError):
    """A job failed in a way retrying cannot fix (bad spec, code bug)."""

    exit_code = 9


class CheckpointError(ReproError):
    """A checkpoint journal could not be read or written."""

    exit_code = 10


def exit_code_for(error: BaseException) -> int:
    """Process exit code for an error (2 for non-repro exceptions)."""
    return getattr(error, "exit_code", 2)

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
    """An ingested trace file is not RIB1 or holds a malformed record.

    Raised by the RIB1 reader in :mod:`repro.ingest` when the header is
    not RIB1 (wrong magic or version) or at the first malformed record
    (bad marker byte, unknown kind, bad dep flag, memory record at
    address 0).
    """

    exit_code = 14


class TraceTruncatedError(TraceError):
    """An ingested trace stream ended before its declared end.

    Covers a header cut short, a torn last record, a record count that
    stops short of the header's promise, a missing footer, an
    unfinalized file and a failed read.
    """

    exit_code = 15


class TraceChecksumError(TraceError):
    """A trace's content does not match its recorded digest.

    Raised when a RIB1 trace's footer magic is damaged or its records
    no longer hash to the footer's blake2b digest — bit rot that kept
    every record well-formed.
    """

    exit_code = 16


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""

    exit_code = 5


class JobError(ReproError):
    """Base class for failures of a single execution-layer job."""

    exit_code = 6


class JobTimeout(JobError):
    """A job exceeded its per-job wall-clock budget.

    Raised by the runner (the worker itself is killed); retried while
    the :class:`repro.resilience.RetryPolicy` attempt budget remains.
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


def exit_code_for(error: BaseException) -> int:
    """Process exit code for an error (2 for non-repro exceptions)."""
    return getattr(error, "exit_code", 2)

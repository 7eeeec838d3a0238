"""Fault-tolerant execution layer for the simulation runner.

The paper's evaluation grids (and anything production-scale built on
them) run for long enough that faults are a certainty, not an edge
case.  This package gives :class:`repro.runner.SimulationRunner` the
four survivability properties a long sweep needs:

* **retry** — :class:`RetryPolicy`: bounded attempts with exponential
  backoff and deterministic jitter, gated on the failure taxonomy in
  :mod:`repro.errors` (transient vs fatal vs timeout);
* **timeouts + crash recovery** — per-job wall-clock deadlines and
  ``BrokenProcessPool`` handling that kill/respawn the worker pool and
  re-dispatch only the unresolved jobs;
* **journal** — :class:`CheckpointJournal`: an append-only log of
  resolved cache keys and terminal failures, plus :class:`JobFailure`
  cells so degraded runs render partial grids instead of aborting.  An
  interrupted sweep resumes from the result cache (every result is
  published as it completes); the runner reads the journal back only
  in degraded mode, to skip cells it logged as failed;
* **chaos** — :mod:`repro.resilience.chaos`: a deterministic, seeded
  fault-injection harness (worker crashes, hangs, transient errors,
  corrupt cache entries) that proves recovered runs are bit-identical
  to fault-free runs (``tests/test_chaos.py``).

See ``docs/resilience.md`` for semantics and the failure taxonomy
table.  :mod:`~repro.resilience.chaos` is imported lazily (it depends
on the runner package) — use ``from repro.resilience import chaos``.
"""

from repro.resilience.journal import CheckpointJournal, flush_active_journals
from repro.resilience.policy import (
    FATAL,
    JobFailure,
    RetryPolicy,
    TIMEOUT,
    TRANSIENT,
    classify_failure,
)

__all__ = [
    "CheckpointJournal",
    "FATAL",
    "JobFailure",
    "RetryPolicy",
    "TIMEOUT",
    "TRANSIENT",
    "classify_failure",
    "flush_active_journals",
]

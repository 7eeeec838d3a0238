"""Fault-tolerant execution layer for the simulation runner.

The paper's evaluation grids (and anything production-scale built on
them) run for long enough that faults are a certainty, not an edge
case.  This package gives :class:`repro.runner.SimulationRunner` the
survivability properties a long sweep needs:

* **retry** — :class:`RetryPolicy`: bounded attempts with exponential
  backoff and deterministic jitter, gated on the failure taxonomy in
  :mod:`repro.errors` (transient vs fatal vs timeout);
* **timeouts + crash recovery** — per-job wall-clock deadlines and
  ``BrokenProcessPool`` handling that kill/respawn the worker pool and
  re-dispatch only the unresolved jobs;
* **degraded mode** — :class:`JobFailure` cells, so a degraded batch
  returns its partial results instead of aborting.  An interrupted
  sweep resumes from the result cache (every result is published as it
  completes).

The seeded fault-injection harness that proves recovered runs are
bit-identical to fault-free runs lives with its tests
(``tests/chaos.py``, driven by ``tests/test_chaos.py``).  See
``docs/resilience.md`` for semantics and the failure taxonomy table.
"""

from repro.resilience.policy import (
    FATAL,
    JobFailure,
    RetryPolicy,
    TIMEOUT,
    TRANSIENT,
    classify_failure,
)

__all__ = [
    "FATAL",
    "JobFailure",
    "RetryPolicy",
    "TIMEOUT",
    "TRANSIENT",
    "classify_failure",
]

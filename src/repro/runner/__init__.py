"""Parallel simulation runner with a persistent result cache.

Every paper figure is a grid of independent (trace, configuration,
parameters) cells, each a deterministic pure function of its inputs.
This package turns that grid into explicit, picklable :class:`JobSpec`
values so cells can

* fan out across a :class:`concurrent.futures.ProcessPoolExecutor`
  (``jobs=N``) with results returned in deterministic submission order,
  and
* be memoized on disk in a content-addressed :class:`ResultCache`
  (key = trace signature + parameter fingerprint + configuration name +
  code-version salt), so re-running a figure or a sensitivity sweep is
  a cache hit rather than a re-simulation.

:class:`SimulationRunner` ties the two together and is the substrate
under :class:`repro.analysis.ExperimentRunner` (single-core grids and
sensitivity sweeps), the claim cells' mix batches, the multicore
alone-IPC runs and the ``repro`` CLI.  Execution is
fault-tolerant via :mod:`repro.resilience` — bounded retries with
backoff, per-job timeouts, worker-crash recovery, and degraded-mode
:class:`JobFailure` cells with a failure journal (see
``docs/resilience.md``).
"""

from repro.resilience import CheckpointJournal, JobFailure, RetryPolicy
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.job import (
    JobSpec,
    alone_ipc_job,
    code_salt,
    default_execute,
    execute_job,
    levels_job,
    mix_job,
    params_fingerprint,
    trace_signature,
)
from repro.runner.pool import SimulationRunner

__all__ = [
    "CheckpointJournal",
    "JobFailure",
    "JobSpec",
    "ResultCache",
    "RetryPolicy",
    "SimulationRunner",
    "alone_ipc_job",
    "code_salt",
    "default_cache_dir",
    "default_execute",
    "execute_job",
    "levels_job",
    "mix_job",
    "params_fingerprint",
    "trace_signature",
]

"""Retry policy, failure classification and degraded-mode failure cells.

The fault-tolerant runner never retries blindly: every exception coming
out of a job is first *classified* against the taxonomy in
:mod:`repro.errors` —

========================  ==========  =================================
classification            retried?    examples
========================  ==========  =================================
``transient``             yes         :class:`TransientJobError`,
                                      :class:`WorkerCrashError`,
                                      ``BrokenProcessPool``
``timeout``               yes         :class:`JobTimeout` (worker killed
                                      by the runner's deadline)
``fatal``                 never       everything else — a bad spec or a
                                      simulator bug; re-running cannot
                                      help
========================  ==========  =================================

Backoff is exponential with **deterministic jitter**: the jitter factor
is a pure hash of ``(seed, job key, attempt)``, so two runs of the same
batch sleep identically and a chaos-recovery run stays reproducible.
"""

from __future__ import annotations

import hashlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.errors import ConfigurationError, JobTimeout, TransientJobError

TRANSIENT = "transient"
TIMEOUT = "timeout"
FATAL = "fatal"


def classify_failure(error: BaseException) -> str:
    """Map an exception to ``transient`` / ``timeout`` / ``fatal``."""
    if isinstance(error, JobTimeout):
        return TIMEOUT
    if isinstance(error, (TransientJobError, BrokenProcessPool,
                          ConnectionError, InterruptedError)):
        return TRANSIENT
    return FATAL


#: Backoff growth per attempt, its cap in seconds, the largest jitter
#: stretch (as a fraction of the delay) and the jitter hash's seed.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0
JITTER = 0.5
JITTER_SEED = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``max_attempts`` counts every execution of a job including the
    first, so ``max_attempts=1`` disables retrying entirely.  The delay
    before attempt ``n+1`` is ``backoff_base * BACKOFF_FACTOR**(n-1)``
    capped at :data:`BACKOFF_MAX`, stretched by up to :data:`JITTER` of
    itself using a hash of ``(JITTER_SEED, key, attempt)`` —
    deterministic, but decorrelated across jobs so a whole batch
    retrying at once does not stampede.  ``backoff_base=0`` never
    sleeps.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}")

    def should_retry(self, classification: str, attempt: int) -> bool:
        """Whether a job that failed on ``attempt`` gets another one:
        transient failures and timeouts do while attempts remain."""
        return (attempt < self.max_attempts
                and classification in (TRANSIENT, TIMEOUT))

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before re-dispatching ``key`` after ``attempt``."""
        if self.backoff_base <= 0.0:
            return 0.0
        base = min(BACKOFF_MAX,
                   self.backoff_base * BACKOFF_FACTOR ** (attempt - 1))
        token = f"{JITTER_SEED}:{key}:{attempt}".encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        unit = int.from_bytes(digest, "big") / 2.0 ** 64
        return base * (1.0 + JITTER * unit)


@dataclass(frozen=True)
class JobFailure:
    """Terminal failure of one job, carried as a degraded-mode result.

    In degraded mode the runner resolves a job that exhausted its
    attempt budget (or failed fatally) to a ``JobFailure`` instead of
    aborting the batch, so the caller gets every other result of the
    batch; ``str()`` renders the cell as ``FAILED(ErrorType)``.  Every
    output slot of a duplicated spec shares the same failure.
    """

    key: str
    error_type: str
    message: str
    attempts: int

    @classmethod
    def from_error(cls, key: str, error: BaseException,
                   attempts: int) -> "JobFailure":
        return cls(key=key, error_type=type(error).__name__,
                   message=str(error), attempts=attempts)

    @property
    def reason(self) -> str:
        return f"{self.error_type}: {self.message}"

    def __str__(self) -> str:
        return f"FAILED({self.error_type})"

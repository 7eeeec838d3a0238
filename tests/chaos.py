"""Deterministic, seeded fault injection for the resilience tests.

A test helper, imported by ``tests/test_chaos.py`` (execution faults)
and ``tests/test_ingest.py`` (input faults).  ``chaos_execute_job``
wraps :func:`repro.runner.job.execute_job` and
:class:`ChaosCache` wraps :class:`repro.runner.cache.ResultCache`;
together they inject the four fault families the resilience layer must
absorb:

* **crash** — the worker process dies mid-job (``os._exit``; when no
  worker process exists, a :class:`WorkerCrashError` stands in),
* **hang** — the job sleeps past any sane deadline, so a configured
  per-job timeout fires and the runner kills the worker,
* **transient** — the job raises :class:`TransientJobError`,
* **corrupt** — a freshly published cache entry is truncated on disk,
  so the next read fails its digest check and recomputes.

Every decision is a pure function of ``(plan.seed, job key, attempt,
fault kind)`` — no global RNG, no wall clock — so a chaos run is
bit-reproducible and a test can replay the exact same fault schedule.
Faults only fire on attempts ``<= plan.fault_attempts``; as long as the
retry budget exceeds that, every chaotic run converges to the same
results as a fault-free run, which is the property
``tests/test_chaos.py`` proves.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.errors import TransientJobError, WorkerCrashError
from repro.ingest.binary import FOOTER_SIZE, HEADER_SIZE, MARKER, RECORD_SIZE
from repro.runner.cache import ResultCache
from repro.runner.job import JobSpec, execute_job

CRASH = "crash"
HANG = "hang"
TRANSIENT = "transient"
CORRUPT = "corrupt"

# Exit status of a chaos-crashed worker; distinctive in core dumps/logs.
CRASH_EXIT_CODE = 37


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded fault schedule (picklable, crosses into workers intact).

    Rates partition the unit interval, so at most one execution fault
    (crash/hang/transient) fires per attempt and their sum must be
    <= 1.0.  ``corrupt_rate`` is rolled independently at publish time.

    ``forced`` pins faults to named cells — a tuple of
    ``((trace_name, config_name), kind)`` pairs — bypassing the random
    roll for those cells.  Rate draws hash the cache key, which shifts
    whenever the simulator's code salt changes; a forced schedule is
    how a test *guarantees* a specific fault mix across code versions.
    """

    seed: int = 1
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_seconds: float = 30.0
    fault_attempts: int = 1
    forced: tuple = ()

    def __post_init__(self) -> None:
        total = self.crash_rate + self.hang_rate + self.transient_rate
        if total > 1.0 + 1e-9:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"chaos execution fault rates sum to {total:.3f} > 1.0"
            )

    def roll(self, key: str, attempt: int, kind: str) -> float:
        """Deterministic uniform [0, 1) draw for one fault decision."""
        token = f"{self.seed}:{key}:{attempt}:{kind}".encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def execution_fault(self, key: str, attempt: int) -> str | None:
        """Which execution fault (if any) fires for this attempt."""
        if attempt > self.fault_attempts:
            return None
        draw = self.roll(key, attempt, "exec")
        if draw < self.crash_rate:
            return CRASH
        if draw < self.crash_rate + self.hang_rate:
            return HANG
        if draw < self.crash_rate + self.hang_rate + self.transient_rate:
            return TRANSIENT
        return None

    def corrupts(self, key: str) -> bool:
        """Whether the first publish of this key gets corrupted."""
        return self.roll(key, 1, CORRUPT) < self.corrupt_rate

    def fault_for(self, spec: "JobSpec", attempt: int) -> str | None:
        """The fault (if any) for one job attempt: forced, then rolled.

        Forced entries are ``((trace_name, config_name), kind)`` or
        ``((trace_name, config_name), kind, max_attempt)`` — the
        optional third element bounds how many attempts of that cell
        fault (default: ``plan.fault_attempts``).
        """
        for entry in self.forced:
            (trace_name, config_name), kind = entry[0], entry[1]
            if (trace_name == spec.trace_name
                    and config_name == spec.config_name):
                limit = entry[2] if len(entry) > 2 else self.fault_attempts
                return kind if attempt <= limit else None
        return self.execution_fault(spec.cache_key(), attempt)


def chaos_execute_job(spec: JobSpec, attempt: int = 1,
                      plan: ChaosPlan | None = None):
    """Execute a job, injecting the scheduled fault for this attempt.

    Module-level (and driven through :func:`functools.partial` with a
    picklable plan) so it dispatches under every multiprocessing start
    method, exactly like the real :func:`execute_job`.
    """
    if plan is not None:
        fault = plan.fault_for(spec, attempt)
        if fault == CRASH:
            if multiprocessing.parent_process() is not None:
                os._exit(CRASH_EXIT_CODE)
            # No worker process to kill in in-process mode; the
            # equivalent observable failure is a worker-crash error.
            raise WorkerCrashError(
                f"chaos: injected worker crash ({spec.trace_name}/"
                f"{spec.config_name}, attempt {attempt})"
            )
        if fault == HANG:
            # Sleep past the runner's deadline; with a timeout set the
            # worker is killed mid-sleep, without one the job merely
            # finishes late — either way the payload stays correct.
            time.sleep(plan.hang_seconds)
        elif fault == TRANSIENT:
            raise TransientJobError(
                f"chaos: injected transient failure ({spec.trace_name}/"
                f"{spec.config_name}, attempt {attempt})"
            )
    return execute_job(spec)


class ChaosCache:
    """ResultCache proxy that corrupts scheduled entries after publish.

    Each scheduled key is truncated exactly once (on its first
    ``put``), so the poisoned entry fails its digest check on the next
    ``get``, gets evicted and recomputed, and the republished entry
    survives — the recovery path the real cache promises for killed
    writers and disk errors.
    """

    def __init__(self, inner: ResultCache, plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.corrupted_keys: set[str] = set()

    @property
    def corruptions(self) -> int:
        return len(self.corrupted_keys)

    def get(self, key: str) -> tuple[bool, object]:
        return self.inner.get(key)

    def put(self, key: str, payload: object) -> None:
        self.inner.put(key, payload)
        if key in self.corrupted_keys or not self.plan.corrupts(key):
            return
        self.corrupted_keys.add(key)
        entry = self.inner._entry_path(key)
        try:
            with open(entry, "rb") as fh:
                blob = fh.read()
            with open(entry, "wb") as fh:
                fh.write(blob[: max(1, len(blob) // 2)])
        except OSError:
            self.corrupted_keys.discard(key)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __len__(self) -> int:
        return len(self.inner)


# ---------------------------------------------------------------------------
# Input-fault schedules for the ingestion layer (repro.ingest).
#
# Same philosophy as ChaosPlan — every fault is a pure function of
# (seed, record index, fault kind) — but aimed at the *bytes on disk*
# rather than the execution layer: whole-record byte reversal (wrong
# endianness) and mid-record truncation of a RIB1 trace.
#
# The corruptor returns the exact clean-record indices it destroyed,
# which is what makes detection *checkable*: ingesting the faulted
# bytes must fail at the first returned victim.  Every injected fault
# is guaranteed-invalid by construction (a reversed record is
# re-damaged if its marker byte would survive), so a fault can never
# silently mutate a record into different-but-valid data — it is
# either detected, or the corruptor is wrong.
# ---------------------------------------------------------------------------

BYTE_REVERSE = "byte-reverse"


@dataclass(frozen=True)
class InputFaultPlan:
    """Seeded schedule of byte-level RIB1 trace damage.

    ``flip_rate`` is the per-record chance of a whole-record byte
    reversal; ``truncate_fraction`` > 0 cuts the stream mid-record at
    roughly that fraction of its records.
    """

    seed: int = 1
    flip_rate: float = 0.0
    truncate_fraction: float = 0.0

    def roll(self, index: int, kind: str) -> float:
        """Deterministic uniform [0, 1) draw for one fault decision."""
        token = f"{self.seed}:{index}:{kind}".encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass
class CorruptionResult:
    """Faulted bytes plus the ground truth of what was destroyed."""

    data: bytes
    victims: list[int]      # clean-record indices that no longer survive
    truncated: bool = False


def corrupt_binary(clean: bytes, plan: InputFaultPlan) -> CorruptionResult:
    """Apply a fault schedule to a finalized RIB1 byte string.

    Scheduled records get their 28 bytes reversed (the wrong-
    endianness fault); if the reversal would happen to land a valid
    marker byte, the marker position is re-damaged so every victim is
    guaranteed-detectable.  A truncation keeps half of the cut record
    (a torn record) and drops everything after it, footer included.
    """
    payload = len(clean) - HEADER_SIZE - FOOTER_SIZE
    count = payload // RECORD_SIZE
    blob = bytearray(clean)
    victims: set[int] = set()
    for index in range(count):
        if plan.roll(index, BYTE_REVERSE) >= plan.flip_rate:
            continue
        start = HEADER_SIZE + index * RECORD_SIZE
        record = blob[start:start + RECORD_SIZE][::-1]
        if record[RECORD_SIZE - 2] == MARKER:
            record[RECORD_SIZE - 2] ^= 0x55
        blob[start:start + RECORD_SIZE] = record
        victims.add(index)
    truncated = False
    if plan.truncate_fraction > 0 and count:
        cut_record = min(int(count * plan.truncate_fraction), count - 1)
        cut = HEADER_SIZE + cut_record * RECORD_SIZE + RECORD_SIZE // 2
        blob = blob[:cut]
        for index in range(cut_record, count):
            victims.add(index)
        truncated = True
    return CorruptionResult(bytes(blob), sorted(victims),
                            truncated=truncated)

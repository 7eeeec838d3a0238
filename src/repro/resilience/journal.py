"""Append-only failure log for degraded sweeps.

A :class:`CheckpointJournal` records, one JSON line per event, every
cell of a run that exhausted its retry budget: the cache key plus the
failure taxonomy (error type, message, attempts).  A later success of
a logged cell writes a ``cleared`` line that supersedes its failure.
Each line is flushed to the OS as it is written, and
:meth:`~CheckpointJournal.flush`/:meth:`~CheckpointJournal.close`
fsync it; the CLI flushes every open journal on Ctrl-C.

Other successful cells are not logged: each result is published to the
:class:`~repro.runner.cache.ResultCache` as it completes, so an
interrupted run resumes from the cache.  The journal is read back only
in degraded mode, where a recorded failure surfaces immediately as a
:class:`~repro.resilience.policy.JobFailure` cell without burning a
fresh attempt budget on a known-fatal cell.

A half-written trailing line (the writer was SIGKILLed mid-append) is
skipped on load rather than treated as corruption, and so are runs of
NUL bytes: journalling filesystems that replay a metadata-only commit
after power loss can leave a pre-allocated tail of ``\\x00`` where the
flushed data never hit the platter.  Both cases are counted in
:attr:`CheckpointJournal.skipped_lines` so a rerun can report how
much of the journal was unreadable.
"""

from __future__ import annotations

import json
import os
import weakref

from repro.errors import CheckpointError
from repro.resilience.policy import JobFailure

FAILED = "failed"
CLEARED = "cleared"

# Open journals, so the CLI can flush every one of them on
# KeyboardInterrupt regardless of which command object holds them.
_ACTIVE: "weakref.WeakSet[CheckpointJournal]" = weakref.WeakSet()


def flush_active_journals() -> int:
    """Flush every open journal (returns how many were flushed)."""
    count = 0
    for journal in list(_ACTIVE):
        journal.flush()
        count += 1
    return count


class CheckpointJournal:
    """Append-only record of the cells that failed terminally."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.entries: dict[str, dict] = {}
        self.skipped_lines = 0
        directory = os.path.dirname(path)
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as error:
                raise CheckpointError(
                    f"journal directory {directory!r} is not writable"
                ) from error
        if os.path.exists(path):
            self._load()
        try:
            self._fh = open(path, "a", encoding="utf-8")
        except OSError as error:
            raise CheckpointError(
                f"cannot open checkpoint journal {path!r}: {error}"
            ) from error
        _ACTIVE.add(self)

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint journal {self.path!r}: {error}"
            ) from error
        for raw in lines:
            # NUL runs come from crash-replayed filesystem pre-allocation
            # (see module docstring); strip them from both edges so an
            # entry that survived next to a padded tail still loads.
            line = raw.strip().strip("\x00").strip()
            if not line:
                if raw.strip():  # pure NUL padding, not a blank line
                    self.skipped_lines += 1
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                status = entry["status"]
            except (ValueError, TypeError, KeyError):
                # A writer killed mid-append leaves a torn final line;
                # everything before it is still a valid entry.
                self.skipped_lines += 1
                continue
            if status in (FAILED, CLEARED):
                self.entries[key] = entry

    def _write(self, entry: dict) -> None:
        self.entries[entry["key"]] = entry
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()

    def record_failed(self, key: str, failure: JobFailure) -> None:
        """Mark a key as terminally failed (with its taxonomy)."""
        self._write({
            "key": key,
            "status": FAILED,
            "error_type": failure.error_type,
            "message": failure.message,
            "attempts": failure.attempts,
        })

    def clear_failure(self, key: str) -> None:
        """Supersede a key's logged failure: the cell has since succeeded.

        Writes a line only when the key has a failure on record, so a
        run without failures leaves the journal empty.
        """
        if self.entries.get(key, {}).get("status") == FAILED:
            self._write({"key": key, "status": CLEARED})

    def failure_for(self, key: str) -> JobFailure | None:
        """The recorded failure for a key, if it terminally failed."""
        entry = self.entries.get(key)
        if entry is None or entry.get("status") != FAILED:
            return None
        return JobFailure(
            key=key,
            error_type=entry.get("error_type", "JobError"),
            message=entry.get("message", ""),
            attempts=int(entry.get("attempts", 0)),
        )

    @property
    def failed_keys(self) -> set[str]:
        return {key for key, entry in self.entries.items()
                if entry.get("status") == FAILED}

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()
        _ACTIVE.discard(self)

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

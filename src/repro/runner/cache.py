"""Persistent content-addressed result cache.

Entries are stored one file per key, sharded by key prefix::

    <cache_dir>/<key[:2]>/<key>.pkl

Each file is ``MAGIC + blake2b(body) + body`` where ``body`` is the
pickled payload.  :meth:`ResultCache.get` verifies the digest before
unpickling, so a truncated or corrupted entry (killed writer, disk
error, manual tampering) is detected, evicted and recomputed instead of
crashing the run or — worse — silently returning garbage.  Writes are
atomic: the blob is written to a dot-prefixed temporary file in the
entry's own directory, fsynced, then published with :func:`os.replace`
— a writer SIGKILLed at any instant leaves either the old state or the
complete new entry, never a torn one, and concurrent workers racing on
the same key can only ever publish complete entries (last writer wins).
Eviction of a corrupt entry is guarded the same way: the reader only
removes the exact file it read, never an entry a concurrent writer has
just republished, so a same-key race can never trigger a spurious
evict-then-recompute of a valid entry.  Orphaned temporaries from
killed writers are invisible to :meth:`get` and :meth:`__len__` (both
look only at ``<key>.pkl`` names).
"""

from __future__ import annotations

import os
import pickle
import tempfile

from repro.errors import ReproError

_MAGIC = b"RPRC1\n"
_DIGEST_SIZE = 16


def default_cache_dir() -> str:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sim``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sim")


def _digest(body: bytes) -> bytes:
    import hashlib

    return hashlib.blake2b(body, digest_size=_DIGEST_SIZE).digest()


class ResultCache:
    """Content-addressed pickle store with integrity verification."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path or default_cache_dir()
        try:
            os.makedirs(self.path, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise ReproError(
                f"cache dir {self.path!r} is not a directory"
            ) from error
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        # Corrupt entries actually removed from disk.  Can lag
        # `corrupt` when a concurrent writer republished the entry
        # between our read and the eviction (then nothing is removed).
        self.corrupt_evictions = 0

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, key[:2], f"{key}.pkl")

    def get(self, key: str) -> tuple[bool, object]:
        """Return ``(True, payload)`` on a verified hit, else ``(False, None)``."""
        entry = self._entry_path(key)
        read_stat = None
        try:
            with open(entry, "rb") as fh:
                read_stat = os.fstat(fh.fileno())
                blob = fh.read()
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            stored = blob[len(_MAGIC):len(_MAGIC) + _DIGEST_SIZE]
            body = blob[len(_MAGIC) + _DIGEST_SIZE:]
            if stored != _digest(body):
                raise ValueError("digest mismatch")
            payload = pickle.loads(body)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except (OSError, ValueError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError):
            # Poisoned entry: evict it so the cell is recomputed.
            self.corrupt += 1
            self.misses += 1
            self._evict(entry, read_stat)
            return False, None
        self.hits += 1
        return True, payload

    def _evict(self, entry: str, read_stat: os.stat_result | None) -> None:
        """Remove a corrupt entry — unless a writer already replaced it.

        Under concurrent writers (any two processes sharing one cache
        directory and racing on one key) the corrupt blob this reader
        saw may have been superseded by a complete entry published via
        :func:`os.replace` between our read and this eviction.  Removing blindly would
        throw away that valid last-writer-wins entry and force a
        spurious recompute, so the entry is only removed while it is
        still byte-for-byte the file we read (same inode, size and
        mtime).  ``read_stat`` is ``None`` when the file could not even
        be opened; then there is nothing trustworthy to compare and the
        path is removed unconditionally, matching the old behaviour.
        """
        try:
            if read_stat is not None:
                current = os.stat(entry)
                if ((current.st_ino, current.st_size, current.st_mtime_ns)
                        != (read_stat.st_ino, read_stat.st_size,
                            read_stat.st_mtime_ns)):
                    return
            os.remove(entry)
            self.corrupt_evictions += 1
        except OSError:
            pass

    def put(self, key: str, payload: object) -> None:
        """Store a payload atomically under its key."""
        entry = self._entry_path(key)
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + _digest(body) + body
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(entry), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, entry)
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        count = 0
        for directory, _, names in os.walk(self.path):
            count += sum(1 for name in names
                         if name.endswith(".pkl") and not name.startswith("."))
        return count

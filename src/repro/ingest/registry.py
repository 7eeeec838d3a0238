"""Checksummed trace registry: names bound to content signatures.

A registry is one JSON document mapping short trace names to
``{path, format, signature, bytes, records}``, where ``signature`` is
a streamed blake2b-16 over the file's raw bytes.  Registering a trace
is a promise about *content*, not location: every later resolution
re-hashes the file and refuses — :class:`~repro.errors.
TraceChecksumError`, its own exit code — if a single bit changed
underneath the name.

The payoff is cache honesty.  :meth:`TraceRegistry.load_trace` stamps the
verified file signature onto the loaded trace as its memoized
``trace_signature`` (the value :meth:`repro.runner.job.JobSpec.
cache_key` folds in), so a cached simulation result is keyed by the
bytes of the trace file that produced it.  Replaying a cached result
against a silently-tampered trace file is structurally impossible:
the tampered file fails verification before a spec is even built.

Registration is strict by construction — the whole trace is streamed
through the strict-policy reader while counting records, so a file
with even one malformed record cannot be registered.  Registry writes
are atomic (temp file + ``os.replace``).
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.errors import ConfigurationError, TraceChecksumError
from repro.ingest.convert import detect_format, validate_format
from repro.ingest.k6 import make_report
from repro.ingest.policies import IngestReport, STRICT
from repro.sim.trace import Trace

REGISTRY_VERSION = 1

DEFAULT_REGISTRY = "traces.json"

_SIGNATURE_BYTES = 16
_HASH_BLOCK = 1 << 20


def file_signature(path: str) -> str:
    """Streamed blake2b-16 hex digest of a file's raw bytes."""
    digest = hashlib.blake2b(digest_size=_SIGNATURE_BYTES)
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_HASH_BLOCK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _count_records(path: str, fmt: str) -> int:
    """Strict-policy record count (raises on the first malformed one)."""
    from repro.ingest.binary import iter_binary_wire
    from repro.ingest.k6 import iter_k6_wire
    report = make_report(path, fmt, STRICT)
    wire_iter = iter_binary_wire if fmt == "binary" else iter_k6_wire
    count = 0
    for _ in wire_iter(path, report):
        count += 1
    return count


class TraceRegistry:
    """One JSON registry document, loaded eagerly, saved atomically."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.traces: dict[str, dict] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except ValueError as error:
                    raise ConfigurationError(
                        f"registry {path!r} is not valid JSON: {error}"
                    ) from None
            if doc.get("version") != REGISTRY_VERSION:
                raise ConfigurationError(
                    f"registry {path!r} has version {doc.get('version')!r}; "
                    f"this build reads version {REGISTRY_VERSION}"
                )
            self.traces = doc.get("traces", {})

    def save(self) -> None:
        """Atomically persist the registry document."""
        doc = {"version": REGISTRY_VERSION, "traces": self.traces}
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def _resolve_path(self, entry: dict) -> str:
        path = entry["path"]
        if os.path.isabs(path):
            return path
        return os.path.join(os.path.dirname(os.path.abspath(self.path)),
                            path)

    def register(self, name: str, trace_path: str, *,
                 fmt: str | None = None) -> dict:
        """Bind ``name`` to ``trace_path``'s current content.

        The file is fully streamed twice — once to hash, once through
        the strict reader to count records — so a malformed trace is
        rejected here, not at first use.  Returns the registry entry.
        """
        if fmt is None:
            fmt = detect_format(trace_path)
        validate_format(fmt)
        entry = {
            "path": trace_path,
            "format": fmt,
            "signature": file_signature(trace_path),
            "bytes": os.path.getsize(trace_path),
            "records": _count_records(trace_path, fmt),
        }
        self.traces[name] = entry
        self.save()
        return entry

    def resolve(self, name: str) -> dict:
        """The registry entry for ``name`` (no content verification)."""
        entry = self.traces.get(name)
        if entry is None:
            known = ", ".join(sorted(self.traces)) or "<none>"
            raise ConfigurationError(
                f"trace {name!r} is not registered in {self.path} "
                f"(registered: {known})"
            )
        return entry

    def verify(self, name: str) -> dict:
        """Re-hash ``name``'s file against its registered signature.

        Raises :class:`TraceChecksumError` on any mismatch — the
        refusal that keeps a tampered file from replaying stale cached
        results under a clean name.
        """
        entry = self.resolve(name)
        path = self._resolve_path(entry)
        if not os.path.exists(path):
            raise TraceChecksumError(
                f"registered trace {name!r}: file {path} is missing"
            )
        actual = file_signature(path)
        if actual != entry["signature"]:
            raise TraceChecksumError(
                f"registered trace {name!r}: content signature "
                f"{actual} does not match registered "
                f"{entry['signature']} — the file changed since "
                f"registration; re-run `repro ingest register` if the "
                f"change is intentional"
            )
        return entry

    def verify_all(self) -> dict[str, str]:
        """Verify every entry; returns ``{name: "ok" | <error>}``."""
        results = {}
        for name in sorted(self.traces):
            try:
                self.verify(name)
                results[name] = "ok"
            except TraceChecksumError as error:
                results[name] = str(error)
        return results

    def load_trace(self, name: str, *,
                   max_records: int | None = None,
                   ) -> tuple[Trace, IngestReport]:
        """Verify and ingest a registered trace (strict policy).

        The returned trace carries the verified *file* signature as
        its memoized ``trace_signature``, prefixed to keep registry
        keys and record-hash keys in disjoint namespaces — job cache
        keys built from it are content-addressed by the trace file.
        """
        from repro.ingest.binary import ingest_binary
        from repro.ingest.k6 import ingest_k6
        entry = self.verify(name)
        path = self._resolve_path(entry)
        ingest = ingest_binary if entry["format"] == "binary" else ingest_k6
        trace, report = ingest(path, name=name, policy=STRICT,
                               max_records=max_records)
        trace.__dict__["_signature"] = f"reg:{entry['signature']}"
        return trace, report


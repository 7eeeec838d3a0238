"""Deterministic, picklable job specifications and their executor.

A :class:`JobSpec` carries everything a worker process needs to
reproduce one simulation cell bit-for-bit: the canonical trace records
(the trace's own tuple, shared rather than copied), the registered
configuration name and the (frozen) system parameters.
Because execution is a pure function of the spec, two properties fall
out for free:

* ``--jobs N`` results are byte-identical to sequential results, and
* a cell can be keyed by content — :meth:`JobSpec.cache_key` hashes the
  trace signature, parameter fingerprint, configuration name and a
  code-version salt, so a persistent cache entry is invalidated exactly
  when any input (including the simulator source itself) changes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from repro.config_io import system_to_dict
from repro.errors import ConfigurationError, ReproError
from repro.params import SystemParams
from repro.sim.batched import validate_engine
from repro.sim.trace import _RECORD, Trace

# Kinds of work a job can describe.
KIND_LEVELS = "levels"  # single-core (trace x registered config) cell
KIND_ALONE_IPC = "alone-ipc"  # one core alone on the shared multicore system
KIND_MIX = "mix"  # an N-core mix of traces under one registered config

_salt_cache: str | None = None


def code_salt() -> str:
    """Version salt: a digest of the simulator's own source files.

    Any edit to the packages that influence simulation results
    (parameters, core model, memory system, prefetchers) changes the
    salt and therefore every cache key, so a stale on-disk result can
    never be replayed against changed simulator semantics.
    """
    global _salt_cache
    if _salt_cache is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.blake2b(digest_size=8)
        members = ["params.py", "sim", "memsys", "core", "prefetchers"]
        for member in members:
            path = os.path.join(package_root, member)
            if os.path.isfile(path):
                files = [path]
            else:
                files = sorted(
                    os.path.join(directory, name)
                    for directory, _, names in os.walk(path)
                    for name in names
                    if name.endswith(".py")
                )
            for source in files:
                digest.update(os.path.relpath(source, package_root).encode())
                with open(source, "rb") as fh:
                    digest.update(fh.read())
        _salt_cache = digest.hexdigest()
    return _salt_cache


def trace_signature(trace: Trace) -> str:
    """Content hash of a trace (name + every canonical record).

    Memoized on the trace instance: suites are built once per session
    and reused across many cells, so each trace is hashed once.
    """
    cached = trace.__dict__.get("_signature")
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    digest.update(trace.name.encode())
    pack = _RECORD.pack
    for kind, ip, addr, dep in trace:
        digest.update(pack(kind, ip, addr, dep))
    signature = digest.hexdigest()
    trace.__dict__["_signature"] = signature
    return signature


def params_fingerprint(params: SystemParams | None) -> str:
    """Stable serialization of system parameters (``"default"`` for None)."""
    if params is None:
        return "default"
    return json.dumps(system_to_dict(params), sort_keys=True)


@dataclass(frozen=True)
class JobSpec:
    """One simulation cell, self-contained and safe to pickle.

    ``records`` is the trace's own immutable record tuple
    (:attr:`repro.sim.trace.Trace.records`; one tuple per core for a
    mix), referenced rather than copied, so every spec over one trace
    shares it.  The worker wraps it back into a trace without a copy
    or re-normalization and without dragging any live simulator
    objects across the process boundary.  A process pool ships each
    distinct tuple to a worker once and submits the spec without it
    (see :class:`repro.runner.SimulationRunner`).
    """

    kind: str
    trace_name: str
    config_name: str
    trace_sig: str
    records: tuple
    params: SystemParams | None = None
    warmup: int | None = None
    max_instructions: int | None = None
    roi: int | None = None
    seed: int = 1
    engine: str = "scalar"

    def cache_key(self) -> str:
        """Content-addressed key for this cell's result.

        The engine selector salts the key even though both engines must
        produce identical results: a cached cell then always records
        which code path produced it, and an engine-equivalence bug can
        never be masked by one engine replaying the other's cache entry.
        """
        payload = json.dumps(
            {
                "kind": self.kind,
                "trace": self.trace_sig,
                "config": self.config_name,
                "params": params_fingerprint(self.params),
                "warmup": self.warmup,
                "max_instructions": self.max_instructions,
                "roi": self.roi,
                "seed": self.seed,
                "engine": self.engine,
                "salt": code_salt(),
            },
            sort_keys=True,
        )
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    def build_trace(self) -> Trace:
        """Wrap the spec's canonical records as a trace (no copy)."""
        return Trace._from_records(self.records, self.trace_name)


def levels_job(
    trace: Trace,
    config_name: str,
    params: SystemParams | None = None,
    warmup: int | None = None,
    max_instructions: int | None = None,
    engine: str = "scalar",
) -> JobSpec:
    """Spec for one single-core (trace x registered configuration) cell."""
    return JobSpec(
        kind=KIND_LEVELS,
        trace_name=trace.name,
        config_name=config_name,
        trace_sig=trace_signature(trace),
        records=trace.records,
        params=params,
        warmup=warmup,
        max_instructions=max_instructions,
        engine=validate_engine(engine),
    )


def mix_job(
    traces: list[Trace],
    config_name: str,
    params: SystemParams | None = None,
    warmup: int = 5_000,
    roi: int = 20_000,
    seed: int = 1,
) -> JobSpec:
    """Spec for one N-core mix under one registered configuration.

    The mix is self-contained: ``records`` holds each core's record
    tuple and ``trace_sig`` hashes the per-core signatures in core
    order, so two mixes differing only in core placement occupy
    different cache slots.  The worker replays the whole paper
    methodology — shared LLC/DRAM contention plus the per-core
    alone-IPC runs the weighted speedup needs — and returns a picklable
    :class:`repro.sim.multicore.MixResult`.

    The core names travel joined by ``+``, so a trace whose name
    contains ``+`` raises :class:`ConfigurationError`: the worker could
    not split the names back apart.
    """
    digest = hashlib.blake2b(digest_size=16)
    for trace in traces:
        if "+" in trace.name:
            raise ConfigurationError(
                f"mix core trace name {trace.name!r} contains '+', which "
                f"separates the core names of a mix")
        digest.update(trace_signature(trace).encode())
    return JobSpec(
        kind=KIND_MIX,
        trace_name="+".join(trace.name for trace in traces),
        config_name=config_name,
        trace_sig=digest.hexdigest(),
        records=tuple(trace.records for trace in traces),
        params=params,
        warmup=warmup,
        roi=roi,
        seed=seed,
    )


def alone_ipc_job(
    trace: Trace,
    params: SystemParams,
    warmup: int,
    roi: int,
    seed: int,
) -> JobSpec:
    """Spec for one core running alone on the shared multicore system.

    ``params`` must already be the multicore-scaled system (shared LLC
    and channel count), exactly what :func:`repro.sim.multicore.
    simulate_mix` would use for the mix itself.
    """
    return JobSpec(
        kind=KIND_ALONE_IPC,
        trace_name=trace.name,
        config_name="none",
        trace_sig=trace_signature(trace),
        records=trace.records,
        params=params,
        warmup=warmup,
        roi=roi,
        seed=seed,
    )


def default_execute(spec: JobSpec, attempt: int = 1):
    """Default execution function for :class:`SimulationRunner`.

    The runner dispatches through a pluggable ``fn(spec, attempt)`` so
    the chaos harness (and tests) can interpose fault injection; the
    default simply ignores the attempt number and runs the job.
    """
    return execute_job(spec)


def execute_job(spec: JobSpec):
    """Run one job to completion (in this process or a pool worker).

    Module-level so it is importable under every multiprocessing start
    method (fork and spawn alike).
    """
    if spec.kind == KIND_MIX:
        from repro.prefetchers import make_prefetcher
        from repro.sim.multicore import simulate_mix

        levels = make_prefetcher(spec.config_name)
        traces = [
            Trace._from_records(records, name)
            for records, name in zip(
                spec.records, spec.trace_name.split("+")
            )
        ]
        return simulate_mix(
            traces,
            l1_factory=levels.get("l1"),
            l2_factory=levels.get("l2"),
            llc_factory=levels.get("llc"),
            params=spec.params,
            warmup=spec.warmup,
            roi=spec.roi,
            seed=spec.seed,
        )
    trace = spec.build_trace()
    if spec.kind == KIND_LEVELS:
        from repro.prefetchers import make_prefetcher
        from repro.sim.engine import simulate

        levels = make_prefetcher(spec.config_name)
        prefetchers = {
            level: levels[level]() if level in levels else None
            for level in ("l1", "l2", "llc")
        }
        return simulate(
            trace,
            l1_prefetcher=prefetchers["l1"],
            l2_prefetcher=prefetchers["l2"],
            llc_prefetcher=prefetchers["llc"],
            params=spec.params,
            warmup=spec.warmup,
            max_instructions=spec.max_instructions,
            engine=spec.engine,
        )
    if spec.kind == KIND_ALONE_IPC:
        from repro.sim.multicore import _simulate_together

        ipcs, _ = _simulate_together(
            [trace], spec.params, None, None, None,
            spec.warmup, spec.roi, spec.seed,
        )
        return ipcs[0]
    raise ReproError(f"unknown job kind {spec.kind!r}")

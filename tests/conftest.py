"""Shared fixtures and hypothesis settings profiles for the test suite."""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest
from hypothesis import settings

# Property-based tests run against two registered profiles:
#   * ``dev`` (default) — few examples, keeps the local tier-1 loop fast;
#   * ``ci`` — many more examples and no deadline, for the CI workflow
#     (deadlines are flaky on shared runners; example count is the
#     budget that matters there).
# Select with HYPOTHESIS_PROFILE=ci (as .github/workflows/ci.yml does).
settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.memsys.cache import Cache
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import DramPort, build_hierarchy
from repro.params import CacheParams, SystemParams
import repro.runner.pool as runner_pool
from repro.runner import ResultCache, SimulationRunner
from repro.sim.trace import LOAD, OTHER, Trace
from repro.verify.golden import (
    DEFAULT_BASELINE_PATH,
    SECTIONS,
    collect_golden_stats,
    compare_to_baseline,
    load_baseline,
)


@pytest.fixture
def tiny_cache_params() -> CacheParams:
    """A small 4-set, 2-way cache for direct inspection."""
    return CacheParams("T", 4 * 2 * 64, 2, 1, 4, 4)


@pytest.fixture
def dram() -> Dram:
    return Dram()


@pytest.fixture
def tiny_cache(tiny_cache_params, dram) -> Cache:
    return Cache(tiny_cache_params, DramPort(dram))


@pytest.fixture
def hierarchy():
    return build_hierarchy(SystemParams())


def make_stream_trace(
    n_loads: int = 5_000,
    alu_per_load: int = 4,
    stride_bytes: int = 8,
    base: int = 0x1000_0000,
    ip: int = 0x400_101,
    name: str = "stream",
) -> Trace:
    """A simple single-IP streaming trace used across tests."""
    records = []
    addr = base
    for _ in range(n_loads):
        records.append((LOAD, ip, addr, 0))
        for j in range(alu_per_load):
            records.append((OTHER, ip + 8 + j, 0, 1 if j == 0 else 0))
        addr += stride_bytes
    return Trace(records, name=name)


@pytest.fixture
def stream_trace() -> Trace:
    return make_stream_trace()


@pytest.fixture(scope="session")
def pin_cache_dir(tmp_path_factory) -> str:
    """One result cache for every test that computes the result pins.

    The pin jobs are deterministic, so whichever test runs first
    simulates them and the others replay them.
    """
    return str(tmp_path_factory.mktemp("pin-cache"))


@pytest.fixture(scope="session")
def pin_drift(pin_cache_dir):
    """Drift lines of the committed pin file against the current code.

    One fan-out recomputes every section of tests/data/golden_stats.json
    once per session; ``pin_drift("traces")`` returns the lines of the
    named sections, empty when they match.  Each section is asserted by
    the tests of the code it pins.
    """
    baseline = load_baseline(DEFAULT_BASELINE_PATH)
    current = collect_golden_stats(
        workloads=tuple(baseline["workloads"]),
        prefetchers=baseline["prefetchers"], scale=baseline["scale"],
        runner=SimulationRunner(cache=ResultCache(pin_cache_dir)),
    )
    drifts = compare_to_baseline(current, baseline)

    def lines(*sections: str) -> list[str]:
        assert set(sections) <= set(SECTIONS), sections
        return [d.describe() for d in drifts if d.section in sections]

    return lines


@pytest.fixture
def recording_pool(monkeypatch):
    """Patch the runner's process pool with one that records its traffic.

    Returns a namespace: ``initargs`` holds each pool's initializer
    arguments (one entry per pool, respawns included); ``calls`` one
    ``(pickled size, args)`` pair per submitted call; ``in_flight`` the
    count of unfinished calls right after each submission.
    """
    record = SimpleNamespace(initargs=[], calls=[], in_flight=[])
    futures = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            record.initargs.append(kwargs.get("initargs"))

        def submit(self, fn, /, *args, **kwargs):
            size = len(pickle.dumps((fn, args, kwargs)))
            future = super().submit(fn, *args, **kwargs)
            record.calls.append((size, args))
            futures.append(future)
            record.in_flight.append(sum(not f.done() for f in futures))
            return future

    monkeypatch.setattr(runner_pool, "ProcessPoolExecutor", RecordingPool)
    return record

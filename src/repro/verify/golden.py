"""Result pins: one committed file holds every pinned result.

``tests/data/golden_stats.json`` maps entries to pins in four sections:
``cells`` (a workload x registered-prefetcher grid: key metrics plus a
``digest`` of the whole :class:`~repro.sim.engine.SimResult`),
``non_lru`` (digests of runs that evict through every non-LRU
replacement policy's hooks), ``mixes`` (a 2-core IPCP mix's digest) and
``traces`` (every workload generator's ``trace_signature``).  The
simulator is fully deterministic, so with unchanged code the comparison
is *exact*; any drift is a semantic change that either is a bug or
deserves an explicit ``repro verify --update-baseline`` commit, which
rewrites every section at once.

Every simulated pin is a job of one :class:`repro.runner.SimulationRunner`
fan-out, so a verify pass runs in parallel and replays from the
persistent result cache, whose key includes a digest of the simulator
sources: a mutated ``repro.core`` can never replay a stale result.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import asdict, dataclass

from repro.errors import ReproError
from repro.params import CacheParams, SystemParams
from repro.prefetchers import available_prefetchers
from repro.runner import SimulationRunner, levels_job, mix_job
from repro.runner.job import trace_signature
from repro.sim.engine import SimResult
from repro.workloads import WORKLOAD_FAMILIES, spec

BASELINE_SCHEMA = 2
# Resolved against the checkout, not the working directory.
DEFAULT_BASELINE_PATH = str(
    pathlib.Path(__file__).resolve().parents[3]
    / "tests" / "data" / "golden_stats.json"
)
SECTIONS = ("cells", "non_lru", "mixes", "traces")

# The cell grid: one workload per dominant pattern class (stream /
# mixed strides / irregular pointer chasing / complex strides) so every
# classifier contributes, times every registered configuration.
GOLDEN_WORKLOADS = ("bwaves_like", "gcc_like", "mcf_i_like", "wrf_like")
GOLDEN_SCALE = 0.15

# The fixed sections.  The cache updates LRU state inline and drives
# every other policy through its hooks; the cells, the cross-engine
# gate and the benchmark all run LRU, so ``non_lru`` pins the hook path.
NON_LRU_POLICIES = ("srrip", "drrip", "ship", "random")
NON_LRU_TRACES = ("lbm_like", "mcf_i_like", "omnetpp_like")
MIX_TRACES = ("lbm_like", "gcc_like")
PIN_SCALE = 0.1
MIX_WINDOW = dict(warmup=1_000, roi=3_000)
TRACE_SCALE = 0.05
TRACE_SEEDS = (7, 8)


def non_lru_system(policy: str) -> SystemParams:
    """Small levels under ``policy``, so every level evicts in a short trace."""
    return SystemParams(
        l1d=CacheParams("L1D", 2 * 1024, 4, 5, 8, 16, policy),
        l2=CacheParams("L2", 4 * 1024, 8, 10, 16, 32, policy),
        llc=CacheParams("LLC", 8 * 1024, 16, 20, 32, 64, policy),
    )


def result_digest(result) -> str:
    """blake2b-16 over the sorted-key JSON of every field of a result.

    Serves :class:`SimResult` and :class:`~repro.sim.multicore.MixResult`
    alike.
    """
    payload = json.dumps(asdict(result), sort_keys=True).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def cell_metrics(result: SimResult) -> dict:
    """Flatten one :class:`SimResult` into the golden metric dict."""
    metrics: dict[str, float | int] = {
        "ipc": result.ipc,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "dram_reads": result.dram_reads,
        "dram_writes": result.dram_writes,
        "l1_demand_misses": result.l1.demand_misses,
        "l1_pf_issued": result.l1.pf_issued,
        "l1_pf_useful": result.l1.pf_useful,
        "l1_coverage": result.l1.coverage,
        "l1_accuracy": result.l1.accuracy,
        "l2_pf_issued": result.l2.pf_issued,
        "llc_demand_misses": result.llc.demand_misses,
    }
    for level in ("l1_prefetcher", "l2_prefetcher"):
        summary = getattr(result, level)
        if summary is None:
            continue
        prefix = "ctr_l1." if level == "l1_prefetcher" else "ctr_l2."
        for counter, value in summary.counters:
            metrics[prefix + counter] = value
    return metrics


def trace_pins() -> dict[str, str]:
    """The ``traces`` section: every generator's signature, by seed."""
    pins = {}
    for seed in TRACE_SEEDS:
        for family, registry, build in WORKLOAD_FAMILIES:
            for name in registry:
                trace = build(name, TRACE_SCALE, seed)
                pins[f"{family}/{name}@{seed}"] = trace_signature(trace)
        dense = spec.compute_dense_trace(loads=500, seed=seed)
        pins[f"dense/{dense.name}@{seed}"] = trace_signature(dense)
    return pins


def _pin_jobs(workloads, prefetchers, scale) -> list:
    """Every simulated pin as (section, key prefix, job spec)."""
    jobs = [
        ("cells", "", levels_job(trace, config))
        for trace in [spec.spec_trace(name, scale) for name in workloads]
        for config in prefetchers
    ]
    traces = [spec.spec_trace(name, PIN_SCALE) for name in NON_LRU_TRACES]
    for policy in NON_LRU_POLICIES:
        params = non_lru_system(policy)
        jobs += [
            ("non_lru", f"{policy}/", levels_job(trace, config, params))
            for trace in traces for config in ("none", "ipcp")
        ]
        # A mix keeps the private levels' policy; its shared LLC is
        # rebuilt at the Table II size (LRU).
        jobs.append(("non_lru", f"{policy}/",
                     mix_job(traces[:2], "ipcp", params, **MIX_WINDOW)))
    mix = [spec.spec_trace(name, PIN_SCALE) for name in MIX_TRACES]
    jobs.append(("mixes", "", mix_job(mix, "ipcp", **MIX_WINDOW)))
    return jobs


def collect_golden_stats(
    workloads: tuple[str, ...] = GOLDEN_WORKLOADS,
    prefetchers: list[str] | None = None,
    scale: float = GOLDEN_SCALE,
    runner: SimulationRunner | None = None,
) -> dict:
    """Compute every pin and return a baseline document.

    ``workloads``, ``prefetchers`` and ``scale`` choose the cell grid;
    the other sections are fixed.
    """
    if prefetchers is None:
        prefetchers = available_prefetchers()
    runner = runner or SimulationRunner()
    jobs = _pin_jobs(workloads, prefetchers, scale)
    results = runner.run([spec for _, _, spec in jobs])
    document = {
        "schema": BASELINE_SCHEMA,
        "scale": scale,
        "workloads": list(workloads),
        "prefetchers": list(prefetchers),
        "cells": {},
        "non_lru": {},
        "mixes": {},
        "traces": trace_pins(),
    }
    for (section, prefix, spec), result in zip(jobs, results):
        key = f"{prefix}{spec.trace_name}/{spec.config_name}"
        digest = result_digest(result)
        document[section][key] = (
            dict(cell_metrics(result), digest=digest)
            if section == "cells" else digest
        )
    return document


def describe_sections(document: dict) -> str:
    """Entry counts per section, e.g. ``240 cells, 28 non_lru, ...``."""
    return ", ".join(f"{len(document[s])} {s}" for s in SECTIONS)


def save_baseline(document: dict, path: str) -> None:
    """Write a baseline document as stable, diff-friendly JSON."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> dict:
    """Load a golden-stats baseline document, failing with a hint."""
    hint = "`python -m repro verify --update-baseline`"
    try:
        with open(path) as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise ReproError(
            f"golden baseline {path!r} not found; create it with {hint}"
        ) from None
    except json.JSONDecodeError as error:
        raise ReproError(f"golden baseline {path!r} is corrupt: {error}") from None
    if document.get("schema") != BASELINE_SCHEMA:
        raise ReproError(
            f"golden baseline {path!r} has schema "
            f"{document.get('schema')!r}, expected {BASELINE_SCHEMA}; "
            f"re-baseline with {hint}"
        )
    return document


@dataclass(frozen=True)
class Drift:
    """One pin that moved, or an entry present on one side only.

    ``metric`` names the moved value inside a golden cell (a metric or
    ``digest``); it is ``None`` for a whole entry.
    """

    section: str
    entry: str
    metric: str | None
    baseline: object
    current: object

    def describe(self) -> str:
        """Render the drift as one line naming its entry."""
        where = (f"{self.entry}: {self.metric or '(cell)'}"
                 if self.section == "cells" else f"{self.section}: {self.entry}")
        if self.baseline is None or self.current is None:
            side = "baseline" if self.baseline is None else "current run"
            return f"{where} missing from {side}"
        line = f"{where} {self.baseline!r} -> {self.current!r}"
        if self.metric not in (None, "digest"):
            denom = max(abs(self.baseline), abs(self.current), 1e-12)
            line += f" (drift {abs(self.current - self.baseline) / denom:.3%})"
        return line


def compare_to_baseline(current: dict, baseline: dict) -> list[Drift]:
    """Diff two baseline documents exactly; empty list means no drift.

    An entry present in one document but not the other is always drift
    — a newly registered prefetcher must be added to the baseline
    explicitly.  A golden cell reports each moved metric, and its
    ``digest`` only when nothing it lists moved.
    """
    drifts: list[Drift] = []
    for section in SECTIONS:
        base_entries = baseline.get(section, {})
        cur_entries = current.get(section, {})
        for entry in sorted(base_entries.keys() | cur_entries.keys()):
            base, cur = base_entries.get(entry), cur_entries.get(entry)
            if base == cur:
                continue
            if section != "cells" or base is None or cur is None:
                drifts.append(Drift(section, entry, None, base, cur))
                continue
            moved = [metric for metric in sorted(base.keys() | cur.keys())
                     if metric != "digest"
                     and base.get(metric) != cur.get(metric)]
            drifts += [Drift(section, entry, metric, base.get(metric),
                             cur.get(metric))
                       for metric in moved or ["digest"]]
    return drifts

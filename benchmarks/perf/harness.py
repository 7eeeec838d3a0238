"""Workloads, passes, output checks and metrics of the performance benchmark.

``run.py`` parses arguments and makes the checkout's ``repro`` importable;
everything else lives here so that tests can run a workload built from
tiny traces through the same code.

A *cell* is one simulation of one trace (or one four-core mix) under one
prefetcher configuration.  A *pass* runs every cell of a workload once.
Each workload is set up several times (trace generation, input
signature, untimed warm-up), then runs timed passes until ``--seconds``
have been measured; ``--trace`` adds one pass with timing wrappers
installed on the simulator's classes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
from repro.memsys.dram import Dram
from repro.memsys.hierarchy import Hierarchy
from repro.memsys.tlb import TlbHierarchy
from repro.params import SystemParams
from repro.prefetchers import make_prefetcher
from repro.runner import (
    JobFailure,
    ResultCache,
    SimulationRunner,
    default_execute,
    levels_job,
    trace_signature,
)
from repro.sim import batched as batched_module
from repro.sim.batched import support_reason
from repro.sim.cpu import Cpu
from repro.sim.engine import simulate
from repro.sim.multicore import simulate_mix
from repro.sim.trace import Trace
from repro.workloads import full_suite, graded_mix, memory_intensive_suite

from tracer import Tracer, active_tracer, installed, layer_of

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
LEVELS = ("l1", "l2", "llc")
PARAMS = SystemParams()

#: Every configuration with a ``sim.engine.<config>_s`` metric.
ENGINE_CONFIGS = ("none", "ipcp", "spp_l1", "bingo", "mlop")

#: name -> (unit, how it is measured).  Untraced passes only.
END_TO_END = {
    "setup_s": ("s", "imports + median of the set-ups (trace generation, "
                     "input signature, warm-up)"),
    "wall_s": ("s", "median host time of one timed pass"),
    "kips": ("kinstr/s", "simulated instructions per pass / wall_s"),
    "peak_rss_mb": ("MB", "max resident set of this process and its workers"),
}

#: name -> (unit, the end-to-end metric it should move, on which workload).
PER_LAYER = {
    "workloads.gen_s": ("s", "setup_s, every workload"),
    "runner.spec_build_s": ("s", "wall_s/kips on runner_cold"),
    "runner.spec_bytes": ("bytes", "wall_s/kips on runner_cold"),
    "runner.cache_put_s": ("s", "wall_s/kips on runner_cold"),
    "runner.cache_get_s": ("s", "wall_s/kips on runner_cold (warm pass)"),
    "runner.executed": ("count", "wall_s/kips on runner_cold"),
    "runner.cache_hits": ("count", "wall_s/kips on runner_cold (warm pass)"),
    "runner.worker_busy_s": ("s", "wall_s/kips on runner_cold"),
    "runner.pool_eff": ("ratio", "wall_s/kips on runner_cold"),
    "sim.cpu.self_s": ("s", "kips on scalar_grid, wall_s on mix_contention"),
    "sim.cpu.instructions": ("count", "kips on scalar_grid, "
                                      "wall_s on mix_contention"),
    "memsys.self_s": ("s", "kips on scalar_grid"),
    "memsys.accesses": ("count", "kips on scalar_grid"),
    "memsys.ns_per_access": ("ns", "kips on scalar_grid"),
    "memsys.tlb_s": ("s", "wall_s on mix_contention"),
    "memsys.dram_s": ("s", "wall_s on mix_contention"),
    "memsys.dram_accesses": ("count", "wall_s on mix_contention"),
    "core.ipcp_l1.self_s": ("s", "kips on scalar_grid, wall_s on "
                                 "mix_contention; none on batched_ipcp"),
    "core.ipcp_l1.calls": ("count", "kips on scalar_grid, wall_s on "
                                    "mix_contention; none on batched_ipcp"),
    "core.ipcp_l2.self_s": ("s", "kips on scalar_grid, wall_s on "
                                 "mix_contention; none on batched_ipcp"),
    "core.ipcp_l1.accuracy": ("ratio", "kips on scalar_grid, wall_s on "
                                       "mix_contention"),
    "prefetchers.spp_l1.self_s": ("s", "kips on scalar_grid"),
    "prefetchers.bingo.self_s": ("s", "kips on scalar_grid"),
    "prefetchers.mlop.self_s": ("s", "kips on scalar_grid"),
    **{f"sim.engine.{config}_s": ("s", "kips on scalar_grid")
       for config in ENGINE_CONFIGS},
    "sim.batched.s": ("s", "kips on batched_ipcp"),
    "sim.trace.columns_s": ("s", "kips on batched_ipcp"),
    "sim.batched.fused_frac": ("ratio", "kips on batched_ipcp"),
    "sim.multicore.together_s": ("s", "wall_s on mix_contention"),
    "sim.multicore.alone_s": ("s", "wall_s on mix_contention"),
    "trace.overhead_frac": ("ratio", "none (traced pass / untraced "
                                     "median wall - 1)"),
}

#: Prefetcher class -> layer its hooks are attributed to.
PREFETCHER_LAYERS = {
    "IpcpL1": "core.ipcp_l1",
    "IpcpL2": "core.ipcp_l2",
    "SppPrefetcher": "prefetchers.spp_l1",
    "BingoPrefetcher": "prefetchers.bingo",
    "MlopPrefetcher": "prefetchers.mlop",
    "NextLinePrefetcher": "prefetchers.next_line",
}
PREFETCHER_HOOKS = ("on_access", "on_fill", "on_prefetch_fill",
                    "on_prefetch_hit")


#: (owner, attribute, layer, count, coalesce) wrapped on every traced pass.
#: ``Cpu.step`` runs back to back, once per instruction, in the multicore
#: scheduler; coalescing those runs halves the spans of a mix pass.
CORE_TARGETS = (
    (Cpu, "run", "sim.cpu", lambda result: result.instructions, False),
    (Cpu, "step", "sim.cpu", lambda result: 1, True),
    (Hierarchy, "load", "memsys", None, False),
    (Hierarchy, "store", "memsys", None, False),
    (TlbHierarchy, "access", "memsys.tlb", None, False),
    (Dram, "read", "memsys.dram", None, False),
    (Dram, "write", "memsys.dram", None, False),
    (Trace, "columns", "sim.trace.columns", None, False),
    (batched_module, "simulate_batched", "sim.batched", None, False),
    (ResultCache, "get", "runner.cache.get", None, False),
    (ResultCache, "put", "runner.cache.put", None, False),
)


@dataclass
class CellRun:
    """One executed cell: its host time and its simulated statistics."""

    cell: str
    seconds: float
    stats: dict | None
    error: str | None = None
    path: str = "scalar (requested)"


@dataclass
class PassContext:
    """What one pass may record into: spans (traced pass only) and notes."""

    tmp: str
    tracer: Tracer | None = None
    notes: dict = field(default_factory=dict)

    def span(self, name: str, cell: str | None = None):
        """A span around a call into a layer; a no-op when untraced."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, cell)


def sim_stats(result) -> dict:
    """The statistics of a single-core SimResult the output check compares."""
    stats = {"instructions": result.instructions, "cycles": result.cycles,
             "dram_reads": result.dram_reads,
             "dram_writes": result.dram_writes}
    for level in ("l1", "l2", "llc"):
        counters = getattr(result, level)
        for name in ("demand_misses", "pf_issued", "pf_useful"):
            stats[f"{level}.{name}"] = getattr(counters, name)
    return stats


def mix_stats(result) -> dict:
    """The statistics of a MixResult the output check compares."""
    return {"ipc_together": list(result.ipc_together),
            "ipc_alone": list(result.ipc_alone),
            "dram_reads": result.dram_reads,
            "dram_writes": result.dram_writes}


def input_signature(traces: list[Trace]) -> str:
    """One digest over the content signature of every input trace."""
    digest = hashlib.blake2b(digest_size=16)
    for trace in traces:
        digest.update(trace_signature(trace).encode())
    return digest.hexdigest()


def engine_path(engine: str, trace: Trace, prefetchers: list) -> str:
    """How a cell will execute, decided before it runs.

    Uses the public ``support_reason`` rather than the batched engine's
    module-global "last run" record, which a scalar run never updates.
    """
    if engine != "batched":
        return "scalar (requested)"
    reason = support_reason(trace, *prefetchers, PARAMS, None, None)
    return "fused" if reason is None else f"scalar fallback: {reason}"


def _build(config: str) -> list:
    levels = make_prefetcher(config)
    return [levels[level]() if level in levels else None for level in LEVELS]


def _failure(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def alone_execute(spec, attempt: int = 1):
    """In-process ``execute=`` hook timing a mix's alone-IPC runs."""
    tracer = active_tracer()
    if tracer is None:
        return default_execute(spec, attempt)
    with tracer.span("sim.multicore.alone"):
        return default_execute(spec, attempt)


class WorkerSpans:
    """Pool-worker ``execute=`` hook: one ``runner.worker`` span per job.

    The worker writes its spans (a single span when untraced; every
    wrapped call under it when traced) to a file in ``span_dir``, which
    the parent merges after the pass.  Only for runners with jobs >= 2.
    """

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir

    def __call__(self, spec, attempt: int = 1):
        tracer = active_tracer()
        if tracer is None:
            tracer = Tracer()
        else:
            tracer.claim()
        with tracer.span("runner.worker",
                         f"{spec.trace_name}/{spec.config_name}"):
            payload = default_execute(spec, attempt)
        tracer.dump(os.path.join(
            self.span_dir, f"{os.getpid()}-{perf_counter_ns()}.pkl"))
        return payload


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """A fixed set of cells generated from a seed.

    Subclasses provide ``warm_up`` and ``run_pass``.  The defaults of the
    other methods serve a trace suite (``suite(seed)``) x ``configs``.
    """

    name = ""
    suite = None
    configs: tuple = ()
    #: Stem of the expected-stats file the cells are checked against.
    expected = ""

    def generate(self, seed: int):
        """The workload's inputs."""
        return self.suite(seed)

    def traces(self, inputs) -> list[Trace]:
        """Every input trace, for the input signature."""
        return inputs

    def instructions(self, inputs) -> int:
        """Simulated instructions per pass."""
        return sum(len(trace) for trace in inputs) * len(self.configs)

    def collect(self, raw, ctx: PassContext) -> list[CellRun]:
        """Turn what ``run_pass`` returned into cells (outside the timing)."""
        return raw

    def final_pass(self, inputs, last: PassContext,
                   ctx: PassContext) -> list[CellRun]:
        """An untimed pass after the timed ones (none by default)."""
        return []

    def prefetcher_classes(self) -> set[type]:
        """Concrete prefetcher classes this workload's configs build."""
        return {type(pf) for config in self.configs
                for pf in _build(config) if pf is not None}


class SingleCore(Workload):
    """A trace suite x configurations, one ``simulate`` call per cell."""

    def __init__(self, name: str, suite, configs: tuple, engine: str,
                 warm_full_pass: bool, expected: str) -> None:
        self.name, self.suite = name, suite
        self.configs, self.engine = configs, engine
        self.warm_full_pass = warm_full_pass
        self.expected = expected

    def cell(self, trace: Trace, config: str, ctx: PassContext) -> CellRun:
        """Simulate one trace under one configuration."""
        label = f"{trace.name}/{config}"
        with ctx.span("bench.cell", label):
            prefetchers = _build(config)
            path = engine_path(self.engine, trace, prefetchers)
            start = perf_counter()
            try:
                with ctx.span(f"sim.engine.{config}"):
                    result = simulate(trace, *prefetchers, engine=self.engine)
            except Exception as error:  # a failed cell is counted, not fatal
                return CellRun(label, perf_counter() - start, None,
                               _failure(error), path)
            return CellRun(label, perf_counter() - start, sim_stats(result),
                           None, path)

    def run_pass(self, inputs: list[Trace], ctx: PassContext):
        return [self.cell(trace, config, ctx)
                for config in self.configs for trace in inputs]

    def warm_up(self, inputs: list[Trace], ctx: PassContext):
        if self.warm_full_pass:
            return self.run_pass(inputs, ctx)
        return [self.cell(inputs[0], config, ctx) for config in self.configs]


class MixContention(Workload):
    """Four-core graded mixes over one shared LLC and DRAM.

    ``cells`` lists (mix, config) pairs; ``warm_cells`` are run untimed
    in every set-up.
    """

    def __init__(self, name: str, cells: tuple, scale: float,
                 warm_cells: tuple, warmup: int, roi: int,
                 expected: str) -> None:
        self.name, self.cells, self.scale = name, cells, scale
        self.mixes = tuple(dict.fromkeys(mix for mix, _ in cells))
        self.configs = tuple(dict.fromkeys(config for _, config in cells))
        self.warm_cells = warm_cells
        self.warmup, self.roi = warmup, roi
        self.expected = expected

    def generate(self, seed: int) -> dict[str, list[Trace]]:
        return {mix: graded_mix(mix, self.scale, seed) for mix in self.mixes}

    def traces(self, inputs) -> list[Trace]:
        return [trace for mix in self.mixes for trace in inputs[mix]]

    def instructions(self, inputs) -> int:
        """Warm-up + ROI quota of every core, together and alone.

        Instructions a finished core replays to keep contending for the
        shared LLC and DRAM are not counted: they depend on the timing.
        """
        cores = sum(len(inputs[mix]) + len({t.name for t in inputs[mix]})
                    for mix, _ in self.cells)
        return cores * (self.warmup + self.roi)

    def cell(self, mix: str, config: str, inputs,
             ctx: PassContext) -> CellRun:
        """Simulate one mix under one configuration, alone runs included."""
        label = f"{mix}/{config}"
        with ctx.span("bench.cell", label):
            levels = make_prefetcher(config)
            runner = SimulationRunner(execute=alone_execute)
            start = perf_counter()
            try:
                with ctx.span("sim.multicore"):
                    result = simulate_mix(
                        inputs[mix], l1_factory=levels.get("l1"),
                        l2_factory=levels.get("l2"),
                        llc_factory=levels.get("llc"),
                        warmup=self.warmup, roi=self.roi, runner=runner)
            except Exception as error:  # a failed cell is counted, not fatal
                return CellRun(label, perf_counter() - start, None,
                               _failure(error))
            return CellRun(label, perf_counter() - start, mix_stats(result))

    def run_pass(self, inputs, ctx: PassContext):
        return [self.cell(mix, config, inputs, ctx)
                for mix, config in self.cells]

    def warm_up(self, inputs, ctx: PassContext):
        return [self.cell(mix, config, inputs, ctx)
                for mix, config in self.warm_cells]


class RunnerCold(Workload):
    """``levels_job`` specs resolved by a pooled runner on an empty cache."""

    def __init__(self, name: str, suite, configs: tuple, jobs: int,
                 expected: str) -> None:
        self.name, self.suite = name, suite
        self.configs, self.jobs = configs, jobs
        self.expected = expected

    def warm_up(self, inputs, ctx: PassContext):
        return []

    def _specs(self, inputs, ctx: PassContext) -> list:
        with ctx.span("runner.spec_build"):
            return [levels_job(trace, config)
                    for config in self.configs for trace in inputs]

    def run_pass(self, inputs, ctx: PassContext):
        cache_dir = tempfile.mkdtemp(dir=ctx.tmp, prefix="cache-")
        span_dir = tempfile.mkdtemp(dir=ctx.tmp, prefix="spans-")
        runner = SimulationRunner(jobs=self.jobs,
                                  cache=ResultCache(cache_dir),
                                  degraded=True,
                                  execute=WorkerSpans(span_dir))
        specs = self._specs(inputs, ctx)
        with ctx.span("runner.cold"):
            results = runner.run(specs)
        ctx.notes.update(cache_dir=cache_dir, executed=runner.simulations_run)
        return specs, results, span_dir

    def collect(self, raw, ctx: PassContext) -> list[CellRun]:
        specs, results, span_dir = raw
        store = ctx.tracer if ctx.tracer is not None else Tracer()
        first = len(store)
        store.merge_dir(span_dir)
        os.rmdir(span_dir)
        seconds = job_seconds(store, first)
        if ctx.tracer is not None:
            ctx.notes["spec_bytes"] = sum(len(pickle.dumps(spec))
                                          for spec in specs)
        return _runner_cells(specs, results, seconds)

    def final_pass(self, inputs, last: PassContext,
                   ctx: PassContext) -> list[CellRun]:
        """Replay the last cold pass's cache: every cell must hit."""
        runner = SimulationRunner(jobs=self.jobs,
                                  cache=ResultCache(last.notes["cache_dir"]),
                                  degraded=True)
        specs = self._specs(inputs, ctx)
        with ctx.span("runner.warm"):
            results = runner.run(specs)
        ctx.notes["cache_hits"] = runner.cache_hits
        return _runner_cells(specs, results, {})


def job_seconds(store: Tracer, first: int) -> dict[str, float]:
    """Host seconds of each ``runner.worker`` span recorded from ``first`` on."""
    names = np.frombuffer(store.name, dtype=np.uint16)[first:]
    seconds = {}
    for index in np.flatnonzero(names == store.name_id("runner.worker")):
        index += first
        cell = store.cells[store.cell[index]]
        seconds[cell] = (store.end[index] - store.start[index]) / 1e9
    return seconds


def _runner_cells(specs, results, seconds: dict) -> list[CellRun]:
    cells = []
    for spec, result in zip(specs, results):
        label = f"{spec.trace_name}/{spec.config_name}"
        if isinstance(result, JobFailure):
            cells.append(CellRun(label, seconds.get(label, 0.0), None,
                                 result.reason))
        else:
            cells.append(CellRun(label, seconds.get(label, 0.0),
                                 sim_stats(result)))
    return cells


SCALE = 0.5
MIX_SCALE = 0.25

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    SingleCore("scalar_grid", lambda seed: memory_intensive_suite(SCALE, seed),
               ENGINE_CONFIGS, engine="scalar", warm_full_pass=False,
               expected="scalar_grid"),
    SingleCore("batched_ipcp",
               lambda seed: memory_intensive_suite(SCALE, seed),
               ("none", "ipcp"), engine="batched", warm_full_pass=True,
               expected="scalar_grid"),
    # One low, one middle and one high-MPKI mix.  mix3 stands in for
    # mix4, whose ipcp cell alone takes 13 s (IPCP speeds its stream cores
    # up 17x, so they replay ~1.3M instructions while mcf_i finishes);
    # mix7/ipcp repeats mix7/none's DRAM-bound pointer chasing for 12 s.
    MixContention("mix_contention",
                  (("mix1", "none"), ("mix1", "ipcp"), ("mix3", "none"),
                   ("mix3", "ipcp"), ("mix7", "none")), MIX_SCALE,
                  warm_cells=(("mix1", "none"), ("mix1", "ipcp")),
                  warmup=5_000, roi=20_000, expected="mix_contention"),
    RunnerCold("runner_cold", lambda seed: full_suite(SCALE, seed),
               ("none", "ipcp", "spp_l1", "bingo"), jobs=2,
               expected="runner_cold"),
)}


# --------------------------------------------------------------------------
# Output check
# --------------------------------------------------------------------------

def _differing(got: dict, want: dict) -> list[str]:
    return [name for name in sorted(set(got) | set(want))
            if got.get(name) != want.get(name)]


class Checker:
    """Counts failed cells.

    A cell fails when it raised, when its statistics differ from an
    earlier execution of the same cell, or when they differ from the
    expected file.  When the inputs' signature differs from the one the
    expected file was written for, every cell fails.
    """

    def __init__(self, expected: dict | None, signature: str) -> None:
        self.expected = expected
        self.signature = signature
        self.inputs_changed = (expected is not None
                               and expected["inputs"] != signature)
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.paths: dict[str, int] = {}

    def check(self, runs: list[CellRun]) -> None:
        """Check each cell run and count it."""
        for run in runs:
            self.attempted += 1
            self.paths[run.path] = self.paths.get(run.path, 0) + 1
            problem = self._problem(run)
            if problem is not None:
                self.failures.append(f"{run.cell}: {problem}")

    def _problem(self, run: CellRun) -> str | None:
        if self.inputs_changed:
            return "inputs changed: signature differs from the expected file"
        if run.error is not None:
            return run.error
        reference = self.first.setdefault(run.cell, run.stats)
        if run.stats != reference:
            return ("differs from an earlier execution in "
                    f"{_differing(run.stats, reference)}")
        if self.expected is None:
            return None
        want = self.expected["cells"].get(run.cell)
        if want is None:
            return "no expected statistics for this cell"
        if run.stats != want:
            return f"differs from the expected file in " \
                   f"{_differing(run.stats, want)}"
        return None


def expected_path(expected_dir: Path, seed: int, workload: Workload) -> Path:
    """Where the expected statistics of ``workload`` at ``seed`` live."""
    return Path(expected_dir) / f"seed{seed}" / f"{workload.expected}.json"


def load_expected(expected_dir: Path, seed: int,
                  workload: Workload) -> dict | None:
    """The expected file, or None for a seed without one."""
    path = expected_path(expected_dir, seed, workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def write_expected(expected_dir: Path, seed: int, workload: Workload,
                   checker: Checker) -> Path:
    """Record the first-seen statistics of every cell as the expected file."""
    path = expected_path(expected_dir, seed, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {"workload": workload.name, "seed": seed,
            "inputs": checker.signature,
            "cells": checker.first}
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------------
# Running a workload
# --------------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _targets(workload: Workload) -> list:
    targets = list(CORE_TARGETS)
    for cls in sorted(workload.prefetcher_classes(), key=lambda c: c.__name__):
        layer = PREFETCHER_LAYERS[cls.__name__]
        targets += [(cls, hook, layer, None, False)
                    for hook in PREFETCHER_HOOKS]
    return targets


def _timed_pass(workload: Workload, inputs, ctx: PassContext):
    start = perf_counter()
    with ctx.span("bench.pass"):
        raw = workload.run_pass(inputs, ctx)
    wall = perf_counter() - start
    return wall, workload.collect(raw, ctx)


def _set_up(workload: Workload, seed: int, tmp: str, expected):
    """Generate, sign and warm up ``SETUPS`` times.

    Returns the inputs, the checker (holding the warm-up cells) and the
    set-up and generation times.
    """
    setups, gens, checker, inputs = [], [], None, None
    for _ in range(SETUPS):
        inputs = None  # free the previous set-up's traces first
        start = perf_counter()
        inputs = workload.generate(seed)
        generated = perf_counter()
        signature = input_signature(workload.traces(inputs))
        warm = workload.warm_up(inputs, PassContext(tmp))
        setups.append(perf_counter() - start)
        gens.append(generated - start)
        if checker is None:
            checker = Checker(expected, signature)
        elif signature != checker.signature:
            raise RuntimeError("input generation is not deterministic")
        checker.check(warm)
    return inputs, checker, setups, gens


def _traced_pass(workload: Workload, inputs, tmp: str, checker: Checker,
                 gens: list[float], untraced_median: float,
                 spans_path: Path) -> dict:
    """One pass (plus the final pass) with wrappers installed."""
    tracer = Tracer()
    with installed(tracer, _targets(workload)):
        ctx = PassContext(tmp, tracer)
        traced_wall, cells = _timed_pass(workload, inputs, ctx)
        checker.check(cells)
        final = PassContext(tmp, tracer)
        start = perf_counter()
        with final.span("bench.pass"):
            finals = workload.final_pass(inputs, ctx, final)
        final_wall = perf_counter() - start
        checker.check(finals)
    per_layer, layers, consistency = layer_metrics(
        tracer, workload, ctx, final, checker, gens, traced_wall,
        final_wall, untraced_median)
    tracer.write_jsonl(str(spans_path))
    return {"per_layer": per_layer, "layers": layers,
            "consistency": consistency, "spans": str(spans_path)}


def run_workload(workload: Workload, seed: int, seconds: float,
                 traced: bool, out_path: Path,
                 expected_dir: Path = EXPECTED_DIR,
                 update_expected: bool = False,
                 import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; returns the report.

    Everything the run writes goes under ``out_path``'s directory: the
    report itself, ``spans.jsonl`` when traced, and a temporary
    directory removed before returning.
    """
    if update_expected and workload.expected != workload.name:
        raise ValueError(f"{workload.name} is checked against "
                         f"{workload.expected}'s file; write that one")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    expected = None if update_expected else \
        load_expected(expected_dir, seed, workload)
    with tempfile.TemporaryDirectory(dir=out_path.parent,
                                     prefix=".tmp-") as tmp:
        inputs, checker, setups, gens = _set_up(workload, seed, tmp,
                                                expected)
        walls, cell_seconds = [], []
        measured = perf_counter()
        while True:
            ctx = PassContext(tmp)
            wall, cells = _timed_pass(workload, inputs, ctx)
            walls.append(wall)
            cell_seconds += [cell.seconds for cell in cells]
            checker.check(cells)
            if perf_counter() - measured >= seconds:
                break
        checker.check(workload.final_pass(inputs, ctx, PassContext(tmp)))

        q1, median, q3 = quartiles(walls)
        instructions = workload.instructions(inputs)
        report = {
            "workload": workload.name, "seed": seed, "traced": traced,
            "inputs": checker.signature,
            "expected_file": expected is not None,
            "passes": {"n": len(walls), "walls": walls, "q1": q1,
                       "median": median, "q3": q3},
            "cells_per_pass": len(cells),
            "instructions_per_pass": instructions,
            "metrics": {
                "setup_s": import_s + statistics.median(setups),
                "wall_s": median,
                "kips": instructions / median / 1000.0,
                "peak_rss_mb": peak_rss_mb(),
            },
            "cell_s": {"n": len(cell_seconds),
                       "p50": percentile(cell_seconds, 50),
                       "p90": percentile(cell_seconds, 90)},
            "setup": {"import_s": import_s, "setups": setups, "gen": gens},
        }
        if traced:
            report.update(_traced_pass(workload, inputs, tmp, checker, gens,
                                       median,
                                       out_path.parent / "spans.jsonl"))

    if update_expected:
        report["wrote_expected"] = str(write_expected(
            expected_dir, seed, workload, checker))
    report["attempted"] = checker.attempted
    report["failed"] = len(checker.failures)
    report["failures"] = checker.failures[:20]
    report["paths"] = checker.paths
    report["correct"] = (report["failed"] == 0
                         and report.get("consistency", {}).get("ok", True))
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def layer_metrics(tracer: Tracer, workload: Workload, ctx: PassContext,
                  final: PassContext, checker: Checker, gens: list[float],
                  traced_wall: float, final_wall: float,
                  untraced_median: float):
    """Per-layer metrics, the self-time table and the consistency check."""
    cols = tracer.columns()
    names = tracer.names
    name_ids = cols["name"]
    by_name = {
        "inclusive": np.bincount(name_ids, weights=cols["duration"],
                                 minlength=len(names)) / 1e9,
        "self": np.bincount(name_ids, weights=cols["self"],
                            minlength=len(names)) / 1e9,
        "calls": tracer.calls(),
    }
    # layer -> {"inclusive": s, "self": s, "calls": n}
    layers: dict[str, dict] = {}
    for index, name in enumerate(names):
        row = layers.setdefault(layer_of(name), dict.fromkeys(by_name, 0))
        for key, values in by_name.items():
            row[key] += values[index].item()

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def calls_of(name: str) -> int:
        return int(by_name["calls"][names.index(name)]) \
            if name in names else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # cache reads of the warm pass: runner.cache.get spans under runner.warm
    warm_get = 0.0
    if "runner.warm" in names:
        parent = cols["parent"]
        mask = np.array([layer_of(name) == "runner.cache.get"
                         for name in names])[name_ids] & (parent >= 0)
        mask[mask] = name_ids[parent[mask]] == names.index("runner.warm")
        warm_get = float(cols["duration"][mask].sum()) / 1e9

    busy = layer("runner.worker", "inclusive")
    memsys_self = layer("memsys", "self")
    accesses = layer("memsys", "calls")
    hits = calls_of("core.ipcp_l1:IpcpL1.on_prefetch_hit")
    fills = calls_of("core.ipcp_l1:IpcpL1.on_prefetch_fill")
    metrics = {
        "workloads.gen_s": statistics.median(gens),
        "runner.spec_build_s": layer("runner.spec_build", "inclusive"),
        "runner.spec_bytes": ctx.notes.get("spec_bytes", 0),
        "runner.cache_put_s": layer("runner.cache.put", "inclusive"),
        "runner.cache_get_s": warm_get,
        "runner.executed": ctx.notes.get("executed", 0),
        "runner.cache_hits": final.notes.get("cache_hits", 0),
        "runner.worker_busy_s": busy,
        "runner.pool_eff": ratio(busy, getattr(workload, "jobs", 1)
                                 * layer("runner.cold", "inclusive")),
        "sim.cpu.self_s": layer("sim.cpu", "self"),
        "sim.cpu.instructions": sum(
            value for label, value in tracer.counts.items()
            if layer_of(label) == "sim.cpu"),
        "memsys.self_s": memsys_self,
        "memsys.accesses": accesses,
        "memsys.ns_per_access": ratio(memsys_self * 1e9, accesses),
        "memsys.tlb_s": layer("memsys.tlb", "self"),
        "memsys.dram_s": layer("memsys.dram", "self"),
        "memsys.dram_accesses": layer("memsys.dram", "calls"),
        "core.ipcp_l1.self_s": layer("core.ipcp_l1", "self"),
        "core.ipcp_l1.calls": layer("core.ipcp_l1", "calls"),
        "core.ipcp_l2.self_s": layer("core.ipcp_l2", "self"),
        "core.ipcp_l1.accuracy": ratio(hits, fills),
        "prefetchers.spp_l1.self_s": layer("prefetchers.spp_l1", "self"),
        "prefetchers.bingo.self_s": layer("prefetchers.bingo", "self"),
        "prefetchers.mlop.self_s": layer("prefetchers.mlop", "self"),
        **{f"sim.engine.{config}_s": layer(f"sim.engine.{config}",
                                           "inclusive")
           for config in ENGINE_CONFIGS},
        "sim.batched.s": layer("sim.batched", "inclusive"),
        "sim.trace.columns_s": layer("sim.trace.columns", "inclusive"),
        "sim.batched.fused_frac": ratio(checker.paths.get("fused", 0),
                                        checker.attempted),
        "sim.multicore.together_s": (
            layer("sim.multicore", "inclusive")
            - layer("sim.multicore.alone", "inclusive")),
        "sim.multicore.alone_s": layer("sim.multicore.alone", "inclusive"),
        "trace.overhead_frac": traced_wall / untraced_median - 1.0,
    }

    table = {name: {"self_s": row["self"], "calls": row["calls"]}
             for name, row in sorted(layers.items()) if row["calls"]}
    main = cols["pid"] == os.getpid()
    main_self = float(cols["self"][main].sum()) / 1e9
    walls = traced_wall + final_wall
    consistency = {
        "main_self_s": main_self,
        "traced_wall_s": walls,
        "min_self_ns": int(cols["self"].min()) if len(tracer) else 0,
        "spans": len(tracer),
        "accuracy_base": {"pf_hit_calls": hits, "pf_fill_calls": fills},
    }
    consistency["ok"] = (abs(main_self - walls) <= 0.05 * walls
                         and consistency["min_self_ns"] >= 0)
    return metrics, table, consistency


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------

def result_line(report: dict) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer when traced."""
    table = PER_LAYER if report["traced"] else END_TO_END
    values = report["per_layer"] if report["traced"] else report["metrics"]
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": values[name], "unit": table[name][0]}
                        for name in table}}


def emit(report: dict) -> int:
    """Print every metric by name with its unit; returns the exit code."""
    passes = report["passes"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['cells_per_pass']} cells/pass  "
          f"{report['instructions_per_pass']} instr/pass  "
          f"expected file: {'yes' if report['expected_file'] else 'no'}")
    print(f"  timed passes n={passes['n']}  q1={passes['q1']:.4f}s  "
          f"median={passes['median']:.4f}s  q3={passes['q3']:.4f}s")
    for name, (unit, how) in END_TO_END.items():
        print(f"  {name:<26}{report['metrics'][name]:>14.6g} "
              f"{unit:<9} {how}")
    cell_s = report["cell_s"]
    print(f"  cell host time over {cell_s['n']} cell runs: "
          f"p50 {cell_s['p50']:.6g} s, p90 {cell_s['p90']:.6g} s")
    print(f"  {'failed_frac':<26}{report['failed'] / report['attempted']:>14.6g}"
          f" {'ratio':<9} {report['failed']} of {report['attempted']} "
          f"cell runs failed")
    for path, count in sorted(report["paths"].items()):
        print(f"  engine path: {path} x{count}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    if report["traced"]:
        print("  self time per layer (traced pass):")
        for layer, row in sorted(report["layers"].items(),
                                 key=lambda item: -item[1]["self_s"]):
            print(f"    {layer:<26}{row['self_s']:>12.4f} s "
                  f"{row['calls']:>10} calls")
        check = report["consistency"]
        print(f"  consistency: main-process self {check['main_self_s']:.4f}s"
              f" vs traced wall {check['traced_wall_s']:.4f}s, min self "
              f"{check['min_self_ns']} ns, {check['spans']} spans -> "
              f"{'ok' if check['ok'] else 'FAILED'}")
        base = check["accuracy_base"]
        print(f"  core.ipcp_l1.accuracy base: {base['pf_hit_calls']} hits / "
              f"{base['pf_fill_calls']} fills")
        for name, (unit, moves) in PER_LAYER.items():
            print(f"  {name:<26}{report['per_layer'][name]:>14.6g} "
                  f"{unit:<6} -> {moves}")
        print(f"  spans: {report['spans']}")
    print(json.dumps(result_line(report)))
    return 0 if report["correct"] else 1

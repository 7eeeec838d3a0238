"""Command-line interface: run paper experiments from the shell.

Examples::

    python -m repro list-prefetchers
    python -m repro list-workloads
    python -m repro run --workload lbm_like --prefetcher ipcp
    python -m repro compare --workloads lbm_like,bwaves_like \\
                            --prefetchers ipcp,mlop,bingo --jobs 4
    python -m repro sweep --axis dram-bandwidth --values 3.2,12.8,25.0 \\
                          --workloads lbm_like,bwaves_like
    python -m repro analyze --workload mcf_i_like
    python -m repro mix --workload lbm_like --cores 4 --prefetcher ipcp
    python -m repro profile --workload mcf_i_like --top 15

Simulation commands accept ``--jobs N`` to fan cells out across worker
processes and keep a persistent result cache (``--cache-dir``, default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sim``; disable with
``--no-cache``), so repeating a figure or sweep is a cache hit.

Execution is fault-tolerant (docs/resilience.md): ``--retries N``
bounds the attempt budget for transient failures, ``--timeout SEC``
kills and retries overdue jobs, and ``--degraded`` (``compare`` and
``sweep`` only) renders ``FAILED(reason)`` cells instead of aborting.
Beside it, ``--journal PATH`` logs each cell that exhausted its retry
budget, and a degraded rerun against the same journal renders those
cells without retrying them (Ctrl-C exits 130 after flushing it).  An
interrupted run resumes from the result cache, not the journal: each
result is cached as it completes, so a rerun against the same cache
re-simulates only the unfinished cells.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.analysis import ExperimentRunner, run_levels
from repro.analysis.tracestats import analyze_trace
from repro.errors import ReproError, TraceError, exit_code_for
from repro.ingest import (
    DEFAULT_MAX_ERRORS,
    POLICIES,
    STRICT,
    ingest_binary,
    write_binary,
)
from repro.prefetchers import (
    available_prefetchers,
    build_levels,
    make_prefetcher,
    storage_kb,
)
from repro.resilience import (
    CheckpointJournal,
    RetryPolicy,
    flush_active_journals,
)
from repro.runner import ResultCache, SimulationRunner
from repro.sim.multicore import simulate_mix
from repro.stats import format_table, normalized_weighted_speedup
from repro.workloads import WORKLOAD_FAMILIES, homogeneous_mix, workload_trace


def cmd_list_prefetchers(args) -> int:
    """List every registered prefetcher configuration."""
    rows = []
    for name in available_prefetchers():
        layout = ", ".join(
            f"{pf.name}@{level}"
            for level, pf in zip(("L1", "L2", "LLC"), build_levels(name))
            if pf is not None
        ) or "(no prefetching)"
        rows.append([name, layout, f"{storage_kb(name):.2f} KB"])
    print(format_table(["name", "levels", "storage"], rows))
    return 0


def cmd_list_workloads(args) -> int:
    """List workload names across all synthetic suites.

    Registries of ``(generator, memory_intensive, alu)`` entries fill
    the memory-intensive column; the others show ``-``.
    """
    rows = []
    for family, registry, _ in WORKLOAD_FAMILIES:
        for name, entry in registry.items():
            if isinstance(entry, tuple):
                intensive = "yes" if entry[1] else "no"
            else:
                intensive = "-"
            rows.append([name, family, intensive])
    print(format_table(["workload", "suite", "memory-intensive"], rows))
    return 0


def make_backend(args) -> SimulationRunner:
    """Build the job runner from the shared runner/resilience options."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    journal = (CheckpointJournal(args.journal)
               if getattr(args, "journal", None) else None)
    return SimulationRunner(
        jobs=args.jobs,
        cache=cache,
        retry=RetryPolicy(max_attempts=args.retries),
        timeout=args.timeout,
        journal=journal,
        degraded=getattr(args, "degraded", False),
    )


def parse_size(text: str) -> int:
    """Parse a byte size with an optional k/m suffix ('512k', '2m')."""
    text = text.strip().lower()
    multiplier = 1
    if text.endswith(("k", "m")):
        multiplier = 1024 if text.endswith("k") else 1024 * 1024
        text = text[:-1]
    try:
        return int(text) * multiplier
    except ValueError:
        raise ReproError(f"bad size {text!r}; expected e.g. 32768, 32k, 2m")


def parse_bandwidth(text: str) -> float:
    """Parse a DRAM channel bandwidth in GB/s ('12.8')."""
    try:
        return float(text)
    except ValueError:
        raise ReproError(f"bad bandwidth {text.strip()!r}; expected GB/s, "
                         f"e.g. 12.8")


def positive_finite(text: str) -> float:
    """Argparse type of every workload scale and of ``--timeout``: a
    finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number above 0, got {text!r}")
    return value


def at_least_one(text: str) -> int:
    """Argparse type of ``--retries``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return value


def cmd_run(args) -> int:
    """Run one workload with and without a prefetcher."""
    trace = workload_trace(args.workload, args.scale)
    runner = ExperimentRunner([trace], runner=make_backend(args))
    runner.ensure([(trace.name, "none"), (trace.name, args.prefetcher)])
    baseline = runner.result(trace.name, "none")
    result = runner.result(trace.name, args.prefetcher)
    rows = [
        ["IPC", baseline.ipc, result.ipc],
        ["speedup", 1.0, result.speedup_over(baseline)],
        ["L1 demand MPKI", baseline.mpki("l1"), result.mpki("l1")],
        ["LLC demand MPKI", baseline.mpki("llc"), result.mpki("llc")],
        ["L1 coverage", "-", result.l1.coverage],
        ["L1 accuracy", "-", result.l1.accuracy],
        ["DRAM reads", baseline.dram_reads, result.dram_reads],
    ]
    print(format_table(
        ["metric", "no prefetching", args.prefetcher], rows,
        title=f"{trace.name} ({len(trace)} instructions)",
    ))
    return 0


def cmd_compare(args) -> int:
    """Render a (trace x config) speedup table."""
    traces = [workload_trace(name, args.scale)
              for name in args.workloads.split(",")]
    configs = args.prefetchers.split(",")
    runner = ExperimentRunner(traces, runner=make_backend(args))
    rows = runner.speedup_table(configs)
    print(format_table(["trace"] + configs, rows,
                       title="Speedup over no prefetching"))
    return 0


_SWEEP_AXES = ("dram-bandwidth", "l1-size", "l2-size", "llc-size",
               "replacement")


def cmd_sweep(args) -> int:
    """Sweep one system axis and tabulate geomean speedups."""
    from repro.analysis.sweep import sweep_system

    traces = [workload_trace(name, args.scale)
              for name in args.workloads.split(",")]
    configs = args.prefetchers.split(",")
    points = []
    for value in args.values.split(","):
        if args.axis == "dram-bandwidth":
            params = sweep_system(dram_bandwidth_gbps=parse_bandwidth(value))
        elif args.axis == "l1-size":
            params = sweep_system(l1_size=parse_size(value))
        elif args.axis == "l2-size":
            params = sweep_system(l2_size=parse_size(value))
        elif args.axis == "llc-size":
            params = sweep_system(llc_size=parse_size(value))
        else:
            params = sweep_system(replacement=value)
        points.append((value, params))
    runner = ExperimentRunner(traces, runner=make_backend(args))
    rows = runner.sweep_table(configs, points)
    print(format_table(
        [args.axis] + configs, rows,
        title=f"Geomean speedup over no prefetching, swept {args.axis}",
    ))
    return 0


def cmd_analyze(args) -> int:
    """Print a Section III access-pattern profile for a trace."""
    trace = workload_trace(args.workload, args.scale)
    profile = analyze_trace(trace)
    shares = profile.class_shares()
    rows = [[label, share] for label, share in shares.items()]
    rows.append(["dense 2KB regions", profile.dense_region_fraction])
    rows.append(["distinct IPs", profile.distinct_ips])
    rows.append(["loads analyzed", profile.loads])
    print(format_table(
        ["property", "value"], rows,
        title=f"Section III pattern profile: {trace.name}",
    ))
    return 0


def cmd_dump_trace(args) -> int:
    """Generate a workload and write it as a RIB1 trace file."""
    trace = workload_trace(args.workload, args.scale)
    write_binary(trace, args.out)
    print(f"wrote {len(trace)} records ({trace.load_records} loads) "
          f"to {args.out}")
    return 0


def cmd_run_trace(args) -> int:
    """Simulate a RIB1 trace file read under an ingestion policy."""
    trace, report = ingest_binary(args.trace_file, policy=args.policy,
                                  max_errors=args.max_errors,
                                  quarantine_path=args.quarantine_path)
    print(format_table(["property", "value"], report.summary_rows(),
                       title=f"Ingestion: {report.source}"))
    if not len(trace):
        raise TraceError(f"{report.source}: no records to simulate")
    baseline = run_levels(trace, "none")
    result = run_levels(trace, args.prefetcher)
    rows = [
        ["IPC", baseline.ipc, result.ipc],
        ["speedup", 1.0, result.speedup_over(baseline)],
        ["L1 coverage", "-", result.l1.coverage],
    ]
    print(format_table(
        ["metric", "no prefetching", args.prefetcher], rows,
        title=f"{args.trace_file} ({len(trace)} instructions)",
    ))
    return 0


def cmd_verify(args) -> int:
    """Run the differential verification suite (docs/verification.md)."""
    from repro.verify.golden import (
        DEFAULT_BASELINE_PATH,
        GOLDEN_SCALE,
        GOLDEN_WORKLOADS,
        collect_golden_stats,
        compare_to_baseline,
        describe_sections,
        load_baseline,
        save_baseline,
    )
    from repro.verify.invariants import run_invariant_sweep
    from repro.verify.lockstep import run_lockstep_suite
    from repro.workloads import full_suite

    failed = False
    prefetchers = args.prefetchers.split(",") if args.prefetchers else None
    workloads = tuple(
        args.workloads.split(",") if args.workloads else GOLDEN_WORKLOADS
    )
    scale = args.scale if args.scale is not None else GOLDEN_SCALE

    if not args.skip_oracle:
        print("== oracle lockstep diff (production IpcpL1 vs naive models) ==")
        reports = run_lockstep_suite()
        for report in reports:
            if not report.ok:
                failed = True
                print(report.describe())
        matched = sum(r.requests for r in reports)
        accesses = sum(r.accesses for r in reports)
        if all(r.ok for r in reports):
            print(f"OK — {len(reports)} lockstep cells, {accesses} accesses, "
                  f"{matched} matching prefetches")

    if not args.skip_invariants:
        print("== runtime invariants (prefetchers x full suite) ==")
        reports = run_invariant_sweep(
            full_suite(scale=args.invariant_scale), prefetchers)
        bad = [r for r in reports if not r.ok]
        for report in bad[:10]:
            failed = True
            print(report.describe())
        if not bad:
            accesses = sum(r.accesses for r in reports)
            requests = sum(r.requests for r in reports)
            print(f"OK — {len(reports)} (prefetcher, trace) cells, "
                  f"{accesses} accesses, {requests} requests audited")

        print("== frontend invariants (instruction prefetchers x "
              "frontend suite) ==")
        from repro.verify.invariants import run_frontend_invariant_sweep
        from repro.workloads import frontend_suite

        fe_scale = max(args.invariant_scale, 0.2)
        fe_reports = run_frontend_invariant_sweep(
            frontend_suite(scale=fe_scale)
        )
        fe_bad = [r for r in fe_reports if not r.ok]
        for report in fe_bad[:10]:
            failed = True
            print(report.describe())
        if not fe_bad:
            accesses = sum(r.accesses for r in fe_reports)
            requests = sum(r.requests for r in fe_reports)
            print(f"OK — {len(fe_reports)} (prefetcher, trace) cells, "
                  f"{accesses} fetch transitions, {requests} requests "
                  "audited")

    if not args.skip_golden:
        print("== golden-stats regression ==")
        runner = make_backend(args)
        path = args.baseline or DEFAULT_BASELINE_PATH
        if args.update_baseline:
            document = collect_golden_stats(
                workloads=workloads, prefetchers=prefetchers,
                scale=scale, runner=runner,
            )
            save_baseline(document, path)
            print(f"wrote {describe_sections(document)} to {path}")
        else:
            baseline = load_baseline(path)
            current = collect_golden_stats(
                workloads=tuple(baseline["workloads"]),
                prefetchers=list(baseline["prefetchers"]),
                scale=baseline["scale"],
                runner=runner,
            )
            drifts = compare_to_baseline(current, baseline)
            for drift in drifts[:20]:
                print(drift.describe())
            if len(drifts) > 20:
                print(f"... and {len(drifts) - 20} more drifting pins")
            if drifts:
                failed = True
                print("drift detected; if intentional, re-baseline with "
                      "`python -m repro verify --update-baseline`")
            else:
                print(f"OK — {describe_sections(current)} match {path}")

    if not args.skip_cross_engine:
        print("== cross-engine equivalence (scalar vs batched) ==")
        from repro.verify.cross_engine import run_cross_engine

        report = run_cross_engine(
            workloads=workloads, prefetchers=prefetchers, scale=scale,
        )
        print(report.describe())
        if not report.ok:
            failed = True
        elif not report.fused_cells:
            failed = True
            print("FAIL — no cell exercised the fused batched path; "
                  "the fast engine has silently rotted into fallback")

    return 1 if failed else 0


def cmd_mix(args) -> int:
    """Simulate a homogeneous multicore mix; print its weighted speedup."""
    traces = homogeneous_mix(args.workload, args.cores, scale=args.scale)
    levels = make_prefetcher(args.prefetcher)
    backend = make_backend(args)
    base = simulate_mix(traces, runner=backend)
    result = simulate_mix(
        traces,
        l1_factory=levels.get("l1"),
        l2_factory=levels.get("l2"),
        llc_factory=levels.get("llc"),
        runner=backend,
    )
    rows = [
        ["weighted speedup (baseline)", base.weighted_speedup],
        [f"weighted speedup ({args.prefetcher})", result.weighted_speedup],
        ["normalized", normalized_weighted_speedup(result, base)],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{args.cores}-core homogeneous mix of {args.workload}",
    ))
    if result.degenerate_cores:
        print(f"warning: degenerate core(s) {result.degenerate_cores} "
              f"contributed 0.0 to the weighted speedup")
    return 0


def cmd_profile(args) -> int:
    """cProfile the simulator hot loop per phase."""
    from repro.runner.job import levels_job
    from repro.telemetry.profiling import profile_job

    trace = workload_trace(args.workload, args.scale)
    spec = levels_job(trace, args.prefetcher)
    for profile in profile_job(spec, top=args.top):
        rate = (profile.instructions / profile.wall_seconds
                if profile.wall_seconds else 0.0)
        print(format_table(
            ["function", "calls", "tottime (s)", "cumtime (s)"],
            profile.rows(),
            title=(f"{trace.name}/{args.prefetcher} {profile.phase}: "
                   f"{profile.instructions} instructions, "
                   f"{profile.cycles} cycles, "
                   f"{profile.wall_seconds:.3f}s ({rate:,.0f} instr/s)"),
        ))
    return 0


def cmd_paper(args) -> int:
    """Evaluate the paper-claim registry; --write regenerates doc + BENCH."""
    import contextlib
    import pathlib
    import time

    from repro import paperclaims

    if args.list:
        for claim in paperclaims.CLAIMS:
            print(f"{claim.id:26} [{claim.section:11}] {claim.title}")
        return 0

    only = args.only
    if args.mutate:
        # The patch must reach the simulations (in-process) and must not
        # poison the content-addressed store (cache off).  A timeout
        # needs worker processes, which the patch would not reach.
        if args.timeout is not None:
            raise ReproError("--mutate runs every simulation in-process, "
                             "so it cannot take --timeout")
        args.jobs = 1
        args.no_cache = True
        if not only:
            only = list(paperclaims.expected_flips(args.mutate))
        print(f"mutation {args.mutate!r}: forcing --jobs 1 --no-cache; "
              f"claims: {', '.join(only)}")

    backend = make_backend(args)
    engine = paperclaims.ClaimEngine(paperclaims.CLAIMS, backend)

    mutation = (paperclaims.apply_mutation(args.mutate)
                if args.mutate else contextlib.nullcontext())
    start = time.perf_counter()
    with mutation:
        report = engine.run(only=only,
                            progress=lambda line: print(line, flush=True))
    wall = time.perf_counter() - start

    print(paperclaims.render_verdict_report(report))

    drift = False
    if not only and not args.mutate:
        root = pathlib.Path(__file__).resolve().parents[2]
        doc_path = root / "EXPERIMENTS.md"
        rendered = paperclaims.render_experiments(report)
        if args.write:
            doc_path.write_text(rendered, encoding="utf-8")
            print(f"wrote {doc_path}")
            bench_path = root / "BENCH_10.json"
            paperclaims.write_bench(report, wall, str(bench_path))
            print(f"wrote {bench_path}")
        else:
            committed = (doc_path.read_text(encoding="utf-8")
                         if doc_path.exists() else "")
            drift = committed != rendered
            print("EXPERIMENTS.md "
                  + ("is OUT OF DATE vs live results — run "
                     "`repro paper --write`" if drift
                     else "matches live results byte for byte"))

    if args.check:
        return 1 if (not report.ok or drift) else 0
    return 0


def add_runner_options(parser: argparse.ArgumentParser) -> None:
    """Shared runner/resilience options for simulation commands."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulation cells")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent result cache location "
                             "(default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro-sim)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    parser.add_argument("--retries", type=at_least_one, default=3,
                        metavar="N",
                        help="attempt budget per job for transient "
                             "failures and timeouts (1 disables retry)")
    parser.add_argument("--timeout", type=positive_finite, default=None,
                        metavar="SEC",
                        help="per-job wall-clock timeout; the overdue "
                             "worker is killed and the job retried "
                             "(needs --jobs >= 2)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every repro subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IPCP (ISCA 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-prefetchers").set_defaults(func=cmd_list_prefetchers)
    sub.add_parser("list-workloads").set_defaults(func=cmd_list_workloads)

    run = sub.add_parser("run", help="run one workload + prefetcher")
    run.add_argument("--workload", required=True)
    run.add_argument("--prefetcher", default="ipcp")
    run.add_argument("--scale", type=positive_finite, default=0.5)
    add_runner_options(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="speedup table")
    compare.add_argument("--workloads", required=True,
                         help="comma-separated workload names")
    compare.add_argument("--prefetchers", default="ipcp,mlop,bingo")
    compare.add_argument("--scale", type=positive_finite, default=0.4)
    add_runner_options(compare)
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser(
        "sweep", help="sensitivity sweep along one system axis")
    sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values (GB/s for "
                            "dram-bandwidth, bytes with optional k/m "
                            "suffix for sizes, policy names for "
                            "replacement)")
    sweep.add_argument("--workloads", required=True,
                       help="comma-separated workload names")
    sweep.add_argument("--prefetchers", default="ipcp")
    sweep.add_argument("--scale", type=positive_finite, default=0.4)
    add_runner_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    # Only the table commands can render a failed cell; every other
    # command would read a JobFailure as a result, and the journal is
    # the failure log a degraded rerun reads back.
    for table in (compare, sweep):
        table.add_argument("--degraded", action="store_true",
                           help="render FAILED(reason) cells for jobs that "
                                "exhaust their retry budget instead of "
                                "aborting the run")
        table.add_argument("--journal", default=None, metavar="PATH",
                           help="failure log: record each cell that "
                                "exhausts its retry budget; a --degraded "
                                "rerun renders it without retrying")

    analyze = sub.add_parser("analyze", help="Section III pattern profile")
    analyze.add_argument("--workload", required=True)
    analyze.add_argument("--scale", type=positive_finite, default=0.4)
    analyze.set_defaults(func=cmd_analyze)

    dump = sub.add_parser("dump-trace",
                          help="write a workload as a RIB1 trace file")
    dump.add_argument("--workload", required=True)
    dump.add_argument("--out", required=True)
    dump.add_argument("--scale", type=positive_finite, default=0.5)
    dump.set_defaults(func=cmd_dump_trace)

    run_trace = sub.add_parser(
        "run-trace",
        help="simulate a RIB1 trace file under an ingestion policy "
             "(docs/ingestion.md)")
    run_trace.add_argument("--trace-file", required=True)
    run_trace.add_argument("--prefetcher", default="ipcp")
    run_trace.add_argument("--policy", choices=POLICIES, default=STRICT,
                           help="malformed-record policy")
    run_trace.add_argument("--max-errors", type=int,
                           default=DEFAULT_MAX_ERRORS, metavar="N",
                           help="lenient/quarantine fault budget")
    run_trace.add_argument("--quarantine-path", default=None,
                           metavar="PATH",
                           help="quarantine sidecar (default: "
                                "<trace-file>.quarantine)")
    run_trace.set_defaults(func=cmd_run_trace)

    verify = sub.add_parser(
        "verify",
        help="differential verification: oracle diff, invariants, "
             "golden-stats regression (see docs/verification.md)")
    verify.add_argument("--baseline", default=None, metavar="PATH",
                        help="result-pin file (default: this checkout's "
                             "tests/data/golden_stats.json)")
    verify.add_argument("--update-baseline", action="store_true",
                        help="rewrite every pin in the baseline instead "
                             "of comparing against it")
    verify.add_argument("--workloads", default=None,
                        help="cell workload grid (comma-separated) for "
                             "--update-baseline and the cross-engine gate")
    verify.add_argument("--prefetchers", default=None,
                        help="prefetcher grid (comma-separated) for the "
                             "invariant sweep, the cross-engine gate and "
                             "--update-baseline; default: all registered")
    verify.add_argument("--scale", type=positive_finite, default=None,
                        help="cell workload scale for --update-baseline "
                             "and the cross-engine gate")
    verify.add_argument("--invariant-scale", type=positive_finite,
                        default=0.08,
                        help="workload scale for the invariant sweep")
    verify.add_argument("--skip-oracle", action="store_true",
                        help="skip the oracle lockstep diff")
    verify.add_argument("--skip-invariants", action="store_true",
                        help="skip the runtime-invariant sweep")
    verify.add_argument("--skip-cross-engine", action="store_true",
                        help="skip the scalar-vs-batched equivalence gate")
    verify.add_argument("--skip-golden", action="store_true",
                        help="skip the golden-stats regression")
    add_runner_options(verify)
    verify.set_defaults(func=cmd_verify)

    profile = sub.add_parser(
        "profile",
        help="cProfile the simulator hot path per phase (warm-up vs "
             "ROI) for one workload + prefetcher")
    profile.add_argument("--workload", required=True)
    profile.add_argument("--prefetcher", default="ipcp")
    profile.add_argument("--scale", type=positive_finite, default=0.2)
    profile.add_argument("--top", type=int, default=12,
                         help="functions shown per phase")
    profile.set_defaults(func=cmd_profile)

    paper = sub.add_parser(
        "paper",
        help="evaluate the paper-claim registry; --write regenerates "
             "EXPERIMENTS.md and BENCH_10.json",
    )
    paper.add_argument("--check", action="store_true",
                       help="exit nonzero if any claim flips or "
                            "EXPERIMENTS.md drifts from live results")
    paper.add_argument("--write", action="store_true",
                       help="rewrite EXPERIMENTS.md and BENCH_10.json "
                            "from live results")
    paper.add_argument("--only", nargs="+", default=None, metavar="ID",
                       help="evaluate only these claim ids "
                            "(skips doc/BENCH handling)")
    paper.add_argument("--list", action="store_true",
                       help="list claim ids and exit")
    paper.add_argument("--mutate", default=None, metavar="NAME",
                       help="inject a seeded one-line core mutation "
                            "(proves the harness flips); forces "
                            "--jobs 1 --no-cache")
    add_runner_options(paper)
    paper.set_defaults(func=cmd_paper)

    mix = sub.add_parser("mix", help="homogeneous multicore mix")
    mix.add_argument("--workload", required=True,
                     help="benchmark to replicate on every core")
    mix.add_argument("--cores", type=int, default=4)
    mix.add_argument("--prefetcher", default="ipcp")
    mix.add_argument("--scale", type=positive_finite, default=0.25)
    add_runner_options(mix)
    mix.set_defaults(func=cmd_mix)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Error hygiene: every :class:`ReproError` subclass maps to its own
    nonzero exit code (see docs/resilience.md) and prints a one-line
    message, never a traceback.  Ctrl-C flushes any open checkpoint
    journals before exiting 130; a rerun against the same result cache
    replays every cell that finished before the interrupt.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        flushed = flush_active_journals()
        note = (f"; {flushed} checkpoint journal(s) flushed"
                if flushed else "")
        print(f"interrupted{note}", file=sys.stderr)
        return 130
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())

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
    python -m repro trace --workload bwaves_like --out events.jsonl
    python -m repro profile --workload mcf_i_like --top 15

Simulation commands accept ``--jobs N`` to fan cells out across worker
processes and keep a persistent result cache (``--cache-dir``, default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sim``; disable with
``--no-cache``), so repeating a figure or sweep is a cache hit.

Execution is fault-tolerant (docs/resilience.md): ``--retries N``
bounds the attempt budget for transient failures, ``--timeout SEC``
kills and retries overdue jobs, ``--journal PATH`` checkpoints resolved
cells so an interrupted run (Ctrl-C exits 130 after flushing the
journal) resumes with zero recomputation, and ``--degraded`` renders
``FAILED(reason)`` cells instead of aborting.  ``repro chaos`` runs the
seeded fault-injection proof.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import ExperimentRunner, run_levels, run_sweep
from repro.analysis.tracestats import analyze_trace
from repro.analysis.validate import check_prefetcher
from repro.errors import (
    ConfigurationError,
    ReproError,
    exit_code_for,
)
from repro.prefetchers import available_prefetchers, make_prefetcher
from repro.resilience import (
    CheckpointJournal,
    RetryPolicy,
    flush_active_journals,
)
from repro.runner import ResultCache, SimulationRunner
from repro.sim.batched import ENGINES
from repro.sim.multicore import simulate_mix
from repro.sim.trace import load_trace, save_trace
from repro.stats import format_table, normalized_weighted_speedup
from repro.workloads import homogeneous_mix, spec_trace
from repro.workloads.cloudsuite import CLOUDSUITE_BENCHMARKS, cloudsuite_trace
from repro.workloads.frontend import FRONTEND_BENCHMARKS, frontend_trace
from repro.workloads.gap import GAP_BENCHMARKS, gap_trace
from repro.workloads.neural import NEURAL_BENCHMARKS, neural_trace
from repro.workloads.spec import (
    EXTENSION_BENCHMARKS,
    SPEC_BENCHMARKS,
    extension_trace,
)
from repro.workloads.stream import STREAM_BENCHMARKS, stream_trace


def build_trace(name: str, scale: float):
    """Resolve a workload name across the SPEC/cloud/neural suites."""
    if name in SPEC_BENCHMARKS:
        return spec_trace(name, scale)
    if name in GAP_BENCHMARKS:
        return gap_trace(name, scale)
    if name in STREAM_BENCHMARKS:
        return stream_trace(name, scale)
    if name in CLOUDSUITE_BENCHMARKS:
        return cloudsuite_trace(name, scale)
    if name in NEURAL_BENCHMARKS:
        return neural_trace(name, scale)
    if name in EXTENSION_BENCHMARKS:
        return extension_trace(name, scale)
    if name in FRONTEND_BENCHMARKS:
        return frontend_trace(name, scale)
    raise ReproError(
        f"unknown workload {name!r}; see `python -m repro list-workloads`"
    )


def cmd_list_prefetchers(args) -> int:
    """List every registered prefetcher configuration."""
    rows = []
    for name in available_prefetchers():
        levels = make_prefetcher(name)
        built = {level: factory() for level, factory in levels.items()}
        layout = ", ".join(
            f"{pf.name}@{level.upper()}" for level, pf in built.items()
        ) or "(no prefetching)"
        bits = sum(pf.storage_bits for pf in built.values())
        rows.append([name, layout, f"{bits / 8 / 1024:.2f} KB"])
    print(format_table(["name", "levels", "storage"], rows))
    return 0


def cmd_list_workloads(args) -> int:
    """List workload names across all synthetic suites."""
    rows = []
    for name, (_, intensive, _) in SPEC_BENCHMARKS.items():
        rows.append([name, "spec", "yes" if intensive else "no"])
    for name, (_, intensive, _) in GAP_BENCHMARKS.items():
        rows.append([name, "gap", "yes" if intensive else "no"])
    for name, (_, intensive, _) in STREAM_BENCHMARKS.items():
        rows.append([name, "stream", "yes" if intensive else "no"])
    for name in CLOUDSUITE_BENCHMARKS:
        rows.append([name, "cloudsuite", "-"])
    for name in NEURAL_BENCHMARKS:
        rows.append([name, "neural", "-"])
    for name in EXTENSION_BENCHMARKS:
        rows.append([name, "extension", "-"])
    for name in FRONTEND_BENCHMARKS:
        rows.append([name, "frontend", "-"])
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


def cmd_run(args) -> int:
    """Run one workload with and without a prefetcher."""
    trace = build_trace(args.workload, args.scale)
    runner = ExperimentRunner([trace], runner=make_backend(args),
                              engine=args.engine)
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


def cmd_frontend(args) -> int:
    """Compare instruction prefetchers over the frontend-bound suite."""
    from repro.frontend import (
        get_frontend_run_info,
        make_frontend_prefetcher,
        simulate_frontend,
    )

    names = (list(FRONTEND_BENCHMARKS) if args.workloads == "all"
             else args.workloads.split(","))
    configs = [c for c in args.prefetchers.split(",") if c != "none"]
    rows = []
    for name in names:
        trace = frontend_trace(name, args.scale)
        baseline = simulate_frontend(trace, engine=args.engine)
        rows.append([name, "none", 1.0, baseline.l1i_mpki, "-",
                     baseline.walks_pki])
        for config in configs:
            result = simulate_frontend(
                trace, make_frontend_prefetcher(config),
                engine=args.engine)
            rows.append([name, config, result.speedup_over(baseline),
                         result.l1i_mpki, result.coverage_over(baseline),
                         result.walks_pki])
    print(format_table(
        ["workload", "prefetcher", "speedup", "L1-I MPKI", "coverage",
         "walks/ki"], rows))
    info = get_frontend_run_info()
    if info.get("support_reason"):
        print(f"engine: {info['engine']} ({info['support_reason']})")
    return 0


def cmd_compare(args) -> int:
    """Render a (trace x config) speedup table."""
    traces = [build_trace(name, args.scale)
              for name in args.workloads.split(",")]
    configs = args.prefetchers.split(",")
    runner = ExperimentRunner(traces, runner=make_backend(args),
                              engine=args.engine)
    rows = runner.speedup_table(configs)
    print(format_table(["trace"] + configs, rows,
                       title="Speedup over no prefetching"))
    return 0


_SWEEP_AXES = ("dram-bandwidth", "l1-size", "l2-size", "llc-size",
               "replacement")


def cmd_sweep(args) -> int:
    """Sweep one system axis and tabulate geomean speedups."""
    from repro.analysis.sweep import sweep_system

    traces = [build_trace(name, args.scale)
              for name in args.workloads.split(",")]
    configs = args.prefetchers.split(",")
    values = args.values.split(",")
    params_list = []
    for value in values:
        if args.axis == "dram-bandwidth":
            params_list.append(sweep_system(dram_bandwidth_gbps=float(value)))
        elif args.axis == "l1-size":
            params_list.append(sweep_system(l1_size=parse_size(value)))
        elif args.axis == "l2-size":
            params_list.append(sweep_system(l2_size=parse_size(value)))
        elif args.axis == "llc-size":
            params_list.append(sweep_system(llc_size=parse_size(value)))
        else:
            params_list.append(sweep_system(replacement=value))
    rows_by_point = run_sweep(
        traces, configs, params_list, runner=make_backend(args)
    )
    rows = [[value] + [point[config] for config in configs]
            for value, point in zip(values, rows_by_point)]
    print(format_table(
        [args.axis] + configs, rows,
        title=f"Geomean speedup over no prefetching, swept {args.axis}",
    ))
    return 0


def cmd_analyze(args) -> int:
    """Print a Section III access-pattern profile for a trace."""
    trace = build_trace(args.workload, args.scale)
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
    """Generate a workload and write it as a trace file."""
    trace = build_trace(args.workload, args.scale)
    save_trace(trace, args.out)
    print(f"wrote {len(trace)} records ({trace.load_records} loads) "
          f"to {args.out}")
    return 0


def cmd_run_trace(args) -> int:
    """Simulate a previously dumped trace file."""
    trace = load_trace(args.trace_file)
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


def cmd_validate(args) -> int:
    """Audit a prefetcher config against the request contract."""
    levels = make_prefetcher(args.prefetcher)
    trace = build_trace(args.workload, args.scale)
    exit_code = 0
    for level, factory in levels.items():
        report = check_prefetcher(
            factory(), trace, allow_cross_page=args.allow_cross_page
        )
        status = "OK" if report.ok else "VIOLATIONS"
        print(f"{args.prefetcher}@{level.upper()}: {status} — "
              f"{report.accesses} accesses, {report.requests} requests")
        for kind, count in sorted(report.by_kind().items()):
            print(f"  {kind}: {count}")
            exit_code = 1
    return exit_code


def cmd_report(args) -> int:
    """Render a multi-metric report for one workload grid."""
    import os

    from repro.analysis.figures import ALL_FIGURES
    from repro.workloads import memory_intensive_suite

    from repro.stats.export import write_csv

    os.makedirs(args.out, exist_ok=True)
    runner = ExperimentRunner(
        memory_intensive_suite(scale=args.scale), runner=make_backend(args)
    )
    for name, figure in ALL_FIGURES.items():
        title, headers, rows = figure(runner)
        text = format_table(headers, rows, title=title)
        path = os.path.join(args.out, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        write_csv(os.path.join(args.out, f"{name}.csv"), headers, rows)
        print(f"wrote {path} (+ .csv)")
    return 0


def cmd_verify(args) -> int:
    """Run the differential verification suite (docs/verification.md)."""
    from repro.verify.golden import (
        DEFAULT_BASELINE_PATH,
        GOLDEN_SCALE,
        GOLDEN_WORKLOADS,
        collect_golden_stats,
        compare_to_baseline,
        load_baseline,
        save_baseline,
    )
    from repro.verify.invariants import run_invariant_sweep
    from repro.verify.lockstep import run_lockstep_suite
    from repro.workloads import full_suite

    failed = False

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
        print("== runtime invariants (all prefetchers x full suite) ==")
        reports = run_invariant_sweep(full_suite(scale=args.invariant_scale))
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
        if args.update_baseline:
            workloads = tuple(
                args.workloads.split(",") if args.workloads
                else GOLDEN_WORKLOADS
            )
            prefetchers = (
                args.prefetchers.split(",") if args.prefetchers else None
            )
            scale = args.scale if args.scale is not None else GOLDEN_SCALE
            document = collect_golden_stats(
                workloads=workloads, prefetchers=prefetchers,
                scale=scale, runner=runner,
            )
            save_baseline(document, args.baseline)
            print(f"wrote {len(document['cells'])} cells to {args.baseline}")
        else:
            baseline = load_baseline(args.baseline)
            current = collect_golden_stats(
                workloads=tuple(baseline["workloads"]),
                prefetchers=list(baseline["prefetchers"]),
                scale=baseline["scale"],
                runner=runner,
            )
            drifts = compare_to_baseline(
                current, baseline, rel_tol=args.tolerance
            )
            for drift in drifts[:20]:
                failed = True
                print(drift.describe())
            if drifts and len(drifts) > 20:
                print(f"... and {len(drifts) - 20} more drifting metrics")
            if not drifts:
                print(f"OK — {len(current['cells'])} cells match "
                      f"{args.baseline}")
            else:
                print("drift detected; if intentional, re-baseline with "
                      "`python -m repro verify --update-baseline`")

    if not args.skip_cross_engine:
        print("== cross-engine equivalence (scalar vs batched) ==")
        from repro.verify.cross_engine import run_cross_engine

        workloads = tuple(
            args.workloads.split(",") if args.workloads else GOLDEN_WORKLOADS
        )
        prefetchers = (
            args.prefetchers.split(",") if args.prefetchers else None
        )
        scale = args.scale if args.scale is not None else GOLDEN_SCALE
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
    """Homogeneous mixes, or the graded-suite artifact pipeline.

    Without an action this simulates a homogeneous multicore mix and
    prints its weighted speedup.  With ``run``/``summarize``/``plot``
    it drives the Kill-Llama-style experiment-artifact pipeline over
    the graded ``mix1``-``mix7`` suite, regenerating
    ``benchmarks/out/mix/<mix>/{results.jsonl,summary.json,plot.txt}``
    deterministically (bit-identical on a warm cached rerun).
    """
    if args.action is not None:
        return _mix_pipeline(args)
    if args.workload is None:
        raise ConfigurationError(
            "mix needs --workload (homogeneous mode) or an action: "
            "run / summarize / plot")
    if args.scale is None:
        args.scale = 0.25
    traces = homogeneous_mix(args.workload, args.cores, scale=args.scale)
    levels = make_prefetcher(args.prefetcher)
    backend = make_backend(args)
    alone: dict[str, float] = {}
    base = simulate_mix(traces, alone_ipc=alone, runner=backend,
                        engine=args.engine)
    result = simulate_mix(
        traces,
        l1_factory=levels.get("l1"),
        l2_factory=levels.get("l2"),
        llc_factory=levels.get("llc"),
        alone_ipc=alone,
        runner=backend,
        engine=args.engine,
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
    if result.engine_reason:
        print(f"engine: requested {args.engine!r}, ran "
              f"{result.engine!r} — {result.engine_reason}")
    if result.degenerate_cores:
        print(f"warning: degenerate core(s) {result.degenerate_cores} "
              f"contributed 0.0 to the weighted speedup")
    return 0


def _mix_selection(selector: str | None) -> list[str]:
    """Resolve ``--mix`` to graded-mix names (default: the whole suite)."""
    from repro.workloads.mixes import GRADED_MIXES

    if selector is None or selector == "all":
        return list(GRADED_MIXES)
    if selector in GRADED_MIXES:
        return [selector]
    raise ConfigurationError(
        f"unknown graded mix {selector!r}; "
        f"known: {', '.join(GRADED_MIXES)} (or 'all')")


def _mix_pipeline(args) -> int:
    """The graded-suite ``run`` / ``summarize`` / ``plot`` actions."""
    import pathlib

    from repro.runner import levels_job, mix_job
    from repro.workloads.mixes import GRADED_MIXES, graded_mix

    mixes = _mix_selection(args.mix)
    configs = [c.strip() for c in args.configs.split(",")
               if c.strip() and c.strip() != "none"]
    out_root = pathlib.Path(args.out)
    if args.scale is None:
        args.scale = 0.2

    if args.action == "run":
        backend = make_backend(args)
        for mix in mixes:
            traces = graded_mix(mix, args.scale)
            mpki_results = backend.run(
                [levels_job(trace, "none") for trace in traces])
            per_core_mpki = [result.mpki("l1") for result in mpki_results]
            specs = [mix_job(traces, config, warmup=args.warmup,
                             roi=args.roi, engine=args.engine)
                     for config in ["none", *configs]]
            base, *results = backend.run(specs)
            lines = [{
                "kind": "baseline_mpki",
                "mix": mix,
                "benchmarks": list(GRADED_MIXES[mix]),
                "per_core_l1_mpki": per_core_mpki,
                "mean_l1_mpki": sum(per_core_mpki) / len(per_core_mpki),
            }]
            for config, result in zip(["none", *configs], [base, *results]):
                lines.append({
                    "kind": "config",
                    "mix": mix,
                    "config": config,
                    "weighted_speedup": result.weighted_speedup,
                    "nws": normalized_weighted_speedup(result, base),
                    "ipc_together": result.ipc_together,
                    "ipc_alone": result.ipc_alone,
                    "dram_reads": result.dram_reads,
                    "dram_writes": result.dram_writes,
                    "engine": result.engine,
                    "engine_reason": result.engine_reason,
                    "degenerate_cores": list(result.degenerate_cores),
                })
            out_dir = out_root / mix
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / "results.jsonl"
            path.write_text(
                "".join(json.dumps(line, sort_keys=True) + "\n"
                        for line in lines),
                encoding="utf-8")
            print(f"wrote {path}")
            if base.engine_reason:
                print(f"engine: requested {args.engine!r}, ran "
                      f"{base.engine!r} — {base.engine_reason}")
        return 0

    if args.action == "summarize":
        for mix in mixes:
            results_path = out_root / mix / "results.jsonl"
            if not results_path.exists():
                raise ConfigurationError(
                    f"{results_path} is missing; run "
                    f"`repro mix run --mix {mix}` first")
            records = [json.loads(line)
                       for line in results_path.read_text(
                           encoding="utf-8").splitlines() if line]
            baseline = next(r for r in records
                            if r["kind"] == "baseline_mpki")
            nws = {r["config"]: r["nws"] for r in records
                   if r["kind"] == "config" and r["config"] != "none"}
            leader = max(sorted(nws), key=lambda config: nws[config])
            summary = {
                "mix": baseline["mix"],
                "benchmarks": baseline["benchmarks"],
                "mean_l1_mpki": baseline["mean_l1_mpki"],
                "per_core_l1_mpki": baseline["per_core_l1_mpki"],
                "nws": nws,
                "leader": leader,
            }
            path = out_root / mix / "summary.json"
            path.write_text(
                json.dumps(summary, sort_keys=True, indent=2) + "\n",
                encoding="utf-8")
            print(f"wrote {path}")
        return 0

    # plot: ASCII bars of normalized weighted speedup per config.
    for mix in mixes:
        summary_path = out_root / mix / "summary.json"
        if not summary_path.exists():
            raise ConfigurationError(
                f"{summary_path} is missing; run "
                f"`repro mix summarize --mix {mix}` first")
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        width = 48
        lines = [
            f"{summary['mix']}: {'+'.join(summary['benchmarks'])}",
            f"baseline L1 MPKI (single-core mean): "
            f"{summary['mean_l1_mpki']:.2f}",
            "",
        ]
        for config in sorted(summary["nws"]):
            value = summary["nws"][config]
            bar = "#" * max(0, min(width, round(value * 32)))
            marker = " <- leader" if config == summary["leader"] else ""
            lines.append(f"{config:18s} |{bar} {value:.4f}{marker}")
        path = out_root / mix / "plot.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _class_label(class_id: int) -> str:
    from repro.core.ipcp_l1 import PfClass

    try:
        return PfClass(class_id).name.lower()
    except ValueError:
        return f"class{class_id}"


def _print_stream_summary(summary, source: str) -> None:
    rows = [[kind, count] for kind, count in summary.kinds]
    print(format_table(["event kind", "count"], rows,
                       title=f"{source}: {summary.total} events"))
    per_class = [
        [level, _class_label(cls), count, "issue"]
        for level, cls, count in summary.issued_by_class
    ] + [
        [level, _class_label(cls), count, "useful"]
        for level, cls, count in summary.useful_by_class
    ]
    if per_class:
        print(format_table(["level", "class", "count", "kind"], per_class,
                           title="Per-class prefetch events"))
    if summary.drops_by_reason:
        rows = [[reason, count]
                for reason, count in summary.drops_by_reason]
        print(format_table(["drop reason", "count"], rows,
                           title="Dropped candidates"))
    if summary.meta_by_class:
        rows = [[name, count] for name, count in summary.meta_by_class]
        print(format_table(["metadata class", "count"], rows,
                           title="L1->L2 metadata packets decoded"))


def _write_events(path: str, events) -> None:
    from repro.telemetry.export import write_events_csv, write_events_jsonl

    if path.endswith(".csv"):
        write_events_csv(path, events)
    else:
        write_events_jsonl(path, events)
    print(f"wrote {len(events)} events to {path}")


def cmd_trace(args) -> int:
    """Record the decision-level event stream for one run."""
    from repro.runner import trace_job
    from repro.telemetry import reconcile, summarize
    from repro.telemetry.export import read_events_jsonl

    from repro.telemetry.export import events_digest

    if args.replay:
        events = read_events_jsonl(args.replay)
        _print_stream_summary(summarize(events), args.replay)
        print(f"events digest: {events_digest(events)}")
        if args.out:
            _write_events(args.out, events)
        return 0

    if not args.workload:
        raise ReproError("trace needs --workload (or --replay FILE)")
    trace = build_trace(args.workload, args.scale)
    spec = trace_job(trace, args.prefetcher, engine=args.engine)
    traced = make_backend(args).run([spec])[0]
    events = list(traced.events)
    _print_stream_summary(summarize(events),
                          f"{trace.name}/{args.prefetcher}")
    print(f"events digest: {events_digest(events)}")
    if args.out:
        _write_events(args.out, events)
    mismatches = reconcile(events, traced.result)
    for mismatch in mismatches:
        print(f"RECONCILE MISMATCH: {mismatch}")
    if mismatches:
        return 1
    print("reconcile OK: per-class issue/useful events match the "
          "hierarchy's counters exactly")
    return 0


def cmd_profile(args) -> int:
    """cProfile the simulator hot loop per phase."""
    from repro.runner.job import levels_job
    from repro.telemetry.profiling import profile_job

    trace = build_trace(args.workload, args.scale)
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


def cmd_chaos(args) -> int:
    """Chaos proof: a faulty sweep must match a fault-free one exactly."""
    import functools
    import pickle
    import shutil
    import tempfile

    from repro.resilience.chaos import (
        ChaosCache,
        ChaosPlan,
        chaos_execute_job,
    )
    from repro.runner import levels_job

    traces = [build_trace(name, args.scale)
              for name in args.workloads.split(",")]
    configs = args.prefetchers.split(",")
    specs = [levels_job(trace, config)
             for trace in traces for config in configs]
    plan = ChaosPlan(
        seed=args.seed,
        crash_rate=args.crash_rate,
        hang_rate=args.hang_rate,
        transient_rate=args.transient_rate,
        corrupt_rate=args.corrupt_rate,
        hang_seconds=args.hang_seconds,
    )
    print(f"chaos: {len(specs)}-cell grid ({len(traces)} workloads x "
          f"{len(configs)} configs), seed {args.seed}, jobs {args.jobs}")

    reference = SimulationRunner(jobs=args.jobs).run(specs)
    expected = [pickle.dumps(cell) for cell in reference]

    retry = RetryPolicy(max_attempts=args.retries, backoff_base=0.01)
    execute = functools.partial(chaos_execute_job, plan=plan)
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        cache = ChaosCache(ResultCache(cache_dir), plan)
        # Cold pass: crashes, hangs and transients fire during
        # execution, and scheduled cache entries are corrupted as they
        # publish.  Warm pass: the corrupt entries fail their digest
        # check, get evicted and recomputed (under the same chaos).
        cold = SimulationRunner(jobs=args.jobs, cache=cache, retry=retry,
                                timeout=args.timeout, execute=execute)
        cold_results = cold.run(specs)
        warm = SimulationRunner(jobs=args.jobs, cache=cache, retry=retry,
                                timeout=args.timeout, execute=execute)
        warm_results = warm.run(specs)

        rows = [
            ["worker crashes recovered",
             cold.worker_crashes + warm.worker_crashes],
            ["pool respawns", cold.pool_respawns + warm.pool_respawns],
            ["job timeouts", cold.timeouts + warm.timeouts],
            ["transient retries", cold.retries + warm.retries],
            ["cache entries corrupted", cache.corruptions],
            ["corrupt entries detected & evicted", cache.inner.corrupt],
            ["simulations (fault-free vs chaotic)",
             f"{len(specs)} vs "
             f"{cold.simulations_run + warm.simulations_run}"],
        ]
        print(format_table(["event", "count"], rows,
                           title="Injected faults and recoveries"))

        mismatches = 0
        for label, results in (("cold", cold_results),
                               ("warm", warm_results)):
            for spec, cell, want in zip(specs, results, expected):
                if pickle.dumps(cell) != want:
                    mismatches += 1
                    print(f"MISMATCH ({label}): {spec.trace_name}/"
                          f"{spec.config_name}")
        if mismatches:
            print(f"chaos proof FAILED: {mismatches} cells diverged "
                  f"from the fault-free run")
            return 1
        print(f"chaos proof OK: {2 * len(specs)} recovered cells "
              f"bit-identical to the fault-free run")
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _print_ingest_report(report, *, written: int | None = None) -> None:
    rows = list(report.summary_rows())
    if written is not None:
        rows.append(["records written", written])
    print(format_table(["property", "value"], rows,
                       title=f"Ingestion: {report.source}"))


def cmd_ingest(args) -> int:
    """Trace ingestion: registry actions and the input-fault proof."""
    from repro.ingest import (
        TraceRegistry,
        ingest_k6,
        stream_binary_columns,
        stream_k6_columns,
    )
    from repro.ingest.convert import detect_format
    from repro.ingest.k6 import make_report

    if args.action == "register":
        if not args.file:
            raise ConfigurationError("ingest register needs --file PATH")
        import os

        name = args.name or os.path.basename(args.file)
        registry = TraceRegistry(args.registry)
        entry = registry.register(name, args.file, fmt=args.format)
        print(format_table(
            ["property", "value"],
            [["name", name]] + [[k, entry[k]] for k in sorted(entry)],
            title=f"Registered in {args.registry}"))
        return 0

    if args.action == "verify":
        registry = TraceRegistry(args.registry)
        if args.name:
            registry.verify(args.name)
            results = {args.name: "ok"}
        else:
            results = registry.verify_all()
        rows = [[name, status] for name, status in sorted(results.items())]
        print(format_table(["trace", "verification"], rows,
                           title=f"Registry {args.registry}"))
        return 1 if any(status != "ok" for status in results.values()) else 0

    if args.action == "list":
        registry = TraceRegistry(args.registry)
        rows = [
            [name, entry["format"], entry["records"], entry["bytes"],
             entry["signature"][:16]]
            for name, entry in sorted(registry.traces.items())
        ]
        print(format_table(
            ["trace", "format", "records", "bytes", "signature[:16]"],
            rows, title=f"Registry {args.registry}"))
        return 0

    if args.action == "run":
        if not args.file:
            raise ConfigurationError("ingest run needs --file PATH")
        fmt = args.format or detect_format(args.file)
        stream = (stream_binary_columns if fmt == "binary"
                  else stream_k6_columns)
        report = make_report(args.file, fmt, args.policy,
                             max_errors=args.max_errors,
                             quarantine_path=args.quarantine_path)
        chunks = 0
        for _ in stream(args.file, report=report,
                        chunk_records=args.chunk_records):
            chunks += 1
        _print_ingest_report(report)
        print(f"streamed {report.records} records in {chunks} columnar "
              f"chunk(s) of <= {args.chunk_records}")
        return 0

    if args.action == "chaos":
        return _ingest_chaos(args)
    raise ConfigurationError(f"unknown ingest action {args.action!r}")


def _ingest_chaos(args) -> int:
    """Input-fault proof for the ingestion layer (docs/ingestion.md).

    Asserts the strict policy's per-fault exit codes, the lenient/
    quarantine contract (surviving records == clean minus exactly the
    quarantined ones, proven down to decision-stream digests on both
    engines), the error budget, and the registry's tamper refusal.
    """
    import gzip
    import os
    import shutil
    import tempfile

    from repro.errors import (
        TraceBudgetError,
        TraceChecksumError,
        TraceFormatError,
        TraceTruncatedError,
    )
    from repro.ingest import (
        TraceRegistry,
        ingest_k6,
        read_quarantine,
        write_k6,
    )
    from repro.resilience.chaos import (
        InputFaultPlan,
        corrupt_k6_text,
        truncate_gzip,
    )
    from repro.runner.job import execute_job, trace_job
    from repro.sim.trace import Trace
    from repro.telemetry.export import (
        events_digest,
        read_events_jsonl,
        write_events_jsonl,
    )

    checks: list[tuple[str, bool, str]] = []

    def check(label: str, ok: bool, detail: str) -> None:
        checks.append((label, ok, detail))

    def expect_error(label: str, error_type, code: int, fn) -> None:
        try:
            fn()
        except error_type as error:
            got = exit_code_for(error)
            check(label, got == code, f"{error_type.__name__}, exit {got}")
        except ReproError as error:
            check(label, False,
                  f"wrong error {type(error).__name__}: {error}")
        else:
            check(label, False, "no error raised")

    workdir = tempfile.mkdtemp(prefix="repro-ingest-chaos-")
    try:
        source = build_trace(args.workload, args.scale)
        clean_path = os.path.join(workdir, "clean.k6")
        write_k6(source, clean_path)
        with open(clean_path, "rb") as fh:
            clean_bytes = fh.read()
        clean_trace, _ = ingest_k6(clean_path, name="chaos")

        plan = InputFaultPlan(seed=args.seed, flip_rate=args.flip_rate,
                              garbage_rate=args.garbage_rate)
        corruption = corrupt_k6_text(clean_bytes, plan)
        faulted_path = os.path.join(workdir, "faulted.k6")
        with open(faulted_path, "wb") as fh:
            fh.write(corruption.data)
        print(f"chaos: {len(clean_trace)} clean records, seed {args.seed} "
              f"-> {len(corruption.victims)} bit-flipped victims, "
              f"{corruption.garbage_lines} garbage lines")

        # -- strict policy: one distinct exit code per fault kind ------
        expect_error("strict: bit-flipped record -> format error (14)",
                     TraceFormatError, 14,
                     lambda: ingest_k6(faulted_path, policy="strict"))
        gz_path = os.path.join(workdir, "truncated.k6.gz")
        with open(gz_path, "wb") as fh:
            fh.write(truncate_gzip(gzip.compress(clean_bytes)))
        expect_error("strict: truncated gzip -> truncated error (15)",
                     TraceTruncatedError, 15,
                     lambda: ingest_k6(gz_path, policy="strict"))
        expect_error("lenient: garbage flood -> budget error (17)",
                     TraceBudgetError, 17,
                     lambda: ingest_k6(faulted_path, policy="lenient",
                                       max_errors=0))

        # -- lenient/quarantine contract -------------------------------
        quarantine_path = faulted_path + ".quarantine"
        faulted_trace, report = ingest_k6(
            faulted_path, name="chaos", policy="quarantine",
            quarantine_path=quarantine_path)
        victims = set(corruption.victims)
        expected = Trace([record for index, record in enumerate(clean_trace)
                          if index not in victims], name="chaos")
        check("quarantine: survivors == clean minus victims",
              list(faulted_trace) == list(expected),
              f"{report.records} survivors, {report.skipped} skipped")
        check("quarantine: sidecar holds exactly the skipped records",
              len(read_quarantine(quarantine_path)) == report.skipped
              and report.skipped == corruption.injected_faults,
              f"{report.skipped} rows in {os.path.basename(quarantine_path)}")

        # -- decision streams bit-identical on both engines ------------
        for engine in ("scalar", "batched"):
            results = []
            for trace in (expected, faulted_trace):
                traced = execute_job(
                    trace_job(trace, args.prefetcher, engine=engine))
                path = os.path.join(workdir, f"{engine}-{id(trace)}.jsonl")
                write_events_jsonl(path, traced.events)
                results.append(events_digest(read_events_jsonl(path)))
            check(f"decision streams identical ({engine} engine)",
                  results[0] == results[1], f"digest {results[0][:16]}..")

        # -- registry: tampered file refuses to run or replay ----------
        registry = TraceRegistry(os.path.join(workdir, "traces.json"))
        registry.register("clean", clean_path)
        registry.verify("clean")
        blob = bytearray(clean_bytes)
        blob[len(blob) // 2] ^= 0x01
        with open(clean_path, "wb") as fh:
            fh.write(bytes(blob))
        expect_error("registry: tampered file -> checksum refusal (16)",
                     TraceChecksumError, 16,
                     lambda: registry.load_trace("clean"))

        rows = [[label, "OK" if ok else "FAILED", detail]
                for label, ok, detail in checks]
        print(format_table(["check", "verdict", "detail"], rows,
                           title="Input-fault proof"))
        failed = sum(1 for _, ok, _ in checks if not ok)
        if failed:
            print(f"ingest chaos proof FAILED: {failed} of {len(checks)} "
                  f"checks")
            return 1
        print(f"ingest chaos proof OK: {len(checks)} checks passed")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cmd_convert(args) -> int:
    """Convert a trace between the k6 and binary interchange formats."""
    from repro.ingest import convert_trace

    journal = CheckpointJournal(args.journal) if args.journal else None
    try:
        report, written = convert_trace(
            args.src, args.dst,
            src_format=args.src_format,
            dst_format=args.dst_format,
            policy=args.policy,
            max_errors=args.max_errors,
            quarantine_path=args.quarantine_path,
            chunk_records=args.chunk_records,
            journal=journal,
        )
    finally:
        if journal is not None:
            journal.close()
    _print_ingest_report(report, written=written)
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
        # poison the content-addressed store (cache off).
        args.jobs = 1
        args.no_cache = True
        if not only:
            only = list(paperclaims.expected_flips(args.mutate))
        print(f"mutation {args.mutate!r}: forcing --jobs 1 --no-cache; "
              f"claims: {', '.join(only)}")

    backend = make_backend(args)
    engine = paperclaims.ClaimEngine(
        paperclaims.CELLS, paperclaims.CLAIMS, backend)

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
    parser.add_argument("--retries", type=int, default=3, metavar="N",
                        help="attempt budget per job for transient "
                             "failures and timeouts (1 disables retry)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SEC",
                        help="per-job wall-clock timeout; the overdue "
                             "worker is killed and the job retried "
                             "(needs --jobs >= 2)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="checkpoint journal: record resolved cells "
                             "so an interrupted run resumes with zero "
                             "recomputation")
    parser.add_argument("--degraded", action="store_true",
                        help="render FAILED(reason) cells for jobs that "
                             "exhaust their retry budget instead of "
                             "aborting the run")


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
    run.add_argument("--scale", type=float, default=0.5)
    run.add_argument("--engine", choices=ENGINES, default="scalar",
                     help="simulation engine (docs/engine.md)")
    add_runner_options(run)
    run.set_defaults(func=cmd_run)

    frontend = sub.add_parser(
        "frontend",
        help="instruction-prefetching comparison over the L1-I/ITLB "
             "model (docs/frontend.md)")
    frontend.add_argument("--workloads", default="all",
                          help="comma-separated frontend workload names, "
                               "or 'all'")
    frontend.add_argument("--prefetchers",
                          default="next_line_i,mana_lite,ipcp_i",
                          help="comma-separated frontend configurations "
                               "(see repro.frontend.registry)")
    frontend.add_argument("--scale", type=float, default=0.5)
    frontend.add_argument("--engine", choices=ENGINES, default="scalar",
                          help="frontend engine; 'batched' falls back to "
                               "scalar with a support reason for now")
    frontend.set_defaults(func=cmd_frontend)

    compare = sub.add_parser("compare", help="speedup table")
    compare.add_argument("--workloads", required=True,
                         help="comma-separated workload names")
    compare.add_argument("--prefetchers", default="ipcp,mlop,bingo")
    compare.add_argument("--scale", type=float, default=0.4)
    compare.add_argument("--engine", choices=ENGINES, default="scalar",
                         help="simulation engine (docs/engine.md)")
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
    sweep.add_argument("--scale", type=float, default=0.4)
    add_runner_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    analyze = sub.add_parser("analyze", help="Section III pattern profile")
    analyze.add_argument("--workload", required=True)
    analyze.add_argument("--scale", type=float, default=0.4)
    analyze.set_defaults(func=cmd_analyze)

    dump = sub.add_parser("dump-trace", help="write a workload trace file")
    dump.add_argument("--workload", required=True)
    dump.add_argument("--out", required=True)
    dump.add_argument("--scale", type=float, default=0.5)
    dump.set_defaults(func=cmd_dump_trace)

    run_trace = sub.add_parser("run-trace", help="simulate a trace file")
    run_trace.add_argument("--trace-file", required=True)
    run_trace.add_argument("--prefetcher", default="ipcp")
    run_trace.set_defaults(func=cmd_run_trace)

    validate = sub.add_parser(
        "validate", help="audit a prefetcher's request contract")
    validate.add_argument("--prefetcher", required=True)
    validate.add_argument("--workload", default="roms_like")
    validate.add_argument("--scale", type=float, default=0.2)
    validate.add_argument("--allow-cross-page", action="store_true")
    validate.set_defaults(func=cmd_validate)

    report = sub.add_parser(
        "report", help="regenerate the core paper artifacts")
    report.add_argument("--out", default="report")
    report.add_argument("--scale", type=float, default=0.4)
    add_runner_options(report)
    report.set_defaults(func=cmd_report)

    verify = sub.add_parser(
        "verify",
        help="differential verification: oracle diff, invariants, "
             "golden-stats regression (see docs/verification.md)")
    verify.add_argument("--baseline", default="tests/data/golden_stats.json",
                        metavar="PATH",
                        help="golden-stats baseline JSON (committed)")
    verify.add_argument("--update-baseline", action="store_true",
                        help="re-snapshot the golden baseline instead of "
                             "comparing against it")
    verify.add_argument("--tolerance", type=float, default=0.0,
                        metavar="REL",
                        help="allowed relative drift per metric "
                             "(default 0: exact — the simulator is "
                             "deterministic)")
    verify.add_argument("--workloads", default=None,
                        help="baseline workload grid (comma-separated; "
                             "only with --update-baseline)")
    verify.add_argument("--prefetchers", default=None,
                        help="baseline prefetcher grid (comma-separated; "
                             "only with --update-baseline; default: all "
                             "registered)")
    verify.add_argument("--scale", type=float, default=None,
                        help="baseline workload scale (only with "
                             "--update-baseline)")
    verify.add_argument("--invariant-scale", type=float, default=0.08,
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

    trace_cmd = sub.add_parser(
        "trace",
        help="record the prefetcher's decision-level event stream "
             "(classify/issue/drop/useful/epoch/meta) and reconcile it "
             "against the run's counters (see docs/observability.md)")
    trace_cmd.add_argument("--workload", default=None)
    trace_cmd.add_argument("--prefetcher", default="ipcp")
    trace_cmd.add_argument("--scale", type=float, default=0.2)
    trace_cmd.add_argument("--engine", choices=ENGINES, default="scalar",
                           help="simulation engine (a telemetry run "
                                "always falls back to scalar)")
    trace_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="write the event stream (.jsonl canonical, "
                                ".csv flat)")
    trace_cmd.add_argument("--replay", default=None, metavar="PATH",
                           help="summarize a previously written JSONL "
                                "event stream instead of simulating")
    add_runner_options(trace_cmd)
    trace_cmd.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="cProfile the simulator hot path per phase (warm-up vs "
             "ROI) for one workload + prefetcher")
    profile.add_argument("--workload", required=True)
    profile.add_argument("--prefetcher", default="ipcp")
    profile.add_argument("--scale", type=float, default=0.2)
    profile.add_argument("--top", type=int, default=12,
                         help="functions shown per phase")
    profile.set_defaults(func=cmd_profile)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection proof: a sweep surviving worker "
             "crashes, hangs, transient errors and corrupt cache "
             "entries must be bit-identical to a fault-free run "
             "(see docs/resilience.md)")
    chaos.add_argument("--workloads", default="bwaves_like,gcc_like",
                       help="comma-separated workload names")
    chaos.add_argument("--prefetchers", default="none,ipcp",
                       help="comma-separated prefetcher configurations")
    chaos.add_argument("--scale", type=float, default=0.05)
    chaos.add_argument("--seed", type=int, default=1,
                       help="fault-schedule seed (same seed = same "
                            "faults)")
    chaos.add_argument("--jobs", type=int, default=2, metavar="N")
    chaos.add_argument("--retries", type=int, default=4, metavar="N")
    chaos.add_argument("--timeout", type=float, default=0.75,
                       metavar="SEC",
                       help="per-job deadline that converts injected "
                            "hangs into timeouts")
    chaos.add_argument("--crash-rate", type=float, default=0.25)
    chaos.add_argument("--hang-rate", type=float, default=0.25)
    chaos.add_argument("--transient-rate", type=float, default=0.25)
    chaos.add_argument("--corrupt-rate", type=float, default=0.5)
    chaos.add_argument("--hang-seconds", type=float, default=30.0)
    chaos.set_defaults(func=cmd_chaos)

    ingest = sub.add_parser(
        "ingest",
        help="hardened trace ingestion: register/verify checksummed "
             "traces, stream-ingest k6/binary files under a fault "
             "policy, run the input-fault proof (docs/ingestion.md)")
    ingest.add_argument("action",
                        choices=("register", "verify", "list", "run",
                                 "chaos"),
                        help="register/verify/list work on the registry; "
                             "run streams one file; chaos runs the "
                             "input-fault proof")
    ingest.add_argument("--registry", default="traces.json", metavar="PATH",
                        help="trace registry document (JSON)")
    ingest.add_argument("--name", default=None,
                        help="registry entry name (default: file basename; "
                             "for verify: all entries)")
    ingest.add_argument("--file", default=None, metavar="PATH",
                        help="trace file for register/run")
    ingest.add_argument("--format", choices=("k6", "binary"), default=None,
                        help="trace format (default: detect by magic)")
    ingest.add_argument("--policy",
                        choices=("strict", "lenient", "quarantine"),
                        default="strict",
                        help="malformed-record policy for ingest run")
    ingest.add_argument("--max-errors", type=int, default=1000, metavar="N",
                        help="lenient/quarantine malformed-record budget")
    ingest.add_argument("--quarantine-path", default=None, metavar="PATH",
                        help="quarantine sidecar (default: "
                             "<file>.quarantine)")
    ingest.add_argument("--chunk-records", type=int, default=65536,
                        metavar="N",
                        help="records per streamed columnar chunk")
    ingest.add_argument("--workload", default="bwaves_like",
                        help="chaos: workload synthesized into the clean "
                             "trace")
    ingest.add_argument("--prefetcher", default="ipcp",
                        help="chaos: prefetcher for the decision-stream "
                             "comparison")
    ingest.add_argument("--scale", type=float, default=0.05)
    ingest.add_argument("--seed", type=int, default=1,
                        help="chaos: input-fault schedule seed")
    ingest.add_argument("--flip-rate", type=float, default=0.05,
                        help="chaos: per-record command bit-flip chance")
    ingest.add_argument("--garbage-rate", type=float, default=0.02,
                        help="chaos: per-record garbage-line chance")
    ingest.set_defaults(func=cmd_ingest)

    convert = sub.add_parser(
        "convert",
        help="convert a trace between k6 text and RIB1 binary "
             "(streaming; resumable into binary via --journal)")
    convert.add_argument("src", help="source trace file")
    convert.add_argument("dst", help="destination trace file")
    convert.add_argument("--src-format", choices=("k6", "binary"),
                         default=None,
                         help="source format (default: detect by magic)")
    convert.add_argument("--dst-format", choices=("k6", "binary"),
                         default=None,
                         help="destination format (default: .k6/.k6.gz "
                              "-> k6, else binary)")
    convert.add_argument("--policy",
                         choices=("strict", "lenient", "quarantine"),
                         default="strict")
    convert.add_argument("--max-errors", type=int, default=1000,
                         metavar="N")
    convert.add_argument("--quarantine-path", default=None, metavar="PATH")
    convert.add_argument("--chunk-records", type=int, default=65536,
                         metavar="N",
                         help="records between resume checkpoints")
    convert.add_argument("--journal", default=None, metavar="PATH",
                         help="checkpoint journal enabling resume of an "
                              "interrupted conversion into binary")
    convert.set_defaults(func=cmd_convert)

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

    mix = sub.add_parser(
        "mix",
        help="homogeneous multicore mix, or the graded mix1-mix7 "
             "artifact pipeline (run/summarize/plot)")
    mix.add_argument("action", nargs="?", default=None,
                     choices=("run", "summarize", "plot"),
                     help="graded-suite pipeline stage: run simulates "
                          "into results.jsonl, summarize reduces to "
                          "summary.json, plot renders plot.txt; omit "
                          "for a homogeneous --workload mix")
    mix.add_argument("--workload", default=None,
                     help="homogeneous mode: benchmark to replicate on "
                          "every core")
    mix.add_argument("--cores", type=int, default=4)
    mix.add_argument("--prefetcher", default="ipcp")
    mix.add_argument("--scale", type=float, default=None,
                     help="trace scale (default 0.25 homogeneous, "
                          "0.2 for the graded pipeline)")
    mix.add_argument("--mix", default=None, metavar="NAME",
                     help="graded mix to process (mix1..mix7; "
                          "default: all)")
    mix.add_argument("--configs", default="ipcp,mlop,bingo",
                     metavar="LIST",
                     help="comma-separated prefetcher configs for the "
                          "pipeline grid (the 'none' baseline always "
                          "runs)")
    mix.add_argument("--out", default="benchmarks/out/mix", metavar="DIR",
                     help="artifact root (one subdirectory per mix)")
    mix.add_argument("--warmup", type=int, default=1_500, metavar="N",
                     help="pipeline warm-up instructions per core")
    mix.add_argument("--roi", type=int, default=6_000, metavar="N",
                     help="pipeline ROI instructions per core")
    mix.add_argument("--engine", choices=ENGINES, default="scalar",
                     help="requested engine; mixes report the scalar "
                          "fallback reason instead of silently ignoring "
                          "--engine batched")
    add_runner_options(mix)
    mix.set_defaults(func=cmd_mix)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Error hygiene: every :class:`ReproError` subclass maps to its own
    nonzero exit code (see docs/resilience.md) and prints a one-line
    message, never a traceback.  Ctrl-C flushes any open checkpoint
    journals before exiting 130, so an interrupted sweep resumes from
    exactly where it stopped.
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

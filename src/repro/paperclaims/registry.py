"""The claim registry: every EXPERIMENTS.md row as cells + predicates.

This is the only place a paper number is measured and checked.  Cells
(functions ``ctx -> {key: value}``) fix the traces, scales and
configurations of each experiment and run them through the shared
cached backend, so a warm re-check is free; claims hold the cells they
read and the thresholds those measurements must meet.
"""

from __future__ import annotations

from repro.paperclaims.cells import (
    CellContext,
    MIX_SCALE,
    MIXDIST_SCALE,
    SWEEP_SCALE,
)
from repro.paperclaims.claims import (
    Band,
    Best,
    Claim,
    DeltaBand,
    Leader,
    Monotonic,
    RatioBand,
    ScaledLeader,
    Spread,
)

# --------------------------------------------------------------------- #
# Shared configuration lists.
# --------------------------------------------------------------------- #

FIG7_CONFIGS = [
    "next_line", "ip_stride", "stream", "bop", "sandbox", "asp", "vldp",
    "spp_l1", "dspatch_l1", "sms_l1", "mlop_l1", "tskid_l1", "dol_l1",
    "bingo_l1", "bingo_l1_119kb", "ipcp_l1",
]
FIG8_CONFIGS = ["ipcp", "spp_ppf_dspatch", "mlop", "bingo", "tskid", "dol"]
FIG8_FULL_CONFIGS = ["ipcp", "mlop", "tskid"]
TABLE4_CONFIGS = ["ipcp", "spp_ppf_dspatch", "mlop", "bingo", "tskid"]
MC_CONFIGS = ["ipcp", "mlop", "bingo"]

SENS_TRACES = ("lbm_like", "bwaves_like", "fotonik_like", "wrf_like",
               "xz_like", "xalancbmk_like")
ABL_TRACES = ("lbm_like", "bwaves_like", "wrf_like", "omnetpp_like")
GS_TRACES = ("lbm_like", "gcc_like", "fotonik_like")

FIG13A_VARIANTS = {
    "cs_only": "ipcp_cs_only",
    "cplx_only": "ipcp_cplx_only",
    "gs_only": "ipcp_gs_only",
    "cs_cplx": "ipcp_cs_cplx",
    "cs_cplx_nl": "ipcp_cs_cplx_nl",
    "bouquet_l1": "ipcp_l1",
    "no_meta": "ipcp_no_metadata",
    "bouquet_l1_l2": "ipcp",
}
FIG13B_ORDERS = {
    "gs_first": "ipcp",
    "cs_first": "ipcp_cs_first",
    "cplx_first": "ipcp_cplx_first",
    "nl_first": "ipcp_nl_first",
}
L2_COMPLEMENTS = {
    "spp": "ipcp_l1_spp_l2",
    "bop": "ipcp_l1_bop_l2",
    "vldp": "ipcp_l1_vldp_l2",
    "mlop": "ipcp_l1_mlop_l2",
    "ip_stride": "ipcp_l1_ipstride_l2",
    "bingo": "ipcp_l1_bingo_l2",
}
TEMPORAL_CONFIGS = ["ipcp", "ipcp_temporal", "isb", "domino", "triage"]

#: The graded-mix grid: every Fig. 13a bouquet variant (including the
#: full "ipcp") plus the multicore rivals, measured over mix1..mix7.
MIX_SUITE_CONFIGS = [*FIG13A_VARIANTS.values(), "mlop", "bingo"]


def _miss_reduction(result, baseline, level: str) -> float:
    """The paper's coverage: demand-miss reduction vs no prefetching."""
    base = getattr(baseline, level).demand_misses
    if not base:
        return 0.0
    return max(0.0, 1.0 - getattr(result, level).demand_misses / base)


# --------------------------------------------------------------------- #
# Cells: each returns a flat ``{key: value}`` dict.
# --------------------------------------------------------------------- #

def _cell_table1(ctx: CellContext) -> dict[str, float]:
    from repro.core import ipcp_storage_report

    report = ipcp_storage_report()
    return {
        "table1.l1_table_bits": float(report.l1_table_bits),
        "table1.l1_other_bits": float(report.l1_other_bits),
        "table1.l1_bytes": float(report.l1_bytes),
        "table1.l2_bytes": float(report.l2_bytes),
        "table1.total_bytes": float(report.total_bytes),
    }


def _cell_table2(ctx: CellContext) -> dict[str, float]:
    from repro.memsys.tlb import TlbParams
    from repro.params import SystemParams

    params = SystemParams()
    tlb = TlbParams()
    return {
        "table2.width": float(params.core.width),
        "table2.rob": float(params.core.rob_size),
        "table2.l1_kb": params.l1d.size / 1024,
        "table2.l1_pq": float(params.l1d.pq_entries),
        "table2.l1_mshr": float(params.l1d.mshr_entries),
        "table2.l2_kb": params.l2.size / 1024,
        "table2.llc_kb": params.llc.size / 1024,
        "table2.dtlb": float(tlb.dtlb_entries),
        "table2.stlb": float(tlb.stlb_entries),
        "table2.dram_gbps": params.dram.bandwidth_gbps,
        "table2.ghz": params.dram.core_ghz,
    }


def _cell_table3(ctx: CellContext) -> dict[str, float]:
    from repro.prefetchers import storage_kb

    return {f"table3.{name}.kb": storage_kb(name) for name in TABLE4_CONFIGS}


def _cell_table4(ctx: CellContext) -> dict[str, float]:
    runner = ctx.mem_runner
    runner.ensure((name, config) for name in runner.traces
                  for config in [*TABLE4_CONFIGS, "none"])
    values = {}
    for config in TABLE4_CONFIGS:
        l1_cov, l2_cov, llc_cov, acc = [], [], [], []
        for name in runner.traces:
            result = runner.result(name, config)
            baseline = runner.result(name, "none")
            l1_cov.append(_miss_reduction(result, baseline, "l1"))
            l2_cov.append(_miss_reduction(result, baseline, "l2"))
            llc_cov.append(_miss_reduction(result, baseline, "llc"))
            if result.l1.pf_filled:
                acc.append(result.l1.accuracy)
        count = len(l1_cov)
        values[f"table4.{config}.l1cov"] = sum(l1_cov) / count
        values[f"table4.{config}.l2cov"] = sum(l2_cov) / count
        values[f"table4.{config}.llccov"] = sum(llc_cov) / count
        values[f"table4.{config}.acc"] = (
            sum(acc) / len(acc) if acc else 0.0)
    return values


def _cell_fig1(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean

    placements = {
        "ip_stride": ("ip_stride", "ip_stride_l2"),
        "mlop": ("mlop_l1", "mlop_l2"),
        "bingo": ("bingo_l1", "bingo_l2"),
    }
    runner = ctx.mem_runner
    runner.ensure(
        (name, config)
        for name in runner.traces
        for pair in placements.values()
        for config in [*pair, "none"]
    )
    values = {}
    for label, (l1_config, l2_config) in placements.items():
        at_l1 = runner.speedups(l1_config)
        at_l2 = runner.speedups(l2_config)
        ratios = [at_l1[name] / at_l2[name]
                  for name in runner.traces if at_l2[name] > 0]
        values[f"fig1.{label}"] = geometric_mean(ratios)
    return values


def _cell_fig7(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("fig7", ctx.mem_runner, FIG7_CONFIGS)


def _cell_fig8_mem(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("fig8.mem", ctx.mem_runner, FIG8_CONFIGS)


def _cell_fig8_full(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("fig8.full", ctx.full_runner, FIG8_FULL_CONFIGS)


def _cell_fig9(ctx: CellContext) -> dict[str, float]:
    runner = ctx.mem_runner
    runner.ensure((name, config) for name in runner.traces
                  for config in [*TABLE4_CONFIGS, "none"])
    values = {}
    for config in TABLE4_CONFIGS:
        base_total = with_total = 0.0
        for name in runner.traces:
            base_total += runner.result(name, "none").mpki("l1")
            with_total += runner.result(name, config).mpki("l1")
        values[f"fig9.{config}"] = 1.0 - with_total / base_total
    return values


def _cell_fig10(ctx: CellContext) -> dict[str, float]:
    runner = ctx.mem_runner
    runner.ensure((name, config) for name in runner.traces
                  for config in ("ipcp", "none"))
    values = {}
    accuracies = []
    for name in runner.traces:
        result = runner.result(name, "ipcp")
        baseline = runner.result(name, "none")
        short = name.removesuffix("_like")
        values[f"fig10.{short}.l1"] = _miss_reduction(result, baseline, "l1")
        if result.l1.accuracy > 0:
            accuracies.append(result.l1.accuracy)
    lbm = runner.result("lbm_like", "ipcp")
    lbm_base = runner.result("lbm_like", "none")
    values["fig10.lbm.l2"] = _miss_reduction(lbm, lbm_base, "l2")
    values["fig10.lbm.llc"] = _miss_reduction(lbm, lbm_base, "llc")
    values["fig10.mean_acc"] = sum(accuracies) / len(accuracies)
    return values


def _cell_fig11(ctx: CellContext) -> dict[str, float]:
    runner = ctx.mem_runner
    runner.ensure((name, "ipcp") for name in runner.traces)
    values = {}
    covered_all = []
    for name in runner.traces:
        stats = runner.result(name, "ipcp").l1
        would_be = stats.pf_useful + stats.uncovered_misses
        covered = stats.pf_useful / would_be if would_be else 0.0
        covered_all.append(covered)
        if name in ("fotonik_like", "omnetpp_like"):
            over = stats.pf_unused_evicted / would_be if would_be else 0.0
            short = name.removesuffix("_like")
            values[f"fig11.{short}.covered"] = covered
            values[f"fig11.{short}.uncovered"] = 1.0 - covered
            values[f"fig11.{short}.over"] = over
    values["fig11.min.covered"] = min(covered_all)
    values["fig11.max.covered"] = max(covered_all)
    return values


def _cell_fig12(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import class_contributions

    classes = ("cs", "cplx", "gs", "nl")
    runner = ctx.mem_runner
    runner.ensure((name, "ipcp") for name in runner.traces)
    per_trace = {}
    for name in runner.traces:
        contributions = class_contributions(runner.result(name, "ipcp"))
        per_trace[name] = {c: contributions.get(c, 0.0) for c in classes}
    values = {}
    for name in ("bwaves_like", "wrf_like", "lbm_like", "gcc_like"):
        short = name.removesuffix("_like")
        for cls in classes:
            values[f"fig12.{short}.{cls}"] = per_trace[name][cls]
    for cls in classes:
        values[f"fig12.mean.{cls}"] = (
            sum(shares[cls] for shares in per_trace.values())
            / len(per_trace))
    values["fig12.max.total"] = max(
        sum(shares.values()) for shares in per_trace.values())
    return values


def _cell_fig13a(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("fig13a", ctx.mem_runner, FIG13A_VARIANTS)


def _cell_fig13b(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("fig13b", ctx.mem_runner, FIG13B_ORDERS)


def _cell_fig14a(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean
    from repro.workloads.cloudsuite import (
        CLOUDSUITE_BENCHMARKS,
        cloudsuite_trace,
    )

    mixes = [[cloudsuite_trace(name, SWEEP_SCALE)] * 4
             for name in CLOUDSUITE_BENCHMARKS]
    gains = ctx.mix_gains(
        mixes, MC_CONFIGS, roi=6_000,
        warmup=[max(2_000, len(traces[0]) // 3) for traces in mixes])
    values = {f"fig14a.{config}": geometric_mean(points)
              for config, points in gains.items()}
    values["fig14a.ipcp_min"] = min(gains["ipcp"])
    return values


def _cell_fig14b_single(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("fig14b.sc", ctx.neural_runner, TABLE4_CONFIGS)


def _cell_fig14b_multi(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean
    from repro.workloads.neural import neural_trace

    mixes = [[neural_trace(name, MIX_SCALE)] * 4
             for name in ("vgg19_like", "lstm_like", "resnet50_like")]
    gains = ctx.mix_gains(mixes, MC_CONFIGS, warmup=2_000, roi=6_000)
    return {f"fig14b.mc.{config}": geometric_mean(points)
            for config, points in gains.items()}


def _cell_fig15(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean
    from repro.workloads import heterogeneous_mixes, homogeneous_mix

    homogeneous = ("lbm_like", "fotonik_like", "bwaves_like",
                   "omnetpp_like")
    mixes = [homogeneous_mix(name, 4, scale=MIX_SCALE)
             for name in homogeneous]
    mixes.append(mixes[0] * 2)  # lbm_like on eight cores
    mixes.extend(heterogeneous_mixes(2, 4, scale=MIX_SCALE, seed=31))

    gains = ctx.mix_gains(mixes, MC_CONFIGS, warmup=2_000, roi=8_000)
    values = {}
    for config, points in gains.items():
        values[f"fig15.{config}"] = geometric_mean(points)
        values[f"fig15.min.{config}"] = min(points)
    return values


def _sens_sweep(ctx: CellContext, prefix: str, points: dict
                ) -> dict[str, float]:
    """IPCP's geomean speedup on SENS_TRACES at every swept point."""
    rows = ctx.spec_runner(SENS_TRACES).sweep_table(["ipcp"], points.items())
    return {f"{prefix}.{label}": mean for label, mean in rows}


def _cell_sens_replacement(ctx: CellContext) -> dict[str, float]:
    from repro.analysis import sweep_system

    return _sens_sweep(ctx, "sens.repl", {
        policy: sweep_system(replacement=policy)
        for policy in ("lru", "srrip", "drrip", "ship")})


def _cell_sens_cache(ctx: CellContext) -> dict[str, float]:
    from repro.analysis import sweep_system

    return _sens_sweep(ctx, "sens.cache", {
        "paper": sweep_system(),
        "l1_32k": sweep_system(l1_size=32 * 1024),
        "l2_1m": sweep_system(l2_size=1024 * 1024),
        "llc_4m": sweep_system(llc_size=4 * 1024 * 1024),
        "llc_512k": sweep_system(llc_size=512 * 1024),
    })


def _cell_sens_dram(ctx: CellContext) -> dict[str, float]:
    from repro.analysis import sweep_system

    return _sens_sweep(ctx, "sens.dram", {
        label: sweep_system(dram_bandwidth_gbps=bw)
        for label, bw in (("3_2", 3.2), ("12_8", 12.8), ("25_0", 25.0))})


def _cell_sens_pq_mshr(ctx: CellContext) -> dict[str, float]:
    from repro.analysis import sweep_system
    from repro.stats.metrics import geometric_mean

    runner = ctx.spec_runner(SENS_TRACES)
    points = {f"{pq}_{mshr}": sweep_system(l1_pq=pq, l1_mshr=mshr)
              for pq, mshr in ((2, 4), (4, 8), (8, 16), (16, 32))}
    runner.ensure((name, "ipcp", params) for params in points.values()
                  for name in runner.traces)
    ipcs = {label: geometric_mean([runner.result(name, "ipcp", params).ipc
                                   for name in runner.traces])
            for label, params in points.items()}
    reference = ipcs["8_16"]
    return {f"sens.pq.{label}": value / reference
            for label, value in ipcs.items()}


def _cell_sens_tables(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean

    sizes = {"paper": "ipcp", "x2": "ipcp_tables_2x",
             "x8": "ipcp_tables_8x"}
    runner = ctx.spec_runner((*SENS_TRACES, "cactu_like"))
    runner.ensure((name, config) for name in runner.traces
                  for config in [*sizes.values(), "none"])
    values = {}
    for label, config in sizes.items():
        per_trace = runner.speedups(config)
        values[f"sens.tables.{label}"] = geometric_mean(
            per_trace[name] for name in SENS_TRACES)
        values[f"sens.tables.cactu.{label}"] = geometric_mean(
            [per_trace["cactu_like"]])
    return values


def _cell_abl_throttle(ctx: CellContext) -> dict[str, float]:
    runner = ctx.spec_runner(ABL_TRACES)
    means = ctx.mean_speedups(runner, ["ipcp", "ipcp_no_throttle"])
    return {
        "abl.throttle.on": means["ipcp"],
        "abl.throttle.off": means["ipcp_no_throttle"],
        "abl.throttle.on_traffic": ctx.dram_overhead(runner, "ipcp"),
        "abl.throttle.off_traffic": ctx.dram_overhead(
            runner, "ipcp_no_throttle"),
    }


def _cell_abl_rr(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("abl.rr", ctx.spec_runner(ABL_TRACES), {
        "r8": "ipcp_rr8", "r32": "ipcp", "r128": "ipcp_rr128"})


def _cell_abl_nl(ctx: CellContext) -> dict[str, float]:
    runner = ctx.spec_runner(ABL_TRACES)
    configs = {"off": "ipcp_nl_off", "gated": "ipcp",
               "always": "ipcp_nl_always"}
    means = ctx.mean_speedups(runner, list(configs.values()))
    values = {}
    for label, config in configs.items():
        values[f"abl.nl.{label}"] = means[config]
        values[f"abl.nl.{label}_traffic"] = ctx.dram_overhead(
            runner, config)
    return values


def _cell_abl_cplx(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean

    degrees = {"d1": "ipcp_cplx_deg1", "d2": "ipcp_cplx_deg2",
               "d3": "ipcp", "d4": "ipcp_cplx_deg4",
               "d6": "ipcp_cplx_deg6"}
    runner = ctx.spec_runner(("wrf_like", "mcf_i_like"))
    runner.ensure((name, config) for name in runner.traces
                  for config in [*degrees.values(), "none"])
    values = {}
    for label, config in degrees.items():
        per_trace = runner.speedups(config)
        values[f"abl.cplx.wrf.{label}"] = per_trace["wrf_like"]
        values[f"abl.cplx.mcf.{label}"] = per_trace["mcf_i_like"]
        values[f"abl.cplx.mean.{label}"] = geometric_mean(
            per_trace.values())
    return values


def _cell_abl_gs(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("abl.gs", ctx.spec_runner(GS_TRACES), {
        "d2": "ipcp_gs_deg2", "d4": "ipcp_gs_deg4", "d6": "ipcp",
        "d8": "ipcp_gs_deg8"})


def _cell_abl_traffic(ctx: CellContext) -> dict[str, float]:
    configs = ["ipcp", "spp_ppf_dspatch", "mlop", "tskid"]
    runner = ctx.mem_runner
    means = ctx.mean_speedups(runner, configs)
    values = {}
    for config in configs:
        overhead = ctx.dram_overhead(runner, config)
        values[f"abl.traffic.{config}.overhead"] = overhead
        values[f"abl.traffic.{config}.eff"] = (
            (means[config] - 1.0) / max(overhead, 1e-3))
    return values


def _cell_abl_motivation(ctx: CellContext) -> dict[str, float]:
    from repro.analysis.tracestats import analyze_trace

    classes = ("constant_stride", "complex_stride", "irregular", "singleton")
    profiles = {name: analyze_trace(trace)
                for name, trace in ctx.mem_runner.traces.items()}
    # Each trace's class shares must form a distribution.
    share_error = max(
        abs(sum(profile.class_shares().get(c, 0.0) for c in classes) - 1.0)
        for profile in profiles.values())
    return {
        "abl.motiv.share_error": share_error,
        "abl.motiv.bwaves.const":
            profiles["bwaves_like"].class_shares()["constant_stride"],
        "abl.motiv.wrf.complex":
            profiles["wrf_like"].class_shares()["complex_stride"],
        "abl.motiv.omnetpp.irregular":
            profiles["omnetpp_like"].class_shares()["irregular"],
        "abl.motiv.gcc.dense":
            profiles["gcc_like"].dense_region_fraction,
        "abl.motiv.cactu.ips":
            float(profiles["cactu_like"].distinct_ips),
    }


def _cell_abl_l2_complement(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("abl.l2c", ctx.mem_runner, {
        "none": "ipcp_l1", **L2_COMPLEMENTS, "ipcp_l2": "ipcp"})


def _cell_abl_temporal(ctx: CellContext) -> dict[str, float]:
    from repro.analysis import ExperimentRunner
    from repro.workloads.spec import extension_trace

    loop = extension_trace("temporal_loop_like", 3.0)
    stream = ctx.spec_trace("lbm_like", SWEEP_SCALE)
    runner = ExperimentRunner([loop, stream], runner=ctx.backend)
    runner.ensure((name, config) for name in runner.traces
                  for config in ["none", *TEMPORAL_CONFIGS])
    values = {}
    for config in TEMPORAL_CONFIGS:
        per_trace = runner.speedups(config)
        values[f"abl.temporal.{config}.loop"] = per_trace[loop.name]
        values[f"abl.temporal.{config}.stream"] = per_trace[stream.name]
    values["abl.temporal.best_dedicated"] = max(
        values[f"abl.temporal.{config}.loop"]
        for config in ("isb", "domino", "triage"))
    return values


def _cell_abl_llc(ctx: CellContext) -> dict[str, float]:
    return ctx.speedup_cell("abl.llc", ctx.mem_runner,
                            {"two": "ipcp", "three": "ipcp_llc"})


def _cell_abl_density(ctx: CellContext) -> dict[str, float]:
    from repro.prefetchers import storage_kb

    means = ctx.mean_speedups(ctx.mem_runner, TABLE4_CONFIGS)
    return {f"abl.density.{config}.eff": (means[config] - 1.0)
            / storage_kb(config) for config in TABLE4_CONFIGS}


def _cell_abl_opportunity(ctx: CellContext) -> dict[str, float]:
    from repro.sim.engine import simulate_ideal

    runner = ctx.mem_runner
    runner.ensure((name, config) for name in runner.traces
                  for config in ("ipcp", "none"))
    values = {}
    base_vs_ideal, ipcp_vs_ideal = [], []
    for name, trace in runner.traces.items():
        base = runner.result(name, "none")
        ipcp = runner.result(name, "ipcp")
        ideal_ipc = simulate_ideal(trace)
        base_vs_ideal.append(base.ipc / ideal_ipc)
        ipcp_vs_ideal.append(ipcp.ipc / ideal_ipc)
        if name in ("fotonik_like", "bwaves_like", "omnetpp_like"):
            headroom = ideal_ipc - base.ipc
            captured = ((ipcp.ipc - base.ipc) / headroom
                        if headroom > 1e-6 else 1.0)
            values[f"abl.opp.{name.removesuffix('_like')}"] = captured
    values["abl.opp.max.base_vs_ideal"] = max(base_vs_ideal)
    values["abl.opp.max.ipcp_vs_ideal"] = max(ipcp_vs_ideal)
    return values


def _cell_abl_pathological(ctx: CellContext) -> dict[str, float]:
    traces = [ctx.spec_trace(name, MIX_SCALE) for name in (
        "mcf_r_like", "mcf_i_like", "mcf_994_like", "omnetpp_like")]
    gains = ctx.mix_gains([traces], MC_CONFIGS, warmup=2_000, roi=8_000)
    return {f"abl.path.{config}": nws for config, (nws,) in gains.items()}


def _cell_abl_mixdist(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean
    from repro.workloads import heterogeneous_mixes

    mixes = (
        heterogeneous_mixes(6, 4, scale=MIXDIST_SCALE, seed=101)
        + heterogeneous_mixes(6, 4, memory_intensive_only=True,
                              scale=MIXDIST_SCALE, seed=202)
    )
    gains = ctx.mix_gains(mixes, ["ipcp", "mlop"], warmup=1_500, roi=6_000)
    return {
        "abl.mixdist.ipcp.geomean": geometric_mean(gains["ipcp"]),
        "abl.mixdist.ipcp.min": min(gains["ipcp"]),
        "abl.mixdist.ipcp.max": max(gains["ipcp"]),
        "abl.mixdist.ipcp.wins": float(
            sum(1 for value in gains["ipcp"] if value > 1.0)),
        "abl.mixdist.mlop.geomean": geometric_mean(gains["mlop"]),
    }


def _cell_mix_suite(ctx: CellContext) -> dict[str, float]:
    from repro.stats.metrics import geometric_mean
    from repro.workloads import graded_suite

    suite = graded_suite(scale=MIXDIST_SCALE)
    # Normalized weighted speedup of every bouquet variant and rival on
    # every mix, plus the gradient that orders the suite: mean
    # single-core L1 MPKI of each mix's four traces with no prefetching.
    gains = ctx.mix_gains(list(suite.values()), MIX_SUITE_CONFIGS,
                          warmup=1_500, roi=6_000, mpki=True)
    values = {f"mix.mpki.{mix}": mpki
              for mix, mpki in zip(suite, gains.pop("mpki"))}
    for index, mix in enumerate(suite):
        for config in MIX_SUITE_CONFIGS:
            values[f"mix.nws.{mix}.{config}"] = gains[config][index]
    for config, points in gains.items():
        values[f"mix.geo.{config}"] = geometric_mean(points)
        values[f"mix.min.{config}"] = min(points)
    return values


#: Frontend (instruction-side) suite scale and configurations.  The
#: frontend model is its own in-process engine with no job kind, so the
#: cell computes directly rather than through the shared backend.
FRONTEND_SCALE = 0.5
FRONTEND_CONFIGS = ["next_line_i", "mana_lite", "ipcp_i",
                    "ipcp_i_tlb_blind"]


def _cell_frontend(ctx: CellContext) -> dict[str, float]:
    from repro.frontend import make_frontend_prefetcher, simulate_frontend
    from repro.stats.metrics import geometric_mean
    from repro.workloads import frontend_suite

    values: dict[str, float] = {}
    speedups: dict[str, list[float]] = {c: [] for c in FRONTEND_CONFIGS}
    walks: dict[str, list[float]] = {"ipcp_i": [], "ipcp_i_tlb_blind": []}
    mpkis: list[float] = []
    coverages: list[float] = []
    for trace in frontend_suite(scale=FRONTEND_SCALE):
        baseline = simulate_frontend(trace)
        values[f"fe.mpki.{trace.name}"] = baseline.l1i_mpki
        mpkis.append(baseline.l1i_mpki)
        for config in FRONTEND_CONFIGS:
            result = simulate_frontend(
                trace, make_frontend_prefetcher(config))
            speedup = result.speedup_over(baseline)
            values[f"fe.speedup.{trace.name}.{config}"] = speedup
            speedups[config].append(speedup)
            if config == "ipcp_i":
                coverages.append(result.coverage_over(baseline))
            if config in walks:
                # Demand walks are the ones on the fetch critical
                # path; the aware policy trades them for speculative
                # prefetch-triggered walks (tracked separately).
                walks[config].append(result.walks_pki)
                if config == "ipcp_i":
                    values.setdefault("fe.pfwalks.ipcp_i", 0.0)
                    values["fe.pfwalks.ipcp_i"] += (
                        result.prefetch_walks * 250.0
                        / result.instructions)
    for config, points in speedups.items():
        values[f"fe.geo.{config}"] = geometric_mean(points)
    values["fe.mpki.geo"] = geometric_mean(mpkis)
    values["fe.cov.ipcp_i"] = sum(coverages) / len(coverages)
    for config, points in walks.items():
        values[f"fe.walks.{config}"] = sum(points) / len(points)
    return values


# --------------------------------------------------------------------- #
# Claims: one per EXPERIMENTS.md row, predicates over its cells' values.
# --------------------------------------------------------------------- #

def _fig7_rivals() -> tuple[str, ...]:
    return tuple(f"fig7.{config}" for config in FIG7_CONFIGS
                 if config not in ("ipcp_l1", "bingo_l1_119kb"))


CLAIMS = [
    Claim(
        id="table1-storage", section="tables",
        title="Table I: IPCP storage overhead",
        paper="740 B (L1) + 155 B (L2) = 895 B, bit-exact",
        cells=(_cell_table1,),
        predicates=(
            Band("table1.l1_table_bits", lo=5800, hi=5800),
            Band("table1.l1_other_bits", lo=113, hi=113),
            Band("table1.l1_bytes", lo=740, hi=740),
            Band("table1.l2_bytes", lo=155, hi=155),
            Band("table1.total_bytes", lo=895, hi=895),
        ),
    ),
    Claim(
        id="table2-system", section="tables",
        title="Table II: system configuration",
        paper="4 GHz 4-wide 256-ROB; 48 KB/512 KB/2 MB caches; "
              "DTLB 64 / STLB 1536; 12.8 GB/s DRAM",
        cells=(_cell_table2,),
        predicates=(
            Band("table2.width", lo=4, hi=4),
            Band("table2.rob", lo=256, hi=256),
            Band("table2.l1_kb", lo=48, hi=48),
            Band("table2.l1_pq", lo=8, hi=8),
            Band("table2.l1_mshr", lo=16, hi=16),
            Band("table2.l2_kb", lo=512, hi=512),
            Band("table2.llc_kb", lo=2048, hi=2048),
            Band("table2.dtlb", lo=64, hi=64),
            Band("table2.stlb", lo=1536, hi=1536),
            Band("table2.dram_gbps", lo=12.8, hi=12.8),
            Band("table2.ghz", lo=4.0, hi=4.0),
        ),
    ),
    Claim(
        id="table3-storage-gap", section="tables",
        title="Table III: 30-50x storage gap",
        paper="IPCP 895 B vs Bingo ~48 KB / T-SKID ~58 KB (>30x); "
              "SPP stack and MLOP in between",
        cells=(_cell_table3,),
        predicates=(
            Band("table3.ipcp.kb", hi=895 / 1024),
            RatioBand("table3.bingo.kb", "table3.ipcp.kb", lo=30),
            RatioBand("table3.tskid.kb", "table3.ipcp.kb", lo=30),
            RatioBand("table3.spp_ppf_dspatch.kb", "table3.ipcp.kb",
                      lo=10),
            RatioBand("table3.mlop.kb", "table3.ipcp.kb", lo=5),
        ),
    ),
    Claim(
        id="table4-coverage-accuracy", section="tables",
        title="Table IV: coverage and accuracy",
        paper="IPCP: 0.60/0.79/0.83 coverage at L1/L2/LLC, 0.80 L1 "
              "accuracy; near the top of the pack at the L1",
        cells=(_cell_table4,),
        predicates=(
            Band("table4.ipcp.acc", lo=0.6),
            Band("table4.ipcp.l1cov", lo=0.3),
            Leader("table4.ipcp.l1cov",
                   tuple(f"table4.{c}.l1cov" for c in TABLE4_CONFIGS
                         if c != "ipcp"),
                   margin=0.10),
        ) + tuple(
            Band(f"table4.{config}.{metric}", lo=0.0, hi=1.0)
            for config in TABLE4_CONFIGS
            for metric in ("l1cov", "l2cov", "llccov", "acc")
        ),
    ),
    Claim(
        id="fig1-l1-placement", section="figures",
        title="Fig. 1: L1 vs L2 placement",
        paper="L1 placement is worth +6-13% on average (weakened on our "
              "substrate: within noise everywhere, a real win somewhere "
              "- deviation D1)",
        cells=(_cell_fig1,),
        predicates=(
            Band("fig1.ip_stride", lo=0.96),
            Band("fig1.mlop", lo=0.96),
            Band("fig1.bingo", lo=0.96),
            Best(("fig1.ip_stride", "fig1.mlop", "fig1.bingo"), lo=1.02),
        ),
    ),
    Claim(
        id="fig7-l1-comparison", section="figures",
        title="Fig. 7: L1-only comparison",
        paper="IPCP beats every same-budget L1 rival (Bingo-119KB "
              "exempt); gains are material",
        cells=(_cell_fig7,),
        predicates=(
            Leader("fig7.ipcp_l1", _fig7_rivals(), margin=0.02),
            Band("fig7.ipcp_l1", lo=1.15),
            DeltaBand("fig7.ipcp_l1", "fig7.next_line", lo=0),
        ) + tuple(
            # Nothing behaves absurdly.
            Band(f"fig7.{config}", lo=0.5, hi=3.0)
            for config in FIG7_CONFIGS
        ),
    ),
    Claim(
        id="fig8-multilevel", section="figures",
        title="Fig. 8: multi-level speedups (memory-intensive)",
        paper="IPCP 1.451 leads all rivals; DOL trails (Section V-A)",
        cells=(_cell_fig8_mem,),
        predicates=(
            Leader("fig8.mem.ipcp",
                   tuple(f"fig8.mem.{c}" for c in FIG8_CONFIGS
                         if c != "ipcp")),
            Band("fig8.mem.ipcp", lo=1.2),
            DeltaBand("fig8.mem.dol", "fig8.mem.ipcp", hi=-0.05),
        ),
    ),
    Claim(
        id="fig8-full-suite", section="figures",
        title="Fig. 8 companion: full-suite averages",
        paper="IPCP 1.22 vs rivals 1.182-1.188 on the full suite",
        cells=(_cell_fig8_full,),
        predicates=(
            Leader("fig8.full.ipcp",
                   ("fig8.full.mlop", "fig8.full.tskid")),
            Band("fig8.full.ipcp", lo=1.05, hi=1.6),
        ),
    ),
    Claim(
        id="fig9-mpki", section="figures",
        title="Fig. 9: demand-MPKI reduction",
        paper="every combination cuts aggregate L1 demand MPKI; IPCP "
              "among the strongest",
        cells=(_cell_fig9,),
        predicates=tuple(
            Band(f"fig9.{config}", lo=0.0) for config in TABLE4_CONFIGS
        ) + (
            Leader("fig9.ipcp",
                   tuple(f"fig9.{c}" for c in TABLE4_CONFIGS
                         if c != "ipcp"),
                   margin=0.10),
            Band("fig9.ipcp", lo=0.3),
        ),
    ),
    Claim(
        id="fig10-coverage", section="figures",
        title="Fig. 10: IPCP coverage per level",
        paper="60/79.5/83% coverage at L1/L2/LLC; ~zero on "
              "mcf/omnetpp/cactusBSSN-style traces",
        cells=(_cell_fig10,),
        predicates=(
            Band("fig10.bwaves.l1", lo=0.5),
            Band("fig10.fotonik.l1", lo=0.5),
            Band("fig10.gcc.l1", lo=0.5),
            Band("fig10.mcf_r.l1", lo=0.5),
            Band("fig10.omnetpp.l1", hi=0.2),
            Band("fig10.cactu.l1", hi=0.2),
            Band("fig10.mean_acc", lo=0.6),
        ),
    ),
    Claim(
        id="fig11-overprediction", section="figures",
        title="Fig. 11: covered / uncovered / over-predicted",
        paper="streaming traces mostly covered with modest "
              "over-prediction; irregular traces mostly uncovered",
        cells=(_cell_fig11,),
        predicates=(
            Band("fig11.fotonik.covered", lo=0.7),
            Band("fig11.fotonik.over", hi=0.3),
            Band("fig11.omnetpp.uncovered", lo=0.8),
            Band("fig11.min.covered", lo=0.0),
            Band("fig11.max.covered", hi=1.0),
        ),
    ),
    Claim(
        id="fig12-class-mix", section="figures",
        title="Fig. 12: per-class contribution",
        paper="CS 46.7% and GS 30% of covered misses on average; "
              "per-trace attribution follows the access pattern",
        cells=(_cell_fig12,),
        predicates=(
            Band("fig12.bwaves.cs", lo=0.5),
            Band("fig12.wrf.cplx", lo=0.5),
            Band("fig12.lbm.gs", lo=0.5),
            Band("fig12.gcc.gs", lo=0.5),
            Band("fig12.mean.cs", lo=0.15),
            Band("fig12.mean.gs", lo=0.15),
            Band("fig12.max.total", hi=1.0 + 1e-9),
        ),
    ),
    Claim(
        id="fig13a-class-utility", section="figures",
        title="Fig. 13a: class utility",
        paper="classes are positive alone; adding classes never hurts; "
              "the full L1+L2 bouquet is the best variant",
        cells=(_cell_fig13a,),
        predicates=(
            Band("fig13a.cs_only", lo=1.05),
            Band("fig13a.gs_only", lo=1.0),
            DeltaBand("fig13a.cs_cplx", "fig13a.cs_only", lo=-0.02),
            DeltaBand("fig13a.bouquet_l1", "fig13a.cs_cplx", lo=-0.02),
            Leader("fig13a.bouquet_l1_l2",
                   tuple(f"fig13a.{label}" for label in FIG13A_VARIANTS
                         if label != "bouquet_l1_l2")),
            DeltaBand("fig13a.bouquet_l1_l2", "fig13a.bouquet_l1",
                      lo=1e-9),
        ),
    ),
    Claim(
        id="fig13a-metadata", section="figures",
        title="Fig. 13a: the metadata channel pays",
        paper="removing the L1->L2 metadata channel costs ~3.1%",
        cells=(_cell_fig13a,),
        predicates=(
            DeltaBand("fig13a.bouquet_l1_l2", "fig13a.no_meta",
                      lo=0.005),
        ),
    ),
    Claim(
        id="fig13b-priority", section="figures",
        title="Fig. 13b: class priority order",
        paper="GS-first (the paper's order) is best or tied-best; "
              "demoting the spatial classes costs up to ~9%",
        cells=(_cell_fig13b,),
        predicates=(
            Leader("fig13b.gs_first",
                   ("fig13b.cs_first", "fig13b.cplx_first",
                    "fig13b.nl_first"),
                   margin=0.01),
            DeltaBand("fig13b.gs_first", "fig13b.nl_first", lo=-1e-9),
        ),
    ),
    Claim(
        id="fig14a-cloudsuite", section="figures",
        title="Fig. 14a: CloudSuite 4-core mixes",
        paper="spatial prefetchers are ~flat on server workloads; "
              "IPCP's throttling keeps it pinned near 1.0",
        cells=(_cell_fig14a,),
        predicates=(
            Band("fig14a.ipcp", lo=0.9, hi=1.15),
            Band("fig14a.ipcp_min", lo=0.85),
            Band("fig14a.mlop", lo=0.7, hi=1.15),
            Band("fig14a.bingo", lo=0.7, hi=1.15),
        ),
    ),
    Claim(
        id="fig14b-neural", section="figures",
        title="Fig. 14b: CNN/RNN kernels",
        paper="streaming NN kernels favour IPCP, single-core and in "
              "4-core mixes",
        cells=(_cell_fig14b_single, _cell_fig14b_multi,),
        predicates=(
            Leader("fig14b.sc.ipcp",
                   tuple(f"fig14b.sc.{c}" for c in TABLE4_CONFIGS
                         if c != "ipcp"),
                   margin=0.02),
            Band("fig14b.sc.ipcp", lo=1.15),
            Leader("fig14b.mc.ipcp",
                   ("fig14b.mc.mlop", "fig14b.mc.bingo"), margin=0.02),
            Band("fig14b.mc.ipcp", lo=1.02),
        ),
    ),
    Claim(
        id="fig15-multicore", section="figures",
        title="Fig. 15: multicore summary",
        paper="IPCP 1.234 leads Bingo 1.209 / MLOP 1.200; its worst "
              "mix degrades least (coordinated throttling)",
        cells=(_cell_fig15,),
        predicates=(
            Leader("fig15.ipcp", ("fig15.mlop", "fig15.bingo"),
                   margin=0.02),
            Band("fig15.ipcp", lo=1.05),
            Band("fig15.min.ipcp", lo=0.9),
            Band("fig15.min.mlop", lo=0.5),
            Band("fig15.min.bingo", lo=0.5),
        ),
    ),
    Claim(
        id="sens-replacement", section="sensitivity",
        title="Sensitivity: LLC replacement policy",
        paper="<1% swing across LRU/SRRIP/DRRIP/SHiP",
        cells=(_cell_sens_replacement,),
        predicates=(
            Spread(("sens.repl.lru", "sens.repl.srrip",
                    "sens.repl.drrip", "sens.repl.ship"), hi=0.08),
            Band("sens.repl.lru", lo=1.1),
            Band("sens.repl.srrip", lo=1.1),
            Band("sens.repl.drrip", lo=1.1),
            Band("sens.repl.ship", lo=1.1),
        ),
    ),
    Claim(
        id="sens-cache-sizes", section="sensitivity",
        title="Sensitivity: cache sizes",
        paper="<=1.05% difference across size combinations",
        cells=(_cell_sens_cache,),
        predicates=(
            Spread(("sens.cache.paper", "sens.cache.l1_32k",
                    "sens.cache.l2_1m", "sens.cache.llc_4m",
                    "sens.cache.llc_512k"), hi=0.15),
            Band("sens.cache.paper", lo=1.1),
            Band("sens.cache.l1_32k", lo=1.1),
            Band("sens.cache.l2_1m", lo=1.1),
            Band("sens.cache.llc_4m", lo=1.1),
            Band("sens.cache.llc_512k", lo=1.1),
        ),
    ),
    Claim(
        id="sens-dram-bandwidth", section="sensitivity",
        title="Sensitivity: DRAM bandwidth",
        paper="prefetchers degrade at 3.2 GB/s and improve at 25 GB/s "
              "(monotone in bandwidth)",
        cells=(_cell_sens_dram,),
        predicates=(
            Monotonic(("sens.dram.3_2", "sens.dram.12_8",
                       "sens.dram.25_0")),
            Band("sens.dram.3_2", lo=0.9),
        ),
    ),
    Claim(
        id="sens-pq-mshr", section="sensitivity",
        title="Sensitivity: L1 PQ/MSHR budgets",
        paper="(2,4) costs 2.7% vs the (8,16) pair; more resources "
              "change little",
        cells=(_cell_sens_pq_mshr,),
        predicates=(
            Band("sens.pq.2_4", hi=1.02),
            Band("sens.pq.16_32", lo=0.97),
        ),
    ),
    Claim(
        id="sens-table-sizes", section="sensitivity",
        title="Sensitivity: IPCP table sizes",
        paper="2-100x bigger tables buy ~0.7% on average but do help "
              "cactusBSSN-style IP-table thrash",
        cells=(_cell_sens_tables,),
        predicates=(
            DeltaBand("sens.tables.x8", "sens.tables.paper",
                      lo=-0.08, hi=0.08),
            DeltaBand("sens.tables.cactu.x8", "sens.tables.cactu.paper",
                      lo=-0.02),
        ),
    ),
    Claim(
        id="abl-throttling", section="ablations",
        title="Ablation: coordinated throttling",
        paper="throttling must not cost speedup while containing "
              "traffic",
        cells=(_cell_abl_throttle,),
        predicates=(
            DeltaBand("abl.throttle.on", "abl.throttle.off", lo=-0.03),
            DeltaBand("abl.throttle.on_traffic",
                      "abl.throttle.off_traffic", hi=0.05),
        ),
    ),
    Claim(
        id="abl-rr-filter", section="ablations",
        title="Ablation: RR filter size",
        paper="the 32-entry design point is within noise of the best",
        cells=(_cell_abl_rr,),
        predicates=(
            Leader("abl.rr.r32", ("abl.rr.r8", "abl.rr.r128"),
                   margin=0.05),
        ),
    ),
    Claim(
        id="abl-nl-gate", section="ablations",
        title="Ablation: tentative-NL MPKI gate",
        paper="always-on NL floods DRAM; the MPKI gate contains the "
              "traffic at negligible speedup cost",
        cells=(_cell_abl_nl,),
        predicates=(
            DeltaBand("abl.nl.gated_traffic", "abl.nl.always_traffic",
                      hi=0.02),
            DeltaBand("abl.nl.always_traffic", "abl.nl.gated_traffic",
                      lo=0.05),
            Leader("abl.nl.gated", ("abl.nl.off", "abl.nl.always"),
                   margin=0.05),
        ),
    ),
    Claim(
        id="abl-cplx-degree", section="ablations",
        title="Ablation: CPLX degree",
        paper="degree 3 is the coverage/accuracy sweet-spot; deeper "
              "CPLX hurts high-MPKI traces",
        cells=(_cell_abl_cplx,),
        predicates=(
            Leader("abl.cplx.mean.d3",
                   ("abl.cplx.mean.d1", "abl.cplx.mean.d2",
                    "abl.cplx.mean.d4", "abl.cplx.mean.d6"),
                   margin=0.05),
            DeltaBand("abl.cplx.mean.d3", "abl.cplx.mean.d1", lo=-0.02),
            DeltaBand("abl.cplx.mcf.d6", "abl.cplx.mcf.d3", hi=0.05),
        ),
    ),
    Claim(
        id="abl-gs-degree", section="ablations",
        title="Ablation: GS degree",
        paper="degree 6 (the default) beats timid degree 2 on streams "
              "and sits at or near the sweep's best",
        cells=(_cell_abl_gs,),
        predicates=(
            DeltaBand("abl.gs.d6", "abl.gs.d2", lo=1e-9),
            Leader("abl.gs.d6", ("abl.gs.d2", "abl.gs.d4", "abl.gs.d8"),
                   margin=0.05),
        ),
    ),
    Claim(
        id="abl-dram-traffic", section="ablations",
        title="DRAM traffic cost of prefetching",
        paper="IPCP buys its speedup with the least traffic per unit "
              "of gain (paper: +16.1% vs 28-38% for rivals)",
        cells=(_cell_abl_traffic, _cell_fig8_mem,),
        predicates=(
            Band("abl.traffic.ipcp.overhead", hi=0.35),
            Leader("abl.traffic.ipcp.eff",
                   ("abl.traffic.spp_ppf_dspatch.eff",
                    "abl.traffic.mlop.eff")),
            Leader("fig8.mem.ipcp",
                   ("fig8.mem.spp_ppf_dspatch", "fig8.mem.mlop",
                    "fig8.mem.tskid")),
        ),
    ),
    Claim(
        id="abl-motivation", section="ablations",
        title="Section III: classifiable per-IP behaviour",
        paper="bwaves strides constantly, wrf strides complexly, "
              "omnetpp chases pointers, gcc streams densely, "
              "cactusBSSN defeats a 64-entry IP table",
        cells=(_cell_abl_motivation,),
        predicates=(
            Band("abl.motiv.bwaves.const", lo=0.6),
            Band("abl.motiv.wrf.complex", lo=0.6),
            Band("abl.motiv.omnetpp.irregular", lo=0.4),
            Band("abl.motiv.gcc.dense", lo=0.7),
            Band("abl.motiv.cactu.ips", lo=257),
            Band("abl.motiv.share_error", hi=1e-6),
        ),
    ),
    Claim(
        id="abl-l2-complement", section="ablations",
        title="Section VI-B1: L2 prefetchers under a strong L1",
        paper="generic L2 prefetchers add <1.7% on top of IPCP-L1; the "
              "metadata-driven IPCP-L2 is the best companion",
        cells=(_cell_abl_l2_complement,),
        predicates=tuple(
            DeltaBand(f"abl.l2c.{label}", "abl.l2c.none",
                      lo=-0.12, hi=0.12)
            for label in L2_COMPLEMENTS
        ) + (
            Leader("abl.l2c.ipcp_l2",
                   tuple(f"abl.l2c.{label}" for label in L2_COMPLEMENTS)
                   + ("abl.l2c.none",),
                   margin=0.02),
            DeltaBand("abl.l2c.ipcp_l2", "abl.l2c.none", lo=1e-9),
        ),
    ),
    Claim(
        id="abl-temporal", section="ablations",
        title="Future work: a temporal class",
        paper="plain IPCP is blind to a recurring irregular loop; "
              "IPCP+TS covers it in the dedicated-prefetcher league "
              "without regressing streams",
        cells=(_cell_abl_temporal,),
        predicates=(
            Band("abl.temporal.ipcp.loop", hi=1.1),
            DeltaBand("abl.temporal.ipcp_temporal.loop",
                      "abl.temporal.ipcp.loop", lo=0.08),
            DeltaBand("abl.temporal.ipcp_temporal.loop",
                      "abl.temporal.best_dedicated", lo=-0.15),
            DeltaBand("abl.temporal.ipcp_temporal.stream",
                      "abl.temporal.ipcp.stream", lo=-0.05),
        ),
    ),
    Claim(
        id="abl-llc", section="ablations",
        title="Section V: IPCP at the LLC",
        paper='"no considerable benefit" from a third IPCP level',
        cells=(_cell_abl_llc,),
        predicates=(
            DeltaBand("abl.llc.three", "abl.llc.two",
                      lo=-0.03, hi=0.03),
        ),
    ),
    Claim(
        id="abl-density", section="ablations",
        title="Abstract: performance density",
        paper="best speedup at the least storage; gain-per-KB an order "
              "of magnitude beyond every rival",
        cells=(_cell_abl_density, _cell_fig8_mem, _cell_table3),
        predicates=(
            Leader("fig8.mem.ipcp",
                   tuple(f"fig8.mem.{c}" for c in TABLE4_CONFIGS
                         if c != "ipcp")),
            RatioBand("table3.bingo.kb", "table3.ipcp.kb", lo=30),
            RatioBand("table3.tskid.kb", "table3.ipcp.kb", lo=30),
            RatioBand("table3.spp_ppf_dspatch.kb", "table3.ipcp.kb", lo=8),
            RatioBand("table3.mlop.kb", "table3.ipcp.kb", lo=1),
            # Sign-safe vs rivals whose gain-per-KB can go negative:
            # ipcp must exceed 10 x the BEST rival density.
            ScaledLeader("abl.density.ipcp.eff",
                         tuple(f"abl.density.{c}.eff"
                               for c in TABLE4_CONFIGS if c != "ipcp"),
                         factor=10),
        ),
    ),
    Claim(
        id="abl-opportunity", section="ablations",
        title="Section I: the ideal-L1 opportunity",
        paper="IPCP captures a meaningful share of the perfect-L1 "
              "headroom on streams, ~none on pointer chasing",
        cells=(_cell_abl_opportunity,),
        predicates=(
            Band("abl.opp.fotonik", lo=0.25),
            Band("abl.opp.bwaves", lo=0.25),
            Band("abl.opp.omnetpp", hi=0.1),
            # The bound is a bound: no trace beats its ideal-L1 IPC.
            Band("abl.opp.max.base_vs_ideal", hi=1.02),
            Band("abl.opp.max.ipcp_vs_ideal", hi=1.02),
        ),
    ),
    Claim(
        id="abl-pathological-mix", section="ablations",
        title="Section VI-D: the all-mcf mix",
        paper="rivals lose 50-70% on the all-mcf mix; IPCP degrades "
              "only ~9% thanks to coordinated throttling",
        cells=(_cell_abl_pathological,),
        predicates=(
            Band("abl.path.ipcp", lo=0.9),
            Leader("abl.path.ipcp",
                   ("abl.path.mlop", "abl.path.bingo"), margin=0.02),
        ),
    ),
    Claim(
        id="abl-mix-distribution", section="ablations",
        title="Section VI-D: heterogeneous-mix distribution",
        paper="across seeded 4-core mixes IPCP's mean gain leads, its "
              "worst mix is bounded, and it wins most mixes",
        cells=(_cell_abl_mixdist,),
        predicates=(
            DeltaBand("abl.mixdist.ipcp.geomean",
                      "abl.mixdist.mlop.geomean", lo=-0.01),
            Band("abl.mixdist.ipcp.geomean", lo=1.02),
            Band("abl.mixdist.ipcp.min", lo=0.85),
            Band("abl.mixdist.ipcp.wins", lo=7),
        ),
    ),
    Claim(
        id="mix-mpki-gradient", section="mixes",
        title="Graded suite: the mix1-mix7 MPKI gradient",
        paper="beyond the paper: the graded four-core suite spans "
              "cache-resident codes to pointer-chasing graph "
              "traversals; baseline single-core L1 MPKI must rise "
              "monotonically mix1 -> mix7",
        cells=(_cell_mix_suite,),
        predicates=(
            Monotonic(tuple(f"mix.mpki.mix{i}" for i in range(1, 8))),
            Band("mix.mpki.mix1", hi=18.0),
            Band("mix.mpki.mix7", lo=120.0),
            RatioBand("mix.mpki.mix7", "mix.mpki.mix1", lo=5.0),
        ),
    ),
    Claim(
        id="mix-weighted-speedup", section="mixes",
        title="Graded suite: weighted-speedup leader",
        paper="the full L1+L2 bouquet leads every partial variant and "
              "rival on geomean normalized weighted speedup across the "
              "gradient, and its worst mix degrades least (the "
              "Section VI-D throttling mechanism)",
        cells=(_cell_mix_suite,),
        predicates=(
            Leader("mix.geo.ipcp",
                   tuple(f"mix.geo.{c}" for c in MIX_SUITE_CONFIGS
                         if c != "ipcp"),
                   margin=0.05),
            Band("mix.geo.ipcp", lo=1.1),
            Band("mix.min.ipcp", lo=0.9),
            DeltaBand("mix.min.ipcp", "mix.min.mlop", lo=0),
            DeltaBand("mix.min.ipcp", "mix.min.bingo", lo=0),
        ),
    ),
    Claim(
        id="mix-gradient-ordering", section="mixes",
        title="Graded suite: gains track the gradient",
        paper="prefetching pays most mid-gradient (streaming mixes) "
              "and least at the ends: cache-resident mix1 offers "
              "little to cover, irregular mix7 defeats the spatial "
              "classes — yet IPCP still degrades least there",
        cells=(_cell_mix_suite,),
        predicates=(
            DeltaBand("mix.nws.mix4.ipcp", "mix.nws.mix1.ipcp", lo=0),
            DeltaBand("mix.nws.mix4.ipcp", "mix.nws.mix7.ipcp", lo=0),
            Band("mix.nws.mix4.ipcp", lo=1.5),
            Band("mix.nws.mix7.ipcp", lo=0.9, hi=1.1),
            DeltaBand("mix.nws.mix7.ipcp", "mix.nws.mix7.mlop", lo=0),
            DeltaBand("mix.nws.mix7.ipcp", "mix.nws.mix7.bingo", lo=0),
        ),
    ),
    Claim(
        id="fe-frontend-bound-suite", section="frontend",
        title="Frontend suite: instruction-miss-bound by construction",
        paper="beyond the paper: the four fetch-directed traces "
              "(microservice call chains, page-aligned RPC fan-out, "
              "bytecode dispatch, cold start) stay frontend-bound — "
              "baseline L1-I MPKI in the double digits, the regime "
              "MANA targets",
        cells=(_cell_frontend,),
        predicates=(
            Band("fe.mpki.geo", lo=15.0, hi=60.0),
            Band("fe.mpki.microservice_like", lo=8.0),
            Band("fe.mpki.fanout_rpc_like", lo=30.0),
            Band("fe.mpki.coldstart_like", lo=15.0),
        ),
    ),
    Claim(
        id="fe-ipcp-i-leader", section="frontend",
        title="IPCP-I: the bouquet wins on the instruction stream",
        paper="beyond the paper: retargeting the IP-classifier bouquet "
              "at fetch blocks (GS-I/CS-I/CPLX-I/NL-I) beats both "
              "next-line and bounded record-and-replay on geomean "
              "fetch speedup, with majority miss coverage",
        cells=(_cell_frontend,),
        predicates=(
            Leader("fe.geo.ipcp_i",
                   ("fe.geo.next_line_i", "fe.geo.mana_lite"),
                   margin=0.02),
            Band("fe.geo.ipcp_i", lo=1.30, hi=1.70),
            DeltaBand("fe.geo.ipcp_i", "fe.geo.next_line_i", lo=0.05),
            Band("fe.cov.ipcp_i", lo=0.50),
        ),
    ),
    Claim(
        id="fe-tlb-ablation", section="frontend",
        title="ITLB policy: aware beats blind",
        paper="beyond the paper: letting IPCP-I cross pages (with "
              "prefetch-triggered ITLB fills) beats the page-contained "
              "blind variant on every trace, and moves translation "
              "work off the demand path — blind demand-walks more",
        cells=(_cell_frontend,),
        predicates=(
            DeltaBand("fe.geo.ipcp_i", "fe.geo.ipcp_i_tlb_blind",
                      lo=0.005),
            DeltaBand("fe.walks.ipcp_i_tlb_blind", "fe.walks.ipcp_i", lo=0),
            DeltaBand("fe.speedup.coldstart_like.ipcp_i",
                      "fe.speedup.coldstart_like.ipcp_i_tlb_blind", lo=0),
        ),
    ),
    Claim(
        id="fe-mana-replay-gap", section="frontend",
        title="MANA-lite: replay helps only where paths repeat",
        paper="beyond the paper: bounded record-and-replay recovers "
              "part of the repeating-dispatch traces but cannot touch "
              "cold code — its geomean stays close to 1.0 while the "
              "bouquet streams ahead",
        cells=(_cell_frontend,),
        predicates=(
            Band("fe.geo.mana_lite", lo=1.00, hi=1.20),
            DeltaBand("fe.geo.ipcp_i", "fe.geo.mana_lite", lo=0),
            Band("fe.speedup.interpreter_like.mana_lite", lo=1.05),
            Band("fe.speedup.coldstart_like.mana_lite", hi=1.10),
        ),
    ),
]

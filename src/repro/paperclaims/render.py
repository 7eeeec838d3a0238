"""Regenerate EXPERIMENTS.md from a claim run.

The doc is a *build artifact*: every Measured column and every verdict
is formatted from the live values a :class:`~repro.paperclaims.cells.
ClaimEngine` run produced, with fixed float formats and no timestamps,
so regenerating on the same tree is byte-identical (CI asserts this).
Static prose (header, deviation notes, reproduction commands) lives
here as constants; measured numbers never do.
"""

from __future__ import annotations

from repro.paperclaims.cells import EngineReport

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, the claim that
checks it, the paper's reported numbers, and ours.  Our substrate is a
simplified lazy-event simulator running **synthetic** traces
(DESIGN.md §3), so absolute values are not expected to match; the
verdict column records whether the paper's *qualitative* claim — who
wins, by roughly what factor, where the crossovers are — survives.

**This file is generated.**  Every measured number below comes from
the machine-checked claim registry (`repro.paperclaims`): run
`repro paper --write` to regenerate it, `repro paper --check` to
verify that no claim has flipped and the committed doc matches the
live results byte for byte.

Suite sizes differ: the paper runs 46 memory-intensive / 98 total SPEC
CPU 2017 sim-point traces of 200 M instructions; we run {mem_traces}
memory-intensive / {all_traces} total synthetic traces (several
benchmarks have multiple sim-point-style variants, as in the paper) of
~35-90 k instructions each, at the claim-harness scales (suite 0.5,
sweeps 0.4, mixes 0.25/0.2).
"""

_DEVIATIONS = """\
## Known deviations

* **D1 (Fig. 1)** — Our synthetic traces miss each line exactly once in
  order, so the L2 sees an unusually *clean* stream; the paper's main
  L1-placement advantage (noisy filtered training at the L2) mostly
  vanishes.  L1 placement stays within noise of L2 everywhere and ahead
  for at least one prefetcher (the `fig1-l1-placement` claim).
* **D2 (SPP at L1)** — SPP-lite ties IPCP at the L1 instead of trailing:
  clean per-page deltas are SPP's best case, and the L1-resource
  pressure that hurts real SPP (lookahead bursts vs. PQ 8) only
  partially reproduces at our trace lengths.
* **D3 (Bingo/SMS/DSPatch strength)** — footprint-replay prefetchers
  are timeliness-bound here: a 2 KB region is consumed in roughly one
  DRAM round-trip, so their (correct) replays arrive late.  They keep
  their relative family ordering but sit lower than in the paper; at
  DPC-3 scale they would train/retire generations across far more
  regions.  The paper itself reports Bingo fading in the multi-level
  single-core setting, which we do reproduce.
* **D4 (Fig. 13b)** — GS-first and CS-first tie at the top (paper: GS
  strictly first).  Our streams are clean enough that CS usually learns
  the same streams GS does; the paper's 9%-scale gap between good and
  bad orders *is* reproduced (see the `fig13b-priority` row).
* **T-SKID-lite** — deliberately conservative (timing-aware lead
  control without the full reuse-timing tables), so its accuracy is
  higher and its traffic lower than the paper's 38%-overhead T-SKID;
  its cactusBSSN win (timeliness) reproduces only as "loses least".
* **D5 (CloudSuite rivals)** — our MLOP/Bingo-lite run without their
  full production throttling and our server traces are
  compulsory-miss-heavy at simulatable lengths, so wasted prefetches
  cost the rivals ~20% on 4-core server mixes where the paper shows
  them flat.  IPCP's coordinated throttling — which we do implement in
  full — is exactly what keeps it at 1.0, so the *mechanism* the paper
  credits is the one doing the work.
* **LLC-level coverage** — with eager multi-level fills and short
  traces, few demands reach the LLC uncovered, so LLC coverage is
  reported via cross-run miss reduction (the paper's definition), not
  within-run counters.
"""

_REPRODUCING = """\
## Reproducing

```bash
repro paper --check            # evaluate every claim; nonzero on any flip
repro paper --check --jobs 4   # same, fanned out over 4 workers
repro paper --write            # regenerate this file + BENCH_10.json
repro paper --list             # claim ids for --only
repro paper --only fig8-multilevel fig7-l1-comparison
```

A warm re-check replays the content-addressed result cache
(`~/.cache/repro-sim`) instead of re-simulating, so iterating on doc
or claim changes costs seconds, not minutes.  See
`docs/paperclaims.md` for the claim-registry design and
`README.md` ("Reproducing the paper's results") for the walkthrough.
"""


def _f3(value: float) -> str:
    return f"{value:.3f}"


def _f2(value: float) -> str:
    return f"{value:.2f}"


def _pct(value: float) -> str:
    return f"{value * 100:.0f}%"


def _chain(values: dict[str, float], keys: dict[str, str]) -> str:
    """``label 1.273 > label 1.184 ...`` sorted by measured value."""
    ranked = sorted(keys.items(), key=lambda item: -values[item[1]])
    return " > ".join(f"{label} {_f3(values[key])}" for label, key in ranked)


# --------------------------------------------------------------------- #
# Per-claim Measured-column renderers.
# --------------------------------------------------------------------- #

def _m_table1(v):
    return (f"{v['table1.l1_bytes']:.0f} B + {v['table1.l2_bytes']:.0f} B "
            f"= {v['table1.total_bytes']:.0f} B, recomputed from field "
            f"widths ({v['table1.l1_table_bits']:.0f} + "
            f"{v['table1.l1_other_bits']:.0f} L1 bits)")


def _m_table2(v):
    return (f"{v['table2.ghz']:.0f} GHz {v['table2.width']:.0f}-wide "
            f"{v['table2.rob']:.0f}-ROB; {v['table2.l1_kb']:.0f} KB / "
            f"{v['table2.l2_kb']:.0f} KB / {v['table2.llc_kb']/1024:.0f} MB; "
            f"L1 PQ {v['table2.l1_pq']:.0f} / MSHR {v['table2.l1_mshr']:.0f}; "
            f"DTLB {v['table2.dtlb']:.0f} / STLB {v['table2.stlb']:.0f}; "
            f"{v['table2.dram_gbps']:.1f} GB/s DRAM")


def _m_table3(v):
    ipcp = v["table3.ipcp.kb"]
    return (f"IPCP {_f2(ipcp)} KB vs MLOP {v['table3.mlop.kb']:.0f} KB, "
            f"SPP-stack {v['table3.spp_ppf_dspatch.kb']:.0f} KB, "
            f"Bingo {v['table3.bingo.kb']:.0f} KB, "
            f"T-SKID {v['table3.tskid.kb']:.0f} KB "
            f"({v['table3.bingo.kb']/ipcp:.0f}x / "
            f"{v['table3.tskid.kb']/ipcp:.0f}x gaps)")


def _m_table4(v):
    return (f"IPCP {_f2(v['table4.ipcp.l1cov'])}/"
            f"{_f2(v['table4.ipcp.l2cov'])}/"
            f"{_f2(v['table4.ipcp.llccov'])} cov at L1/L2/LLC, "
            f"acc {_f2(v['table4.ipcp.acc'])}; "
            f"MLOP {_f2(v['table4.mlop.l1cov'])} L1 cov, "
            f"T-SKID-lite acc {_f2(v['table4.tskid.acc'])}")


def _m_fig1(v):
    return (f"ip-stride {_f3(v['fig1.ip_stride'])}x, "
            f"MLOP {_f3(v['fig1.mlop'])}x, "
            f"Bingo {_f3(v['fig1.bingo'])}x (L1/L2 geomean ratio)")


def _m_fig7(v):
    ranked = sorted(
        ((key.removeprefix("fig7."), value) for key, value in v.items()
         if key.startswith("fig7.")),
        key=lambda item: -item[1])
    top = " > ".join(f"{name} {_f3(value)}" for name, value in ranked[:4])
    worst_name, worst = ranked[-1]
    return f"{top} > ... > {worst_name} {_f3(worst)} (16 L1 configs)"


def _m_fig8(v):
    configs = ("ipcp", "mlop", "tskid", "dol", "spp_ppf_dspatch", "bingo")
    labels = {"ipcp": "IPCP", "mlop": "MLOP", "tskid": "T-SKID",
              "dol": "DOL", "spp_ppf_dspatch": "SPP-stack",
              "bingo": "Bingo"}
    return ("mem-intensive: "
            + _chain(v, {labels[c]: f"fig8.mem.{c}" for c in configs}))


def _m_fig8_full(v):
    return ("full suite: "
            + _chain(v, {"IPCP": "fig8.full.ipcp",
                         "MLOP": "fig8.full.mlop",
                         "T-SKID": "fig8.full.tskid"}))


def _m_fig9(v):
    ranked = sorted(
        ((key.removeprefix("fig9."), value) for key, value in v.items()
         if key.startswith("fig9.")),
        key=lambda item: -item[1])
    parts = ", ".join(f"{name} {_pct(value)}" for name, value in ranked)
    return f"aggregate L1 demand-MPKI cut: {parts}"


def _m_fig10(v):
    return (f"lbm {_f2(v['fig10.lbm.l1'])}/{_f2(v['fig10.lbm.l2'])}/"
            f"{_f2(v['fig10.lbm.llc'])} down-hierarchy; bwaves "
            f"{_f2(v['fig10.bwaves.l1'])}, gcc {_f2(v['fig10.gcc.l1'])} "
            f"at L1; omnetpp {_f2(v['fig10.omnetpp.l1'])}, cactu "
            f"{_f2(v['fig10.cactu.l1'])}; mean acc "
            f"{_f2(v['fig10.mean_acc'])}")


def _m_fig11(v):
    return (f"fotonik {_pct(v['fig11.fotonik.covered'])} covered / "
            f"{_pct(v['fig11.fotonik.over'])} over-predicted; "
            f"omnetpp {_pct(v['fig11.omnetpp.uncovered'])} uncovered")


def _m_fig12(v):
    return (f"mean CS {_pct(v['fig12.mean.cs'])}, GS "
            f"{_pct(v['fig12.mean.gs'])}, CPLX "
            f"{_pct(v['fig12.mean.cplx'])}; bwaves→CS "
            f"{_f2(v['fig12.bwaves.cs'])}, wrf→CPLX "
            f"{_f2(v['fig12.wrf.cplx'])}, lbm→GS "
            f"{_f2(v['fig12.lbm.gs'])}")


def _m_fig13a(v):
    singles = [v["fig13a.cs_only"], v["fig13a.cplx_only"],
               v["fig13a.gs_only"]]
    return (f"single classes {_f2(min(singles))}-{_f2(max(singles))} "
            f"alone; L1 bouquet {_f3(v['fig13a.bouquet_l1'])}; "
            f"+L2 {_f3(v['fig13a.bouquet_l1_l2'])}")


def _m_fig13a_meta(v):
    delta = v["fig13a.bouquet_l1_l2"] - v["fig13a.no_meta"]
    return (f"no-metadata {_f3(v['fig13a.no_meta'])} vs full "
            f"{_f3(v['fig13a.bouquet_l1_l2'])} (metadata worth "
            f"+{_f3(delta)})")


def _m_fig13b(v):
    return _chain(v, {"GS-first": "fig13b.gs_first",
                      "CS-first": "fig13b.cs_first",
                      "CPLX-first": "fig13b.cplx_first",
                      "NL-first": "fig13b.nl_first"})


def _m_fig14a(v):
    return (f"IPCP {_f3(v['fig14a.ipcp'])} (worst mix "
            f"{_f3(v['fig14a.ipcp_min'])}); MLOP {_f3(v['fig14a.mlop'])}, "
            f"Bingo {_f3(v['fig14a.bingo'])} on 4-core server mixes")


def _m_fig14b(v):
    labels = {"IPCP": "fig14b.sc.ipcp", "T-SKID": "fig14b.sc.tskid",
              "MLOP": "fig14b.sc.mlop",
              "SPP-stack": "fig14b.sc.spp_ppf_dspatch",
              "Bingo": "fig14b.sc.bingo"}
    return (f"single-core: {_chain(v, labels)}; 4-core mixes: IPCP "
            f"{_f3(v['fig14b.mc.ipcp'])} vs MLOP "
            f"{_f3(v['fig14b.mc.mlop'])}")


def _m_fig15(v):
    chain = _chain(v, {"IPCP": "fig15.ipcp", "MLOP": "fig15.mlop",
                       "Bingo": "fig15.bingo"})
    return (f"{chain} over 7 mixes; IPCP's worst mix "
            f"{_f3(v['fig15.min.ipcp'])} vs Bingo's "
            f"{_f3(v['fig15.min.bingo'])}")


def _m_sens_repl(v):
    keys = ("sens.repl.lru", "sens.repl.srrip", "sens.repl.drrip",
            "sens.repl.ship")
    spread = max(v[k] for k in keys) - min(v[k] for k in keys)
    return (f"{_f3(spread)} swing across LRU/SRRIP/DRRIP/SHiP "
            f"(LRU {_f3(v['sens.repl.lru'])})")


def _m_sens_cache(v):
    keys = ("sens.cache.paper", "sens.cache.l1_32k", "sens.cache.l2_1m",
            "sens.cache.llc_4m", "sens.cache.llc_512k")
    spread = max(v[k] for k in keys) - min(v[k] for k in keys)
    return (f"{_f3(spread)} swing across 32 KB L1 / 1 MB L2 / "
            f"0.5-4 MB LLC (paper point {_f3(v['sens.cache.paper'])})")


def _m_sens_dram(v):
    return (f"{_f3(v['sens.dram.3_2'])} at 3.2 GB/s, "
            f"{_f3(v['sens.dram.12_8'])} at 12.8, "
            f"{_f3(v['sens.dram.25_0'])} at 25 — monotone in bandwidth")


def _m_sens_pq(v):
    cost = 1.0 - v["sens.pq.2_4"]
    return (f"(2,4) costs {_pct(cost)} of IPCP's absolute IPC vs (8,16); "
            f"(16,32) at {_f3(v['sens.pq.16_32'])} (within noise)")


def _m_sens_tables(v):
    return (f"suite mean {_f3(v['sens.tables.paper'])} → "
            f"{_f3(v['sens.tables.x8'])} with 8x tables; cactu_like "
            f"{_f2(v['sens.tables.cactu.paper'])} → "
            f"{_f2(v['sens.tables.cactu.x8'])}")


def _m_abl_throttle(v):
    return (f"on {_f3(v['abl.throttle.on'])} / off "
            f"{_f3(v['abl.throttle.off'])} speedup; traffic overhead "
            f"{_pct(v['abl.throttle.on_traffic'])} / "
            f"{_pct(v['abl.throttle.off_traffic'])} (throttling binds "
            f"mainly on contended mixes, per Fig. 15)")


def _m_abl_rr(v):
    return (f"8/32/128 entries: {_f3(v['abl.rr.r8'])} / "
            f"{_f3(v['abl.rr.r32'])} / {_f3(v['abl.rr.r128'])} — "
            f"32 within noise of best")


def _m_abl_nl(v):
    return (f"always-on NL costs +{_pct(v['abl.nl.always_traffic'])} DRAM "
            f"traffic vs +{_pct(v['abl.nl.gated_traffic'])} gated at "
            f"{_f3(v['abl.nl.gated'])} speedup — the gate pays for itself")


def _m_abl_cplx(v):
    return (f"degree 1/2/3/4/6 geomean {_f3(v['abl.cplx.mean.d1'])} / "
            f"{_f3(v['abl.cplx.mean.d2'])} / {_f3(v['abl.cplx.mean.d3'])} "
            f"/ {_f3(v['abl.cplx.mean.d4'])} / "
            f"{_f3(v['abl.cplx.mean.d6'])}; deep CPLX stops paying on "
            f"mcf_i ({_f3(v['abl.cplx.mcf.d3'])} → "
            f"{_f3(v['abl.cplx.mcf.d6'])})")


def _m_abl_gs(v):
    return (f"degree 2/4/6/8: {_f3(v['abl.gs.d2'])} / "
            f"{_f3(v['abl.gs.d4'])} / {_f3(v['abl.gs.d6'])} / "
            f"{_f3(v['abl.gs.d8'])} — the paper's degree 6 at or near "
            f"the top")


def _m_abl_traffic(v):
    return (f"IPCP +{_pct(v['abl.traffic.ipcp.overhead'])} traffic for "
            f"{_f3(v['fig8.mem.ipcp'])} speedup; SPP-stack "
            f"+{_pct(v['abl.traffic.spp_ppf_dspatch.overhead'])}, MLOP "
            f"+{_pct(v['abl.traffic.mlop.overhead'])}, T-SKID "
            f"+{_pct(v['abl.traffic.tskid.overhead'])}")


def _m_abl_motiv(v):
    return (f"bwaves {_pct(v['abl.motiv.bwaves.const'])} constant-stride, "
            f"wrf {_pct(v['abl.motiv.wrf.complex'])} complex-stride, "
            f"omnetpp {_pct(v['abl.motiv.omnetpp.irregular'])} irregular, "
            f"gcc {_pct(v['abl.motiv.gcc.dense'])} dense-region; cactu "
            f"{v['abl.motiv.cactu.ips']:.0f} distinct IPs")


def _m_abl_l2c(v):
    generic = [v[f"abl.l2c.{label}"] for label in
               ("spp", "bop", "vldp", "mlop", "ip_stride", "bingo")]
    none = v["abl.l2c.none"]
    return (f"generic L2s add {_f3(min(generic)-none)}..+"
            f"{_f3(max(generic)-none)} on top of IPCP-L1 "
            f"({_f3(none)}); IPCP-L2 adds "
            f"+{_f3(v['abl.l2c.ipcp_l2']-none)}")


def _m_abl_temporal(v):
    return (f"plain IPCP {_f3(v['abl.temporal.ipcp.loop'])} on a "
            f"recurring irregular loop; IPCP+TS "
            f"{_f3(v['abl.temporal.ipcp_temporal.loop'])} vs best "
            f"dedicated {_f3(v['abl.temporal.best_dedicated'])}; stream "
            f"regression {_f3(v['abl.temporal.ipcp_temporal.stream'] - v['abl.temporal.ipcp.stream'])}")


def _m_abl_llc(v):
    return (f"L1+L2 {_f3(v['abl.llc.two'])} vs L1+L2+LLC "
            f"{_f3(v['abl.llc.three'])} — confirmed")


def _m_abl_density(v):
    rivals = max(v[f"abl.density.{c}.eff"] for c in
                 ("spp_ppf_dspatch", "mlop", "bingo", "tskid"))
    ratio = v["abl.density.ipcp.eff"] / rivals if rivals > 0 else float("inf")
    return (f"IPCP {_f3(v['abl.density.ipcp.eff'])} speedup-gain/KB — "
            f"{ratio:.0f}x the best rival; "
            f"{v['abl.density.bingo.kb']/v['abl.density.ipcp.kb']:.0f}x "
            f"less storage than Bingo")


def _m_abl_opp(v):
    return (f"IPCP captures {_pct(v['abl.opp.bwaves'])} (bwaves) / "
            f"{_pct(v['abl.opp.fotonik'])} (fotonik) of the ideal-L1 "
            f"headroom, {_pct(v['abl.opp.omnetpp'])} on omnetpp")


def _m_abl_path(v):
    return _chain(v, {"IPCP": "abl.path.ipcp", "MLOP": "abl.path.mlop",
                      "Bingo": "abl.path.bingo"})


def _m_abl_mixdist(v):
    return (f"IPCP geomean {_f3(v['abl.mixdist.ipcp.geomean'])} "
            f"(max {_f2(v['abl.mixdist.ipcp.max'])}) vs MLOP "
            f"{_f3(v['abl.mixdist.mlop.geomean'])}; worst mix bounded at "
            f"{_f2(v['abl.mixdist.ipcp.min'])}; wins "
            f"{v['abl.mixdist.ipcp.wins']:.0f}/12")


def _m_throughput(v):
    return ("machine-dependent — order-of-magnitude floors plus "
            "batched-vs-scalar ratio gates; live numbers land in "
            "`BENCH_10.json`")


def _m_mix_mpki(v):
    mpki = [v[f"mix.mpki.mix{i}"] for i in range(1, 8)]
    chain = " -> ".join(_f2(value) for value in mpki)
    return (f"baseline L1 MPKI {chain} "
            f"({mpki[-1] / mpki[0]:.0f}x span, monotone)")


def _m_mix_ws(v):
    chain = _chain(v, {"IPCP": "mix.geo.ipcp",
                       "GS-only": "mix.geo.ipcp_gs_only",
                       "MLOP": "mix.geo.mlop",
                       "Bingo": "mix.geo.bingo"})
    return (f"{chain} geomean over mix1-7; worst mixes "
            f"{_f3(v['mix.min.ipcp'])} (IPCP) vs "
            f"{_f3(v['mix.min.mlop'])} (MLOP) / "
            f"{_f3(v['mix.min.bingo'])} (Bingo)")


def _m_mix_ordering(v):
    return (f"IPCP NWS {_f3(v['mix.nws.mix1.ipcp'])} (mix1) -> "
            f"{_f3(v['mix.nws.mix4.ipcp'])} (mix4) -> "
            f"{_f3(v['mix.nws.mix7.ipcp'])} (mix7); on mix7 MLOP "
            f"{_f3(v['mix.nws.mix7.mlop'])}, Bingo "
            f"{_f3(v['mix.nws.mix7.bingo'])}")


def _m_fe_suite(v):
    return (f"baseline L1-I MPKI: microservice "
            f"{_f2(v['fe.mpki.microservice_like'])}, fan-out RPC "
            f"{_f2(v['fe.mpki.fanout_rpc_like'])}, interpreter "
            f"{_f2(v['fe.mpki.interpreter_like'])}, cold-start "
            f"{_f2(v['fe.mpki.coldstart_like'])} "
            f"(geomean {_f2(v['fe.mpki.geo'])})")


def _m_fe_leader(v):
    chain = _chain(v, {"IPCP-I": "fe.geo.ipcp_i",
                       "next-line-I": "fe.geo.next_line_i",
                       "MANA-lite": "fe.geo.mana_lite"})
    return (f"{chain} geomean fetch speedup; IPCP-I covers "
            f"{_pct(v['fe.cov.ipcp_i'])} of baseline L1-I misses")


def _m_fe_tlb(v):
    return (f"aware {_f3(v['fe.geo.ipcp_i'])} vs blind "
            f"{_f3(v['fe.geo.ipcp_i_tlb_blind'])}; demand walks/ki "
            f"{_f2(v['fe.walks.ipcp_i'])} (aware) vs "
            f"{_f2(v['fe.walks.ipcp_i_tlb_blind'])} (blind), aware "
            f"paying {_f2(v['fe.pfwalks.ipcp_i'])} speculative walks/ki")


def _m_fe_mana(v):
    return (f"MANA-lite geomean {_f3(v['fe.geo.mana_lite'])}: "
            f"interpreter {_f3(v['fe.speedup.interpreter_like.mana_lite'])} "
            f"(paths repeat) but cold-start "
            f"{_f3(v['fe.speedup.coldstart_like.mana_lite'])} vs IPCP-I "
            f"{_f3(v['fe.speedup.coldstart_like.ipcp_i'])} there")


MEASURED = {
    "table1-storage": _m_table1,
    "table2-system": _m_table2,
    "table3-storage-gap": _m_table3,
    "table4-coverage-accuracy": _m_table4,
    "fig1-l1-placement": _m_fig1,
    "fig7-l1-comparison": _m_fig7,
    "fig8-multilevel": _m_fig8,
    "fig8-full-suite": _m_fig8_full,
    "fig9-mpki": _m_fig9,
    "fig10-coverage": _m_fig10,
    "fig11-overprediction": _m_fig11,
    "fig12-class-mix": _m_fig12,
    "fig13a-class-utility": _m_fig13a,
    "fig13a-metadata": _m_fig13a_meta,
    "fig13b-priority": _m_fig13b,
    "fig14a-cloudsuite": _m_fig14a,
    "fig14b-neural": _m_fig14b,
    "fig15-multicore": _m_fig15,
    "sens-replacement": _m_sens_repl,
    "sens-cache-sizes": _m_sens_cache,
    "sens-dram-bandwidth": _m_sens_dram,
    "sens-pq-mshr": _m_sens_pq,
    "sens-table-sizes": _m_sens_tables,
    "abl-throttling": _m_abl_throttle,
    "abl-rr-filter": _m_abl_rr,
    "abl-nl-gate": _m_abl_nl,
    "abl-cplx-degree": _m_abl_cplx,
    "abl-gs-degree": _m_abl_gs,
    "abl-dram-traffic": _m_abl_traffic,
    "abl-motivation": _m_abl_motiv,
    "abl-l2-complement": _m_abl_l2c,
    "abl-temporal": _m_abl_temporal,
    "abl-llc": _m_abl_llc,
    "abl-density": _m_abl_density,
    "abl-opportunity": _m_abl_opp,
    "abl-pathological-mix": _m_abl_path,
    "abl-mix-distribution": _m_abl_mixdist,
    "bench-throughput": _m_throughput,
    "mix-mpki-gradient": _m_mix_mpki,
    "mix-weighted-speedup": _m_mix_ws,
    "mix-gradient-ordering": _m_mix_ordering,
    "fe-frontend-bound-suite": _m_fe_suite,
    "fe-ipcp-i-leader": _m_fe_leader,
    "fe-tlb-ablation": _m_fe_tlb,
    "fe-mana-replay-gap": _m_fe_mana,
}

_SECTION_HEADINGS = {
    "tables": "## Tables",
    "figures": "## Figures",
    "sensitivity": "## Sensitivity studies (Section VI-C)",
    "ablations": "## Ablations & extensions (beyond the paper's figures)",
    "mixes": "## Graded multicore mixes (beyond the paper's figures)",
    "frontend": "## Instruction prefetching (beyond the paper's figures)",
}


def _rows_for(report: EngineReport, section: str) -> list[str]:
    lines = [
        "| Claim | Paper | Measured | Verdict |",
        "|-------|-------|----------|---------|",
    ]
    for claim, verdict in zip(report.claims, report.verdicts):
        if claim.section != section:
            continue
        measured = MEASURED[claim.id](report.values)
        status = "holds" if verdict.passed else "**FLIPPED**"
        lines.append(
            f"| **{claim.title}** (`{claim.id}`) | {claim.paper} "
            f"| {measured} | {status} |")
    return lines


def _verdict_summary(report: EngineReport) -> list[str]:
    lines = [
        "## Claim verdicts",
        "",
        f"{report.passed} of {len(report.verdicts)} claims hold"
        + ("." if report.ok else f" — **{report.failed} FLIPPED**."),
        "",
        "| Section | Holds | Flipped |",
        "|---------|-------|---------|",
    ]
    for section, (good, bad) in report.by_section().items():
        lines.append(f"| {section} | {good} | {bad} |")
    flipped = [verdict for verdict in report.verdicts if not verdict.passed]
    if flipped:
        lines.append("")
        lines.append("Flipped claims and the failing predicates:")
        lines.append("")
        for verdict in flipped:
            lines.append(f"* `{verdict.claim_id}`:")
            for detail in verdict.details:
                if detail.startswith("FAIL"):
                    lines.append(f"  * {detail}")
    return lines


def render_experiments(report: EngineReport) -> str:
    """The complete EXPERIMENTS.md text for one full claim run."""
    from repro.workloads import full_suite, memory_intensive_suite

    parts = [_HEADER.format(
        mem_traces=len(memory_intensive_suite(scale=0.05)),
        all_traces=len(full_suite(scale=0.05)),
    )]
    for section, heading in _SECTION_HEADINGS.items():
        parts.append(heading)
        parts.append("")
        parts.extend(_rows_for(report, section))
        parts.append("")
    parts.extend(_verdict_summary(report))
    parts.append("")
    parts.append(_DEVIATIONS)
    parts.append(_REPRODUCING)
    return "\n".join(parts)


def render_verdict_report(report: EngineReport) -> str:
    """Plain-text per-claim verdict detail (the CLI's main output)."""
    lines = []
    for claim, verdict in zip(report.claims, report.verdicts):
        lines.append(f"{verdict.status:>7}  {claim.id}  [{claim.section}]"
                     f"  {claim.title}")
        if not verdict.passed:
            for detail in verdict.details:
                lines.append(f"         {detail}")
    lines.append("")
    lines.append(f"{report.passed} hold, {report.failed} flipped "
                 f"({len(report.verdicts)} claims; "
                 f"{report.simulations_run} simulations run, "
                 f"{report.cache_hits} cache hits, "
                 f"{report.cached_replay_rate:.1%} cached replay)")
    return "\n".join(lines)

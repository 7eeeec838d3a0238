"""Tests for the instruction-prefetching frontier (repro.frontend).

The ITLB model (hit/miss/page-crossing semantics, prefetch fills,
capacity), the L1-I presence model, IPCP-I stepped in lockstep against
its naive oracle (repro.verify.frontend_oracle), MANA-lite's
record-and-replay contract, cross-process trace determinism, the
frontend invariant sweep and the registry.
"""

import subprocess
import sys

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.frontend import (
    FrontendParams,
    InstructionCache,
    IpcpIConfig,
    IpcpIPrefetcher,
    Itlb,
    ManaLitePrefetcher,
    NextLineIPrefetcher,
    available_frontend_prefetchers,
    make_frontend_prefetcher,
    simulate_frontend,
)
from repro.memsys.tlb import LruSet, TlbParams
from repro.prefetchers.base import AccessContext, AccessType
from repro.verify.frontend_oracle import OracleIpcpI
from repro.verify.invariants import (
    check_frontend_invariants,
    run_frontend_invariant_sweep,
)
from repro.workloads import FRONTEND_BENCHMARKS, frontend_trace


def _ctx(ip, hit=False, cycle=0, mpki=0.0):
    return AccessContext(ip=ip, addr=ip, cache_hit=hit,
                         kind=AccessType.LOAD, cycle=cycle, mpki=mpki)


# --------------------------------------------------------------------- #
# ITLB
# --------------------------------------------------------------------- #

class TestItlb:
    def test_hit_miss_walk_penalties(self):
        itlb = Itlb(TlbParams(dtlb_entries=2, stlb_entries=4,
                              stlb_penalty=9, walk_penalty=60))
        assert itlb.access(0x40) == 60     # cold: full walk
        assert itlb.access(0x40) == 0      # ITLB hit: free
        assert itlb.access(0x41) == 60
        assert itlb.access(0x42) == 60     # evicts 0x40 from the 2-entry ITLB
        assert itlb.access(0x40) == 9      # ITLB miss, STLB hit
        assert itlb.stats.dtlb_misses == 4
        assert itlb.stats.stlb_misses == 3

    def test_prefetch_fill_warms_demand_path(self):
        itlb = Itlb(TlbParams(dtlb_entries=4, stlb_entries=8))
        itlb.prefetch_fill(0x77)
        assert itlb.prefetch_walks == 1
        assert itlb.access(0x77) == 0      # demand fetch finds it resident
        assert itlb.stats.dtlb_misses == 0

    def test_prefetch_fill_stlb_hit_is_free_promotion(self):
        itlb = Itlb(TlbParams(dtlb_entries=1, stlb_entries=8))
        itlb.access(0x10)
        itlb.access(0x11)                  # 0x10 falls out of the 1-entry ITLB
        itlb.prefetch_fill(0x10)           # promotion from STLB: no walk
        assert itlb.prefetch_walks == 0

    def test_capacity_never_exceeded_under_prefetch_pressure(self):
        params = TlbParams(dtlb_entries=4, stlb_entries=8)
        itlb = Itlb(params)
        for vpage in range(100):
            itlb.access(vpage)
            itlb.prefetch_fill(vpage + 1000)
            dtlb, stlb = itlb.resident()
            assert dtlb <= params.dtlb_entries
            assert stlb <= params.stlb_entries

    def test_reset_stats_keeps_contents(self):
        itlb = Itlb(TlbParams(dtlb_entries=4, stlb_entries=8))
        itlb.access(0x5)
        itlb.prefetch_fill(0x6)
        itlb.reset_stats()
        assert itlb.prefetch_walks == 0
        assert itlb.stats.accesses == 0
        assert itlb.access(0x5) == 0       # contents survived the reset


# --------------------------------------------------------------------- #
# L1-I presence model
# --------------------------------------------------------------------- #

class TestInstructionCache:
    def test_lru_eviction_within_set(self):
        cache = InstructionCache()
        sets = cache.params.sets
        blocks = [k * sets for k in range(cache.params.ways + 1)]
        for block in blocks:
            cache.install(block, prefetched=False)
        assert blocks[0] not in cache      # oldest way evicted
        assert blocks[-1] in cache

    def test_prefetched_bit_clears_on_first_touch(self):
        cache = InstructionCache()
        cache.install(7, prefetched=True)
        assert cache.prefetched_bit(7) is True
        assert cache.prefetched_bit(7) is False

    def test_l2_code_presence_cold_then_warm(self):
        l2 = LruSet(2)
        assert l2.touch(1) is False
        assert l2.touch(1) is True
        l2.touch(2)
        l2.touch(3)                        # capacity 2: evicts block 1
        assert l2.touch(1) is False


# --------------------------------------------------------------------- #
# IPCP-I vs its naive oracle
# --------------------------------------------------------------------- #

def _lockstep(policy: str, trace_name: str, scale: float = 0.2):
    """Drive production and oracle over one ip stream; diff per step."""
    config = IpcpIConfig(page_policy=policy)
    production = IpcpIPrefetcher(config)
    oracle = OracleIpcpI(config)
    outstanding = {}
    last_block = None
    cycle = misses = instructions = 0
    for _, ip, _, _ in frontend_trace(trace_name, scale):
        instructions += 1
        block = ip >> 6
        if block == last_block:
            continue
        last_block = block
        cycle += 1
        pf_class = outstanding.pop(block, None)
        if pf_class is not None:
            production.on_prefetch_hit(block << 6, pf_class)
            oracle.on_prefetch_hit(pf_class)
        else:
            misses += 1
        mpki = misses * 1000.0 / instructions
        got = tuple((r.addr >> 6, r.pf_class) for r in production.on_access(
            _ctx(ip, hit=pf_class is not None, cycle=cycle, mpki=mpki)))
        want = oracle.step(ip, mpki=mpki)
        assert got == want, (
            f"{policy}/{trace_name} diverged at transition {cycle} "
            f"ip={ip:#x}: production {got} vs oracle {want}")
        for target, target_class in got:
            outstanding[target] = target_class
            production.on_prefetch_fill(target << 6, target_class)
            oracle.on_prefetch_fill(target_class)
    return cycle


class TestIpcpIOracle:
    @pytest.mark.parametrize("trace_name", sorted(FRONTEND_BENCHMARKS))
    def test_lockstep_aware(self, trace_name):
        assert _lockstep("aware", trace_name) > 100

    @pytest.mark.parametrize("trace_name", sorted(FRONTEND_BENCHMARKS))
    def test_lockstep_blind(self, trace_name):
        assert _lockstep("blind", trace_name) > 100

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            IpcpIConfig(page_policy="translucent")
        with pytest.raises(ConfigurationError):
            IpcpIConfig(bt_entries=1000)   # not a power of two

    def test_storage_bits_declared(self):
        config = IpcpIConfig()
        assert IpcpIPrefetcher(config).storage_bits == config.storage_bits
        assert config.storage_bits > 0


# --------------------------------------------------------------------- #
# MANA-lite
# --------------------------------------------------------------------- #

class TestManaLite:
    def test_records_fetch_path_after_miss(self):
        mana = ManaLitePrefetcher(stream_length=3)
        path = [100, 101, 105, 109]
        mana.on_access(_ctx(path[0] << 6, hit=False))   # miss opens window
        for block in path[1:]:
            mana.on_access(_ctx(block << 6, hit=True))
        assert mana.recorded_stream(100) == (101, 105, 109)

    def test_replays_on_any_trigger_touch(self):
        mana = ManaLitePrefetcher(stream_length=2)
        mana.on_access(_ctx(100 << 6, hit=False))
        mana.on_access(_ctx(101 << 6, hit=True))
        mana.on_access(_ctx(102 << 6, hit=True))
        requests = mana.on_access(_ctx(100 << 6, hit=True))
        assert [r.addr >> 6 for r in requests] == [101, 102]
        assert mana.stats["replays"] == 1

    def test_stream_is_stable_across_replays(self):
        mana = ManaLitePrefetcher(stream_length=2)
        for _ in range(3):                  # identical path every pass
            mana.on_access(_ctx(100 << 6, hit=False))
            mana.on_access(_ctx(101 << 6, hit=True))
            mana.on_access(_ctx(102 << 6, hit=True))
        assert mana.recorded_stream(100) == (101, 102)

    def test_table_is_lru_bounded(self):
        mana = ManaLitePrefetcher(table_entries=2, stream_length=1)
        for trigger in (10, 20, 30):
            mana.on_access(_ctx(trigger << 6, hit=False))
            mana.on_access(_ctx((trigger + 1) << 6, hit=True))
        assert mana.recorded_stream(10) == ()     # LRU-evicted
        assert mana.recorded_stream(30) == (31,)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            ManaLitePrefetcher(table_entries=0)
        with pytest.raises(ConfigurationError):
            NextLineIPrefetcher(degree=0)


# --------------------------------------------------------------------- #
# Trace generation
# --------------------------------------------------------------------- #

class TestFrontendTraces:
    def test_identical_in_process(self):
        assert list(frontend_trace("microservice_like", 0.05)) == \
            list(frontend_trace("microservice_like", 0.05))

    def test_identical_across_processes(self):
        code = (
            "from repro.runner.job import trace_signature\n"
            "from repro.workloads import frontend_trace\n"
            "for name in ('microservice_like', 'coldstart_like'):\n"
            "    print(trace_signature(frontend_trace(name, 0.05)))\n"
        )
        digests = [
            subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True,
                           check=True).stdout
            for _ in range(2)
        ]
        assert digests[0] == digests[1] and digests[0].strip()

    def test_traces_validate_and_differ_by_name(self):
        traces = {name: frontend_trace(name, 0.05)
                  for name in FRONTEND_BENCHMARKS}
        for trace in traces.values():
            trace.validate()
        signatures = {tuple(t[:50] for t in trace)
                      for trace in traces.values()}
        assert len(signatures) == len(traces)

    def test_unknown_name_and_bad_scale(self):
        with pytest.raises(ReproError):
            frontend_trace("service_mesh_like")
        with pytest.raises(ReproError):
            frontend_trace("microservice_like", scale=0)


# --------------------------------------------------------------------- #
# Invariants
# --------------------------------------------------------------------- #

class TestFrontendInvariants:
    def test_sweep_is_clean(self):
        traces = [frontend_trace(name, 0.1)
                  for name in FRONTEND_BENCHMARKS]
        reports = run_frontend_invariant_sweep(traces)
        assert reports
        for report in reports:
            assert report.ok, report.describe()

    def test_blind_config_is_page_contained(self):
        report = check_frontend_invariants(
            make_frontend_prefetcher("ipcp_i_tlb_blind"),
            frontend_trace("fanout_rpc_like", 0.1),
            allow_cross_page=False,
        )
        assert report.ok, report.describe()

    def test_checker_flags_cross_page_when_disallowed(self):
        # The aware config does cross pages; auditing it with
        # allow_cross_page=False must catch that (the audit works).
        report = check_frontend_invariants(
            make_frontend_prefetcher("ipcp_i"),
            frontend_trace("fanout_rpc_like", 0.1),
            allow_cross_page=False,
        )
        assert not report.ok
        assert {v.invariant for v in report.violations} == \
            {"page_containment"}


# --------------------------------------------------------------------- #
# Engine + registry
# --------------------------------------------------------------------- #

class TestFrontendEngine:
    def test_prefetching_beats_baseline_on_coldstart(self):
        trace = frontend_trace("coldstart_like", 0.2)
        baseline = simulate_frontend(trace)
        result = simulate_frontend(trace, IpcpIPrefetcher())
        assert result.speedup_over(baseline) > 1.2
        assert result.coverage_over(baseline) > 0.5
        assert result.l1i.pf_issued > 0

    def test_run_is_deterministic(self):
        trace = frontend_trace("interpreter_like", 0.1)
        first = simulate_frontend(trace, make_frontend_prefetcher("ipcp_i"))
        second = simulate_frontend(trace, make_frontend_prefetcher("ipcp_i"))
        assert first == second

    def test_warmup_resets_stats_not_state(self):
        trace = frontend_trace("interpreter_like", 0.1)
        warm = simulate_frontend(trace, warmup=len(trace) // 2)
        assert warm.instructions == len(trace) - len(trace) // 2
        # the steady-state ROI misses less than the whole run
        cold = simulate_frontend(trace, warmup=0)
        assert warm.l1i_mpki <= cold.l1i_mpki

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            FrontendParams(l2_penalty=20, dram_penalty=10)
        with pytest.raises(ConfigurationError):
            FrontendParams(l2_code_blocks=0)


class TestFrontendRegistry:
    def test_known_names(self):
        assert available_frontend_prefetchers() == [
            "ipcp_i", "ipcp_i_tlb_blind", "mana_lite", "next_line_i",
            "none",
        ]

    def test_factories_build_fresh_instances(self):
        assert make_frontend_prefetcher("none") is None
        first = make_frontend_prefetcher("ipcp_i")
        second = make_frontend_prefetcher("ipcp_i")
        assert first is not second
        assert make_frontend_prefetcher(
            "ipcp_i_tlb_blind").name == "ipcp_i_tlb_blind"

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="next_line_i"):
            make_frontend_prefetcher("fdip")

"""Tests for the single-core simulation driver."""

import pytest

from repro.core import IpcpL1, IpcpL2
from repro.sim.engine import simulate, warmup_length
from repro.sim.trace import LOAD, OTHER, Trace

from conftest import make_stream_trace


class TestSimulate:
    def test_basic_run_produces_positive_ipc(self, stream_trace):
        result = simulate(stream_trace)
        assert result.ipc > 0
        assert result.instructions > 0
        assert result.cycles > 0

    def test_result_is_roi_only(self, stream_trace):
        result = simulate(stream_trace, warmup=len(stream_trace) // 2)
        assert result.instructions == len(stream_trace) - len(stream_trace) // 2

    def test_warmup_default_is_twenty_percent(self, stream_trace):
        result = simulate(stream_trace)
        assert result.instructions == len(stream_trace) - len(stream_trace) // 5

    def test_max_instructions_caps_roi(self, stream_trace):
        result = simulate(stream_trace, warmup=0, max_instructions=1_000)
        assert result.instructions == 1_000

    def test_prefetcher_name_recorded(self, stream_trace):
        result = simulate(
            stream_trace, l1_prefetcher=IpcpL1(), l2_prefetcher=IpcpL2()
        )
        assert result.prefetcher_name == "ipcp+ipcp_l2@L2"

    def test_mpki_definition(self):
        # One load per 10 instructions, every load to a fresh line:
        # L1 demand MPKI must be ~100 (per kilo instructions).
        records = []
        for i in range(2_000):
            records.append((LOAD, 0x400, 0x100_0000 + i * 64, 0))
            records.extend([(OTHER, 0x404, 0, 0)] * 9)
        result = simulate(Trace(records, name="mpki"), warmup=0)
        assert result.mpki("l1") == pytest.approx(100.0, rel=0.05)

    def test_speedup_over_baseline(self, stream_trace):
        base = simulate(stream_trace)
        pf = simulate(stream_trace, l1_prefetcher=IpcpL1())
        assert pf.speedup_over(base) == pytest.approx(pf.ipc / base.ipc)

    def test_dram_bytes(self, stream_trace):
        result = simulate(stream_trace)
        assert result.dram_bytes == (result.dram_reads + result.dram_writes) * 64


class TestWarmupLength:
    def test_default_is_twenty_percent(self, stream_trace):
        assert warmup_length(stream_trace, None) == len(stream_trace) // 5

    def test_zero_stays_zero(self, stream_trace):
        assert warmup_length(stream_trace, 0) == 0

    def test_clamped_to_the_trace(self, stream_trace):
        n = len(stream_trace)
        assert warmup_length(stream_trace, n + 1) == n


class TestPrefetchingImprovesStreams:
    def test_ipcp_beats_baseline_on_stream(self):
        trace = make_stream_trace(n_loads=20_000, alu_per_load=5)
        base = simulate(trace)
        ipcp = simulate(trace, l1_prefetcher=IpcpL1(), l2_prefetcher=IpcpL2())
        assert ipcp.ipc > base.ipc * 1.2

    def test_multi_level_beats_l1_only(self):
        trace = make_stream_trace(n_loads=20_000, alu_per_load=5)
        l1_only = simulate(trace, l1_prefetcher=IpcpL1())
        multi = simulate(trace, l1_prefetcher=IpcpL1(), l2_prefetcher=IpcpL2())
        assert multi.ipc >= l1_only.ipc

    def test_coverage_reported_for_stream(self):
        trace = make_stream_trace(n_loads=20_000, alu_per_load=5)
        result = simulate(trace, l1_prefetcher=IpcpL1())
        assert result.l1.coverage > 0.5


class TestSimulateIdeal:
    def test_ideal_upper_bounds_real_runs(self):
        from repro.sim.engine import simulate_ideal
        trace = make_stream_trace(n_loads=5_000)
        ideal = simulate_ideal(trace)
        real = simulate(trace, l1_prefetcher=IpcpL1()).ipc
        baseline = simulate(trace).ipc
        assert baseline <= ideal * 1.01
        assert real <= ideal * 1.01

    def test_ideal_ipc_near_width_for_alu_light_code(self):
        from repro.sim.engine import simulate_ideal
        trace = make_stream_trace(n_loads=3_000, alu_per_load=7)
        assert simulate_ideal(trace) > 3.0

    def test_ideal_is_deterministic(self):
        from repro.sim.engine import simulate_ideal
        trace = make_stream_trace(n_loads=2_000)
        assert simulate_ideal(trace) == simulate_ideal(trace)

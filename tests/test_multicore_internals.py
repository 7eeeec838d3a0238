"""Deeper tests of the multicore engine internals."""

import pytest

from repro.params import SystemParams, default_llc
from repro.sim.multicore import _multicore_params, simulate_mix
from repro.workloads import homogeneous_mix, spec_trace

from conftest import make_stream_trace


class TestMulticoreParams:
    def test_llc_scales_per_core(self):
        params = _multicore_params(SystemParams(), cores=4)
        assert params.llc.size == default_llc(4).size
        assert params.llc.mshr_entries == default_llc(4).mshr_entries

    def test_single_core_keeps_one_channel(self):
        params = _multicore_params(SystemParams(), cores=1)
        assert params.dram.channels == 1

    def test_multicore_gets_two_channels(self):
        params = _multicore_params(SystemParams(), cores=4)
        assert params.dram.channels == 2

    def test_private_levels_unchanged(self):
        base = SystemParams()
        params = _multicore_params(base, cores=8)
        assert params.l1d == base.l1d
        assert params.l2 == base.l2


class TestFairnessAndContention:
    def test_homogeneous_mix_cores_progress_evenly(self):
        traces = homogeneous_mix("bwaves_like", 4, scale=0.15)
        result = simulate_mix(traces, warmup=1_000, roi=4_000)
        ipcs = result.ipc_together
        assert max(ipcs) / min(ipcs) < 1.5  # same work, similar progress

    def test_more_cores_more_contention(self):
        two = simulate_mix(homogeneous_mix("lbm_like", 2, scale=0.15),
                           warmup=1_000, roi=4_000)
        eight = simulate_mix(homogeneous_mix("lbm_like", 8, scale=0.15),
                             warmup=1_000, roi=4_000)
        # Per-core throughput degrades as the shared DRAM saturates.
        assert min(eight.ipc_together) <= max(two.ipc_together) * 1.05

    def test_dram_traffic_scales_with_cores(self):
        two = simulate_mix(homogeneous_mix("bwaves_like", 2, scale=0.15),
                           warmup=1_000, roi=4_000)
        four = simulate_mix(homogeneous_mix("bwaves_like", 4, scale=0.15),
                            warmup=1_000, roi=4_000)
        assert four.dram_reads > two.dram_reads

    def test_asid_isolation_no_cross_core_hits(self):
        # Two cores running the SAME trace must not share lines: their
        # ASIDs map equal virtual pages to different frames, so the
        # shared LLC sees double the footprint.
        traces = homogeneous_mix("bwaves_like", 2, scale=0.15)
        result = simulate_mix(traces, warmup=500, roi=3_000)
        single = simulate_mix([spec_trace("bwaves_like", 0.15)],
                              warmup=500, roi=3_000)
        assert result.dram_reads > single.dram_reads * 1.5


class TestWeightedSpeedupPlumbing:
    def test_alone_ipc_uses_no_prefetching(self):
        from repro.core import IpcpL1
        traces = [make_stream_trace(n_loads=2_000, name="s")]
        pf = simulate_mix(traces, l1_factory=IpcpL1, warmup=500, roi=2_000)
        base = simulate_mix(traces, warmup=500, roi=2_000)
        # The alone-IPC denominator is prefetcher-independent.
        assert pf.ipc_alone == pytest.approx(base.ipc_alone)

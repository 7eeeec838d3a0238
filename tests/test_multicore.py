"""Tests for the multicore engine: interleaving, weighted speedup."""

import pytest

from repro.core import IpcpL1, IpcpL2
from repro.params import SystemParams
from repro.runner import SimulationRunner, alone_ipc_job
from repro.runner.job import execute_job
from repro.sim.multicore import MixResult, _multicore_params, simulate_mix
from repro.workloads import homogeneous_mix, spec_trace

from conftest import make_stream_trace


def two_streams():
    return [
        make_stream_trace(n_loads=4_000, base=0x1000_0000, name="s0"),
        make_stream_trace(n_loads=4_000, base=0x9000_0000, name="s1"),
    ]


class TestMixResult:
    def test_weighted_speedup_formula(self):
        mix = MixResult(
            trace_names=["a", "b"],
            ipc_together=[1.0, 2.0],
            ipc_alone=[2.0, 2.0],
            dram_reads=0,
            dram_writes=0,
        )
        assert mix.weighted_speedup == pytest.approx(0.5 + 1.0)
        assert mix.cores == 2

    def test_zero_alone_ipc_contributes_zero(self):
        mix = MixResult(["a"], [1.0], [0.0], 0, 0)
        assert mix.weighted_speedup == 0.0


class TestSimulateMix:
    def test_two_core_mix_runs(self):
        result = simulate_mix(two_streams(), warmup=1_000, roi=4_000)
        assert result.cores == 2
        assert all(ipc > 0 for ipc in result.ipc_together)
        assert all(ipc > 0 for ipc in result.ipc_alone)

    def test_contention_slows_cores_down(self):
        result = simulate_mix(two_streams(), warmup=1_000, roi=4_000)
        for together, alone in zip(result.ipc_together, result.ipc_alone):
            assert together <= alone * 1.1  # allow small noise

    def test_same_named_cores_get_their_own_alone_ipc(self):
        # One benchmark drawn twice with different seeds: equal names,
        # different records, different alone IPCs.
        traces = [spec_trace("gcc_like", 0.1, seed) for seed in (7, 8)]
        result = simulate_mix(traces, warmup=500, roi=2_000)
        params = _multicore_params(SystemParams(), 2)
        own = [execute_job(alone_ipc_job(trace, params, 500, 2_000, 1))
               for trace in traces]
        assert own[0] != own[1]
        assert result.ipc_alone == own

    def test_homogeneous_mix_runs_one_alone_simulation(self):
        runner = SimulationRunner()
        simulate_mix(homogeneous_mix("gcc_like", 2, scale=0.1),
                     warmup=500, roi=2_000, runner=runner)
        assert runner.simulations_run == 1

    def test_prefetching_improves_weighted_speedup_on_streams(self):
        traces = two_streams()
        base = simulate_mix(traces, warmup=1_000, roi=4_000)
        pf = simulate_mix(
            traces,
            l1_factory=IpcpL1,
            l2_factory=IpcpL2,
            warmup=1_000,
            roi=4_000,
        )
        assert pf.weighted_speedup / base.weighted_speedup > 1.05

    def test_replay_lets_short_traces_finish(self):
        short = make_stream_trace(n_loads=100, name="short")
        longer = make_stream_trace(n_loads=4_000, base=0x9000_0000, name="long")
        result = simulate_mix([short, longer], warmup=200, roi=2_000)
        assert result.cores == 2
        assert all(ipc > 0 for ipc in result.ipc_together)

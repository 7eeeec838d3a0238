"""Tests for the experiment runner and sensitivity sweeps."""

import pytest
from conftest import CountingRunner

from repro.analysis import ExperimentRunner, run_levels, sweep_system
from repro.runner import SimulationRunner, levels_job
from repro.stats.metrics import geometric_mean
from repro.workloads import spec_trace


@pytest.fixture(scope="module")
def small_suite():
    return [spec_trace("bwaves_like", 0.1), spec_trace("gcc_like", 0.1)]


class TestRunLevels:
    def test_runs_registered_config(self, small_suite):
        result = run_levels(small_suite[0], "ipcp")
        assert result.ipc > 0
        assert result.l1_prefetcher.name == "ipcp"

    def test_none_config_has_no_prefetcher(self, small_suite):
        result = run_levels(small_suite[0], "none")
        assert result.l1_prefetcher is None
        assert result.l1.pf_issued == 0


class TestExperimentRunner:
    def test_results_are_memoized(self, small_suite):
        runner = ExperimentRunner(small_suite)
        first = runner.result("bwaves_like", "none")
        second = runner.result("bwaves_like", "none")
        assert first is second

    def test_speedups_per_trace(self, small_suite):
        runner = ExperimentRunner(small_suite)
        speedups = runner.speedups("ipcp")
        assert set(speedups) == {"bwaves_like", "gcc_like"}
        assert all(value > 0 for value in speedups.values())

    def test_speedup_table_shape(self, small_suite):
        runner = ExperimentRunner(small_suite)
        rows = runner.speedup_table(["ipcp", "next_line"])
        assert len(rows) == len(small_suite) + 1  # + geomean row
        assert rows[-1][0] == "geomean"
        assert len(rows[0]) == 3

    def test_mean_speedup_positive(self, small_suite):
        runner = ExperimentRunner(small_suite)
        assert runner.mean_speedup("ipcp") > 0.9


class TestSweeps:
    def test_dram_bandwidth_sweep(self):
        points = [sweep_system(dram_bandwidth_gbps=bw)
                  for bw in (3.2, 12.8, 25.0)]
        assert [p.dram.bandwidth_gbps for p in points] == [3.2, 12.8, 25.0]

    def test_cache_size_override(self):
        params = sweep_system(l1_size=32 * 1024)
        assert params.l1d.size == 32 * 1024

    def test_pq_mshr_override(self):
        params = sweep_system(l1_pq=2, l1_mshr=4)
        assert params.l1d.pq_entries == 2
        assert params.l1d.mshr_entries == 4

    def test_replacement_override_applies_to_llc(self):
        params = sweep_system(replacement="srrip")
        assert params.llc.replacement == "srrip"
        assert params.l1d.replacement == "lru"

    def test_default_sweep_matches_table2(self):
        params = sweep_system()
        assert params.l1d.size == 48 * 1024
        assert params.llc.size == 2 * 1024 * 1024

    def test_swept_system_simulates(self, small_suite):
        params = sweep_system(dram_bandwidth_gbps=3.2)
        result = run_levels(small_suite[0], "ipcp", params)
        assert result.ipc > 0


class TestSweepValidation:
    """sweep_system must reject size/way combinations that cannot give
    an integral power-of-two set count, instead of silently keeping
    default way counts that blow up (or mis-index) downstream."""

    def test_bad_l1_size_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="L1D"):
            sweep_system(l1_size=40 * 1024)  # 80 or 53.3 sets — neither works

    def test_bad_l2_size_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="L2"):
            sweep_system(l2_size=384 * 1024)  # 768 sets at 8 ways

    def test_bad_llc_size_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="LLC"):
            sweep_system(llc_size=3 * 1024 * 1024)  # 3072 sets at 16 ways

    def test_l1_falls_back_to_eight_ways(self):
        params = sweep_system(l1_size=64 * 1024)
        assert params.l1d.ways == 8
        assert params.l1d.sets == 128

    def test_l1_prefers_twelve_ways(self):
        params = sweep_system(l1_size=96 * 1024)
        assert params.l1d.ways == 12
        assert params.l1d.sets == 128


class TestRunSweep:
    def test_run_sweep_matches_pointwise_results(self, small_suite):
        points = [(str(bw), sweep_system(dram_bandwidth_gbps=bw))
                  for bw in (3.2, 25.0)]
        rows = ExperimentRunner(small_suite).sweep_table(["ipcp"], points)
        assert [row[0] for row in rows] == ["3.2", "25.0"]
        for row in rows:
            assert len(row) == 2 and row[1] > 0

        # Each point must equal an independent sequential computation.
        for (_, params), row in zip(points, rows):
            assert row[1] == geometric_mean(
                run_levels(trace, "ipcp", params).speedup_over(
                    run_levels(trace, "none", params))
                for trace in small_suite)

    def test_params_axis_resolves_in_one_run(self, small_suite):
        points = [(policy, sweep_system(replacement=policy))
                  for policy in ("lru", "srrip")]
        backend = CountingRunner()
        runner = ExperimentRunner(small_suite, runner=backend)
        runner.sweep_table(["ipcp", "next_line"], points)
        # 2 points x 2 traces x (2 configs + baseline), in one batch.
        assert backend.batches == [12]
        for _, params in points:
            for trace in small_suite:
                alone = SimulationRunner().run_one(
                    levels_job(trace, "ipcp", params))
                assert runner.result(trace.name, "ipcp", params) == alone

    def test_params_is_one_more_coordinate(self, small_suite):
        runner = ExperimentRunner(small_suite)
        slow = sweep_system(dram_bandwidth_gbps=3.2)
        default = runner.result("bwaves_like", "ipcp")
        assert runner.result("bwaves_like", "ipcp", None) is default
        assert runner.result("bwaves_like", "ipcp", slow) != default
        assert runner.result("bwaves_like", "ipcp", slow) == run_levels(
            small_suite[0], "ipcp", slow)

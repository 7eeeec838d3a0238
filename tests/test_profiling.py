"""Tests for the per-phase cProfile hooks (``repro.telemetry.profiling``)."""

import pytest

from repro.core import IpcpL1
from repro.errors import ConfigurationError

from conftest import make_stream_trace


class TestProfiling:
    def test_profile_phases_cover_warmup_and_roi(self):
        from repro.telemetry.profiling import profile_phases

        trace = make_stream_trace(n_loads=2_000)
        profiles = profile_phases(trace, l1_prefetcher=IpcpL1(), top=5)
        assert [p.phase for p in profiles] == ["warmup", "roi"]
        for profile in profiles:
            assert profile.instructions > 0 and profile.cycles > 0
            assert 1 <= len(profile.functions) <= 5
            assert len(profile.rows()) == len(profile.functions)

    def test_profile_job_rejects_other_kinds(self):
        from repro.runner.job import alone_ipc_job
        from repro.telemetry.profiling import profile_job

        from repro.params import SystemParams

        spec = alone_ipc_job(make_stream_trace(n_loads=100),
                             SystemParams(), warmup=0, roi=100, seed=1)
        with pytest.raises(ConfigurationError):
            profile_job(spec)

    def test_top_validation(self):
        from repro.telemetry.profiling import profile_phases

        with pytest.raises(ConfigurationError):
            profile_phases(make_stream_trace(n_loads=100), top=0)

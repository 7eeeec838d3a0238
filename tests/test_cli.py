"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_trace, main
from repro.errors import (
    ConfigurationError,
    JobTimeout,
    ReproError,
)


class TestBuildTrace:
    def test_resolves_spec_workloads(self):
        assert build_trace("lbm_like", 0.05).name == "lbm_like"

    def test_resolves_cloudsuite_workloads(self):
        assert build_trace("cassandra_like", 0.05).name == "cassandra_like"

    def test_resolves_neural_workloads(self):
        assert build_trace("lstm_like", 0.05).name == "lstm_like"

    def test_resolves_extension_workloads(self):
        trace = build_trace("temporal_loop_like", 0.05)
        assert trace.name == "temporal_loop_like"

    def test_unknown_workload_raises(self):
        with pytest.raises(ReproError):
            build_trace("not_a_workload", 1.0)


class TestCommands:
    def test_list_prefetchers(self, capsys):
        assert main(["list-prefetchers"]) == 0
        out = capsys.readouterr().out
        assert "ipcp" in out and "bingo" in out and "KB" in out

    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "lbm_like" in out and "cloudsuite" in out

    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--workload", "bwaves_like",
                     "--prefetcher", "ipcp", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "L1 coverage" in out

    def test_compare_prints_table(self, capsys):
        code = main(["compare", "--workloads", "bwaves_like",
                     "--prefetchers", "ipcp,next_line", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_analyze_prints_profile(self, capsys):
        code = main(["analyze", "--workload", "wrf_like", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "complex_stride" in out

    def test_mix_prints_weighted_speedup(self, capsys):
        code = main(["mix", "--workload", "bwaves_like", "--cores", "2",
                     "--prefetcher", "ipcp", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out

    def test_unknown_workload_exits_nonzero(self, capsys):
        code = main(["run", "--workload", "bogus", "--scale", "0.1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_prefetcher_exits_config_error(self, capsys):
        code = main(["run", "--workload", "bwaves_like",
                     "--prefetcher", "bogus", "--scale", "0.1"])
        assert code == ConfigurationError.exit_code


class TestTraceFileCommands:
    def test_dump_and_run_trace_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "w.trace")
        assert main(["dump-trace", "--workload", "bwaves_like",
                     "--out", out, "--scale", "0.05"]) == 0
        capsys.readouterr()
        assert main(["run-trace", "--trace-file", out,
                     "--prefetcher", "ipcp"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_validate_clean_prefetcher(self, capsys):
        code = main(["validate", "--prefetcher", "ipcp", "--scale", "0.1"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_cross_page_flag(self, capsys):
        code = main(["validate", "--prefetcher", "isb",
                     "--allow-cross-page", "--scale", "0.1"])
        assert code == 0


class TestTelemetryCommands:
    def test_trace_reconciles_and_writes_jsonl(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "events.jsonl")
        code = main(["trace", "--workload", "bwaves_like", "--scale", "0.1",
                     "--out", out, "--no-cache"])
        assert code == 0
        text = capsys.readouterr().out
        assert "reconcile OK" in text
        assert "issue" in text and "useful" in text
        with open(out) as fh:
            events = [json.loads(line) for line in fh]
        assert events
        assert {"issue", "useful", "drop", "meta"} <= {
            e["kind"] for e in events
        }

    def test_trace_replay_summarizes_a_stream(self, tmp_path, capsys):
        out = str(tmp_path / "events.jsonl")
        assert main(["trace", "--workload", "bwaves_like", "--scale", "0.1",
                     "--out", out, "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["trace", "--replay", out]) == 0
        text = capsys.readouterr().out
        assert "events" in text and "issue" in text

    def test_trace_csv_export(self, tmp_path, capsys):
        import csv

        out = str(tmp_path / "events.csv")
        assert main(["trace", "--workload", "bwaves_like", "--scale", "0.1",
                     "--out", out, "--no-cache"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and "pf_class" in rows[0]

    def test_trace_without_workload_or_replay_errors(self, capsys):
        code = main(["trace", "--no-cache"])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_trace_jobs_flow_through_the_cache(self, tmp_path, capsys):
        argv = ["trace", "--workload", "bwaves_like", "--scale", "0.1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # Warm invocation replays the cached TraceRunResult verbatim.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_profile_prints_phase_tables(self, capsys):
        code = main(["profile", "--workload", "bwaves_like",
                     "--scale", "0.05", "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warmup" in out and "roi" in out
        assert "tottime" in out and "cpu.py" in out


class TestRunnerOptions:
    def test_compare_with_jobs_and_cache(self, tmp_path, capsys):
        argv = ["compare", "--workloads", "bwaves_like,gcc_like",
                "--prefetchers", "ipcp", "--scale", "0.1",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "geomean" in first
        # Second invocation resolves entirely from the persistent cache
        # and must print the identical table.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_run_no_cache(self, capsys):
        code = main(["run", "--workload", "bwaves_like", "--scale", "0.1",
                     "--no-cache"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_sweep_prints_axis_table(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "dram-bandwidth",
                     "--values", "3.2,25.0",
                     "--workloads", "bwaves_like", "--prefetchers", "ipcp",
                     "--scale", "0.1",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "dram-bandwidth" in out
        assert "3.2" in out and "25.0" in out

    def test_sweep_rejects_invalid_size(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "l1-size", "--values", "40k",
                     "--workloads", "bwaves_like", "--scale", "0.1",
                     "--no-cache"])
        assert code == 2
        assert "power-of-two" in capsys.readouterr().err

    def test_parse_size_suffixes(self):
        from repro.cli import parse_size

        assert parse_size("32k") == 32 * 1024
        assert parse_size("2m") == 2 * 1024 * 1024
        assert parse_size("4096") == 4096
        with pytest.raises(ReproError):
            parse_size("huge")

    def test_sweep_l2_size_axis(self, tmp_path, capsys):
        code = main(["sweep", "--axis", "l2-size", "--values", "512k,1m",
                     "--workloads", "bwaves_like", "--prefetchers", "ipcp",
                     "--scale", "0.1", "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "l2-size" in out and "512k" in out and "1m" in out

    def test_sweep_replacement_axis_no_cache(self, capsys):
        code = main(["sweep", "--axis", "replacement", "--values", "lru,srrip",
                     "--workloads", "bwaves_like", "--prefetchers", "ipcp",
                     "--scale", "0.1", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lru" in out and "srrip" in out


class TestVerifyCommand:
    GOLDEN_ONLY = ["verify", "--skip-oracle", "--skip-invariants"]
    TINY = ["--workloads", "bwaves_like", "--prefetchers", "none,ipcp",
            "--scale", "0.1"]

    def _write_baseline(self, path, tmp_path):
        return main(self.GOLDEN_ONLY + self.TINY + [
            "--baseline", path, "--update-baseline",
            "--cache-dir", str(tmp_path / "cache")])

    def test_oracle_phase_passes(self, capsys):
        code = main(["verify", "--skip-golden", "--skip-invariants"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lockstep" in out and "OK" in out

    def test_invariant_phase_passes(self, capsys):
        code = main(["verify", "--skip-golden", "--skip-oracle",
                     "--invariant-scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants" in out and "OK" in out

    def test_golden_update_then_verify_roundtrip(self, tmp_path, capsys):
        baseline = str(tmp_path / "golden.json")
        assert self._write_baseline(baseline, tmp_path) == 0
        assert "wrote 2 cells" in capsys.readouterr().out
        code = main(self.GOLDEN_ONLY + [
            "--baseline", baseline, "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "cells match" in capsys.readouterr().out

    def test_golden_drift_fails_and_suggests_rebaseline(
            self, tmp_path, capsys):
        import json

        baseline = str(tmp_path / "golden.json")
        assert self._write_baseline(baseline, tmp_path) == 0
        with open(baseline) as fh:
            document = json.load(fh)
        document["cells"]["bwaves_like/ipcp"]["ipc"] *= 2
        with open(baseline, "w") as fh:
            json.dump(document, fh)
        capsys.readouterr()
        code = main(self.GOLDEN_ONLY + [
            "--baseline", baseline, "--cache-dir", str(tmp_path / "cache")])
        assert code == 1
        out = capsys.readouterr().out
        assert "drift" in out and "--update-baseline" in out

    def test_golden_tolerance_absorbs_drift(self, tmp_path, capsys):
        import json

        baseline = str(tmp_path / "golden.json")
        assert self._write_baseline(baseline, tmp_path) == 0
        with open(baseline) as fh:
            document = json.load(fh)
        document["cells"]["bwaves_like/ipcp"]["ipc"] *= 1.0001
        with open(baseline, "w") as fh:
            json.dump(document, fh)
        capsys.readouterr()
        # Exact comparison flags the 0.01% ipc nudge ...
        assert main(self.GOLDEN_ONLY + [
            "--baseline", baseline,
            "--cache-dir", str(tmp_path / "cache")]) == 1
        # ... a 1% tolerance absorbs it.
        assert main(self.GOLDEN_ONLY + [
            "--baseline", baseline, "--tolerance", "0.01",
            "--cache-dir", str(tmp_path / "cache")]) == 0

    def test_missing_baseline_is_an_error(self, tmp_path, capsys):
        code = main(self.GOLDEN_ONLY + [
            "--baseline", str(tmp_path / "absent.json"), "--no-cache"])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestErrorHygiene:
    def test_errors_are_one_line_without_traceback(self, capsys):
        main(["run", "--workload", "bogus", "--scale", "0.1"])
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_timeout_exhaustion_exits_with_timeout_code(self, capsys):
        # A 1ms deadline no simulation can meet, with no retry budget:
        # the run must fail with JobTimeout's dedicated exit code.
        code = main(["compare", "--workloads", "bwaves_like",
                     "--prefetchers", "none", "--scale", "0.05",
                     "--jobs", "2", "--timeout", "0.001",
                     "--retries", "1", "--no-cache"])
        assert code == JobTimeout.exit_code
        err = capsys.readouterr().err
        assert "error:" in err and "exceeded" in err

    def test_degraded_renders_failed_cells_and_exits_zero(self, capsys):
        code = main(["compare", "--workloads", "bwaves_like",
                     "--prefetchers", "none", "--scale", "0.05",
                     "--jobs", "2", "--timeout", "0.001",
                     "--retries", "1", "--no-cache", "--degraded"])
        assert code == 0
        assert "FAILED(JobTimeout)" in capsys.readouterr().out

    def test_interrupt_flushes_journal_and_exits_130(
            self, tmp_path, capsys, monkeypatch):
        from repro.runner.pool import SimulationRunner

        def interrupted_run(self, specs, degraded=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(SimulationRunner, "run", interrupted_run)
        journal = str(tmp_path / "sweep.journal")
        code = main(["compare", "--workloads", "bwaves_like",
                     "--prefetchers", "none", "--scale", "0.05",
                     "--journal", journal, "--no-cache"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "1 checkpoint journal(s) flushed" in err
        assert os.path.exists(journal)


class TestResilienceOptions:
    def test_journal_resume_across_invocations(self, tmp_path, capsys):
        argv = ["compare", "--workloads", "bwaves_like",
                "--prefetchers", "ipcp", "--scale", "0.1",
                "--cache-dir", str(tmp_path / "cache"),
                "--journal", str(tmp_path / "sweep.journal")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # The journal records both resolved cells.
        with open(tmp_path / "sweep.journal") as fh:
            assert len(fh.read().strip().splitlines()) == 2
        # Resumed invocation reproduces the identical table.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_retries_and_timeout_accepted_on_clean_run(self, capsys):
        code = main(["run", "--workload", "bwaves_like", "--scale", "0.1",
                     "--retries", "2", "--timeout", "60", "--jobs", "2",
                     "--no-cache"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out


class TestChaosCommand:
    def test_chaos_proof_transient_and_corrupt(self, capsys):
        # Serial, crash/hang-free schedule keeps this test fast while
        # still exercising injected transients, cache corruption, and
        # the bit-identical recovery proof end to end.
        code = main(["chaos", "--workloads", "bwaves_like",
                     "--prefetchers", "none,ipcp", "--scale", "0.05",
                     "--jobs", "1", "--crash-rate", "0",
                     "--hang-rate", "0", "--transient-rate", "1.0",
                     "--corrupt-rate", "1.0", "--retries", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos proof OK" in out
        assert "bit-identical" in out
        assert "transient retries" in out
        assert "corrupt entries detected & evicted" in out

    def test_chaos_rejects_bad_rates(self, capsys):
        code = main(["chaos", "--crash-rate", "0.9",
                     "--transient-rate", "0.9", "--scale", "0.05"])
        assert code == ConfigurationError.exit_code
        assert "sum" in capsys.readouterr().err

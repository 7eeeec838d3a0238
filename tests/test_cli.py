"""Tests for the command-line interface."""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.ingest import write_binary
from repro.ingest.binary import FOOTER_SIZE, HEADER_SIZE, RECORD_SIZE
from repro.errors import (
    ConfigurationError,
    JobTimeout,
    ReproError,
    TraceError,
)
from repro.verify import golden
from repro.workloads import WORKLOAD_FAMILIES, workload_trace


class TestBuildTrace:
    def test_resolves_spec_workloads(self):
        assert workload_trace("lbm_like", 0.05).name == "lbm_like"

    def test_resolves_gap_and_stream_workloads(self):
        assert workload_trace("bfs_like", 0.02).name == "bfs_like"
        assert workload_trace("stream_scale", 0.02).name == "stream_scale"

    def test_seed_defaults_to_the_family_default(self):
        from repro.workloads import cloudsuite_trace, gap_trace

        assert list(workload_trace("cassandra_like", 0.02)) == list(
            cloudsuite_trace("cassandra_like", 0.02, seed=11))
        assert list(workload_trace("bfs_like", 0.02, seed=8)) == list(
            gap_trace("bfs_like", 0.02, seed=8))

    def test_resolves_cloudsuite_workloads(self):
        assert workload_trace("cassandra_like", 0.05).name == "cassandra_like"

    def test_resolves_neural_workloads(self):
        assert workload_trace("lstm_like", 0.05).name == "lstm_like"

    def test_resolves_extension_workloads(self):
        trace = workload_trace("temporal_loop_like", 0.05)
        assert trace.name == "temporal_loop_like"

    def test_unknown_workload_raises(self, capsys):
        with pytest.raises(ReproError, match="list-workloads"):
            workload_trace("not_a_workload", 1.0)
        assert main(["run", "--workload", "not_a_workload",
                     "--scale", "0.05"]) == 2
        assert "unknown workload 'not_a_workload'" in capsys.readouterr().err

    def test_every_registry_name_resolves_and_is_pinned(self):
        # One family table feeds --workload, list-workloads and the
        # `traces` pins, so a new registry reaches all three or none.
        pins = golden.load_baseline(golden.DEFAULT_BASELINE_PATH)["traces"]
        names = [(family, name) for family, registry, _ in WORKLOAD_FAMILIES
                 for name in registry]
        assert len(names) == len({name for _, name in names})
        for family, name in names:
            assert workload_trace(name, 0.02).name == name
            for seed in golden.TRACE_SEEDS:
                assert f"{family}/{name}@{seed}" in pins
        assert len(pins) == len(names) * len(golden.TRACE_SEEDS) + len(
            golden.TRACE_SEEDS)  # plus one dense trace per seed


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

    @pytest.mark.parametrize("workload", ["bfs_like", "cassandra_like"])
    def test_mix_takes_every_workload_family(self, workload, capsys):
        code = main(["mix", "--workload", workload, "--cores", "2",
                     "--scale", "0.05", "--no-cache"])
        assert code == 0
        assert f"mix of {workload}" in capsys.readouterr().out

    def test_mix_rejects_an_unknown_workload_like_run(self, capsys):
        assert main(["mix", "--workload", "not_a_workload", "--cores", "2",
                     "--scale", "0.05", "--no-cache"]) == 2
        assert "unknown workload 'not_a_workload'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["mix"], ["mix", "run"]])
    def test_mix_needs_a_workload_and_takes_no_action(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # Only simulate(engine=...) selects an engine.
        ["run", "--workload", "lbm_like", "--engine", "batched"],
        ["compare", "--workloads", "lbm_like", "--engine", "batched"],
        ["mix", "--workload", "lbm_like", "--engine", "batched"],
        ["frontend", "--engine", "batched"],
        ["trace", "--workload", "lbm_like"],
        ["validate", "--prefetcher", "ipcp"],
        ["chaos"],
        ["ingest", "chaos"],
        ["ingest", "run", "--file", "trace.k6"],
        ["convert", "trace.k6", "trace.rib"],
        # A job that exhausts its retry budget ends the run: no command
        # keeps a failure journal or renders a FAILED(reason) cell.
        ["paper", "--only", "sens-dram-bandwidth", "--journal", "j"],
        ["run", "--workload", "bwaves_like", "--journal", "j"],
        ["run", "--workload", "bwaves_like", "--degraded"],
        ["mix", "--workload", "lbm_like", "--degraded"],
        ["paper", "--only", "sens-dram-bandwidth", "--degraded"],
        ["verify", "--degraded"],
        # The four fe-* claims run the frontend suite.
        ["frontend"],
        ["compare", "--workloads", "bwaves_like", "--degraded"],
        ["sweep", "--axis", "l1-size", "--values", "32k",
         "--workloads", "bwaves_like", "--journal", "j"],
        # A damaged trace file ends the run with its fault's exit code.
        ["run-trace", "--trace-file", "t.rib", "--policy", "lenient"],
        ["run-trace", "--trace-file", "t.rib", "--max-errors", "3"],
        ["run-trace", "--trace-file", "t.rib", "--quarantine-path", "q"],
    ])
    def test_removed_surfaces_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_workload_exits_nonzero(self, capsys):
        code = main(["run", "--workload", "bogus", "--scale", "0.1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_prefetcher_exits_config_error(self, capsys):
        code = main(["run", "--workload", "bwaves_like",
                     "--prefetcher", "bogus", "--scale", "0.1"])
        assert code == ConfigurationError.exit_code


def _tear_last_record(blob):
    del blob[len(blob) - FOOTER_SIZE - RECORD_SIZE // 2:]


def _rot_first_ip(blob):
    blob[HEADER_SIZE + 1] ^= 0x01   # low byte of record 0's ip


def _smash_first_marker(blob):
    blob[HEADER_SIZE + RECORD_SIZE - 2] ^= 0xFF


def _text_trace(blob):
    # A DRAMSim2-style text trace is no RIB1 file, not an empty one.
    blob[:] = b"0x10000 P_MEM_RD 10\n0x10040 P_MEM_WR 20\n"


class TestTraceFileCommands:
    def _dumped(self, tmp_path, capsys, damage=None) -> str:
        out = str(tmp_path / "w.rib")
        assert main(["dump-trace", "--workload", "bwaves_like",
                     "--out", out, "--scale", "0.05"]) == 0
        capsys.readouterr()
        if damage is not None:
            with open(out, "rb") as fh:
                blob = bytearray(fh.read())
            damage(blob)
            with open(out, "wb") as fh:
                fh.write(bytes(blob))
        return out

    def test_dump_and_run_trace_roundtrip(self, tmp_path, capsys):
        out = self._dumped(tmp_path, capsys)
        assert main(["run-trace", "--trace-file", out,
                     "--prefetcher", "ipcp"]) == 0
        printed = capsys.readouterr().out
        assert "speedup" in printed
        assert printed.startswith(f"{out} (")

    @pytest.mark.parametrize("damage, code", [
        (_smash_first_marker, 14),
        (_tear_last_record, 15),
        (_rot_first_ip, 16),
        (_text_trace, 14),
    ], ids=["bad-marker", "torn-record", "bit-rot", "text-trace"])
    def test_run_trace_exits_with_the_fault_code(
            self, damage, code, tmp_path, capsys):
        out = self._dumped(tmp_path, capsys, damage)
        assert main(["run-trace", "--trace-file", out]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, code", [
        (["run-trace", "--trace-file", "{tmp}/absent.rib"], 4),
        (["run-trace", "--trace-file", "{tmp}"], 4),
        (["dump-trace", "--workload", "lbm_like", "--scale", "0.05",
          "--out", "{tmp}/absent/t.rib"], 2),
    ], ids=["missing-file", "directory", "missing-out-dir"])
    def test_unopenable_path_is_a_one_line_error(
            self, argv, code, tmp_path, capsys):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_run_trace_rejects_an_empty_trace(self, tmp_path, capsys):
        empty = str(tmp_path / "empty.rib")
        write_binary([], empty)
        assert main(["run-trace", "--trace-file", empty]) == (
            TraceError.exit_code)
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert "no records to simulate" in captured.err
        assert captured.out == ""


class TestProfileCommand:
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

    def test_sweep_rejects_a_malformed_bandwidth(self, capsys):
        code = main(["sweep", "--axis", "dram-bandwidth",
                     "--values", "12.8,fast", "--workloads", "bwaves_like",
                     "--scale", "0.05", "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad bandwidth 'fast'")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_sweep_rejects_a_non_finite_bandwidth(self, value, capsys):
        code = main(["sweep", "--axis", "dram-bandwidth", "--values", value,
                     "--workloads", "bwaves_like", "--scale", "0.05",
                     "--no-cache"])
        assert code == ConfigurationError.exit_code
        assert "DRAM bandwidth" in capsys.readouterr().err

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


GOLDEN_ONLY = ["verify", "--skip-oracle", "--skip-invariants",
               "--skip-cross-engine"]
TINY = ["--workloads", "bwaves_like", "--prefetchers", "none,ipcp",
        "--scale", "0.1"]


def committed_trace_pins() -> dict:
    """The committed ``traces`` section, read instead of regenerated.

    The pin tests recompute every pin (``pin_drift`` in conftest.py);
    the command tests only need the traces section to round-trip, so
    they skip its generators.
    """
    return golden.load_baseline(golden.DEFAULT_BASELINE_PATH)["traces"]


@pytest.fixture(scope="module")
def tiny_baseline(tmp_path_factory, pin_cache_dir):
    """One TINY-grid baseline, written once, with the output it printed.

    Its simulated fixed sections are the committed file's, so they
    replay from the shared pin cache.
    """
    path = str(tmp_path_factory.mktemp("tiny") / "golden.json")
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(out):
        patch.setattr(golden, "trace_pins", committed_trace_pins)
        code = main(GOLDEN_ONLY + TINY + [
            "--baseline", path, "--update-baseline",
            "--cache-dir", pin_cache_dir])
    assert code == 0, out.getvalue()
    return path, out.getvalue()


class TestVerifyCommand:
    # Each phase test skips the others; the full cross-engine grid runs
    # in CI, here it runs once on the TINY grid.

    def test_oracle_phase_passes(self, capsys):
        code = main(["verify", "--skip-golden", "--skip-invariants",
                     "--skip-cross-engine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lockstep" in out and "OK" in out

    def test_invariant_phase_passes(self, capsys):
        # A sampled registry keeps this a wiring test; the sweep over
        # every configuration runs in CI's `repro verify` step.
        code = main(["verify", "--skip-golden", "--skip-oracle",
                     "--skip-cross-engine", "--invariant-scale", "0.02",
                     "--prefetchers", "ipcp,next_line,isb,spp_ppf_dspatch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants" in out and "OK" in out

    def test_cross_engine_phase_passes(self, capsys):
        import re

        code = main(["verify", "--skip-oracle", "--skip-invariants",
                     "--skip-golden"] + TINY)
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"(\d+) cells, (\d+) fused, \d+ fallback, "
                          r"0 mismatches", out)
        assert match, out
        assert int(match.group(2)) >= 1

    def test_invariant_phase_honours_prefetchers(self, monkeypatch, capsys):
        from repro.prefetchers.base import Prefetcher, PrefetchRequest
        from repro.prefetchers.registry import _configurations
        from repro.workloads import full_suite

        class Flood(Prefetcher):
            def __init__(self):
                super().__init__(name="flood")

            def on_access(self, ctx):
                return [PrefetchRequest(addr=ctx.addr) for _ in range(100)]

        monkeypatch.setitem(_configurations(), "flood", {"l1": Flood})
        audit = ["verify", "--skip-oracle", "--skip-golden",
                 "--skip-cross-engine", "--invariant-scale", "0.02"]
        assert main(audit + ["--prefetchers", "next_line"]) == 0
        cells = len(full_suite(scale=0.02))
        assert (f"OK — {cells} (prefetcher, trace) cells"
                in capsys.readouterr().out)
        assert main(audit + ["--prefetchers", "flood"]) == 1
        assert "burst_bound" in capsys.readouterr().out

    def test_golden_update_then_verify_roundtrip(
            self, tiny_baseline, pin_cache_dir, monkeypatch, capsys):
        monkeypatch.setattr(golden, "trace_pins", committed_trace_pins)
        baseline, written = tiny_baseline
        assert (f"wrote 2 cells, 28 non_lru, 1 mixes, 96 traces to "
                f"{baseline}") in written
        code = main(GOLDEN_ONLY + [
            "--baseline", baseline, "--cache-dir", pin_cache_dir])
        assert code == 0
        assert "2 cells, 28 non_lru, 1 mixes, 96 traces match" in (
            capsys.readouterr().out)

    def test_golden_drift_fails_and_suggests_rebaseline(
            self, tiny_baseline, pin_cache_dir, tmp_path, monkeypatch,
            capsys):
        monkeypatch.setattr(golden, "trace_pins", committed_trace_pins)
        with open(tiny_baseline[0]) as fh:
            document = json.load(fh)
        document["cells"]["bwaves_like/ipcp"]["ipc"] *= 2
        document["mixes"]["lbm_like+gcc_like/ipcp"] = "0" * 32
        baseline = str(tmp_path / "golden.json")
        with open(baseline, "w") as fh:
            json.dump(document, fh)
        code = main(GOLDEN_ONLY + [
            "--baseline", baseline, "--cache-dir", pin_cache_dir])
        assert code == 1
        out = capsys.readouterr().out
        assert "bwaves_like/ipcp: ipc " in out
        assert "mixes: lbm_like+gcc_like/ipcp " in out
        assert "drift detected" in out and "--update-baseline" in out

    def test_default_baseline_is_the_checkouts(self, tmp_path, monkeypatch,
                                              capsys):
        # From an unrelated working directory the committed file is
        # found and nothing is written there.  The pin tests recompute
        # its pins; here the command reads them back.
        path = golden.DEFAULT_BASELINE_PATH
        monkeypatch.setattr(golden, "collect_golden_stats",
                            lambda **_: golden.load_baseline(path))
        monkeypatch.chdir(tmp_path)
        code = main(GOLDEN_ONLY + ["--no-cache"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"match {path}" in out
        assert list(tmp_path.iterdir()) == []

    def test_missing_baseline_is_an_error(self, tmp_path, capsys):
        code = main(GOLDEN_ONLY + [
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

    @staticmethod
    def _assert_times_out(command, capsys):
        # A 1ms deadline no simulation can meet, with no retry budget:
        # the table command must fail with JobTimeout's exit code and
        # print no table.
        budget = ["--workloads", "bwaves_like", "--prefetchers", "none",
                  "--scale", "0.05", "--jobs", "2", "--timeout", "0.001",
                  "--retries", "1", "--no-cache"]
        assert main(command + budget) == JobTimeout.exit_code
        captured = capsys.readouterr()
        assert "error:" in captured.err and "exceeded" in captured.err
        assert captured.out == ""

    def test_timeout_exhaustion_exits_with_timeout_code(self, capsys):
        self._assert_times_out(["compare"], capsys)

    def test_sweep_timeout_exhaustion_exits_with_timeout_code(self, capsys):
        self._assert_times_out(
            ["sweep", "--axis", "dram-bandwidth", "--values", "3.2"], capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "lbm_like", "--scale"],
        ["compare", "--workloads", "lbm_like", "--scale"],
        ["sweep", "--axis", "l1-size", "--values", "32k",
         "--workloads", "lbm_like", "--scale"],
        ["analyze", "--workload", "lbm_like", "--scale"],
        ["dump-trace", "--workload", "lbm_like", "--out", "t.rib",
         "--scale"],
        ["mix", "--workload", "lbm_like", "--scale"],
        ["profile", "--workload", "lbm_like", "--scale"],
        # --timeout shares the scales' finite-positive type.
        ["run", "--workload", "lbm_like", "--jobs", "2", "--timeout"],
        ["verify", "--scale"],
        ["verify", "--invariant-scale"],
    ])
    def test_scale_must_be_finite_and_positive(self, argv, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [value])
        assert excinfo.value.code == 2
        assert "expected a finite number above 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_retries_must_be_at_least_one(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "lbm_like", "--retries", value])
        assert excinfo.value.code == 2
        assert "expected an integer of at least 1" in capsys.readouterr().err

    def test_mutate_refuses_a_timeout(self, capsys):
        # A mutation patches the simulator in this process, and a
        # timeout needs worker processes: refuse the pair up front.
        code = main(["paper", "--check", "--mutate", "cs-off",
                     "--jobs", "2", "--timeout", "30"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--mutate" in captured.err and "--timeout" in captured.err
        assert "forcing" not in captured.out

    def test_timeout_with_one_job_is_rejected(self, capsys):
        # One job runs in-process, where no deadline can be enforced.
        code = main(["run", "--workload", "bwaves_like", "--scale", "0.05",
                     "--timeout", "0.001", "--retries", "1", "--no-cache"])
        assert code == 2
        assert "jobs >= 2" in capsys.readouterr().err

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        from repro.runner.pool import SimulationRunner

        def interrupted_run(self, specs):
            raise KeyboardInterrupt

        monkeypatch.setattr(SimulationRunner, "run", interrupted_run)
        code = main(["compare", "--workloads", "bwaves_like",
                     "--prefetchers", "none", "--scale", "0.05",
                     "--no-cache"])
        assert code == 130
        assert capsys.readouterr().err == "interrupted\n"


class TestResilienceOptions:
    def test_retries_and_timeout_accepted_on_clean_run(self, capsys):
        code = main(["run", "--workload", "bwaves_like", "--scale", "0.1",
                     "--retries", "2", "--timeout", "60", "--jobs", "2",
                     "--no-cache"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

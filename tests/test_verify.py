"""Tests for the differential verification subsystem (repro.verify)."""

import json

import pytest

from repro.analysis.experiments import run_levels
from repro.core.ipcp_l1 import IpcpConfig, IpcpL1, PfClass
from repro.core.ipcp_l2 import IpcpL2
from repro.core.metadata import MetaClass
from repro.errors import ReproError
from repro.prefetchers import available_prefetchers
from repro.prefetchers.base import AccessContext, Prefetcher, PrefetchRequest
from repro.runner import ResultCache, SimulationRunner
from repro.sim.engine import simulate
from repro.verify import golden
from repro.verify.golden import (
    DEFAULT_BASELINE_PATH,
    cell_metrics,
    collect_golden_stats,
    compare_to_baseline,
    load_baseline,
    result_digest,
    save_baseline,
)
from repro.verify.invariants import (
    CROSS_PAGE_PREFETCHERS,
    InvariantChecker,
    InvariantError,
    check_invariants,
    run_invariant_sweep,
)
from repro.verify.lockstep import LockstepDiffer, run_lockstep_suite
from repro.verify.oracles import OracleIpcpL1
from repro.workloads import spec_trace


# --------------------------------------------------------------------- #
# Oracle lockstep
# --------------------------------------------------------------------- #

class TestLockstep:
    @pytest.mark.parametrize("workload", [
        "bwaves_like", "gcc_like", "mcf_i_like", "omnetpp_like",
    ])
    @pytest.mark.parametrize("mpki", [10.0, 60.0])
    def test_production_matches_oracle(self, workload, mpki):
        differ = LockstepDiffer(mpki=mpki)
        report = differ.run(spec_trace(workload, 0.15))
        assert report.ok, report.describe()
        assert report.accesses > 100

    def test_suite_runner_labels_cells(self):
        reports = run_lockstep_suite(
            traces=[spec_trace("bwaves_like", 0.05)], mpki_values=(10.0,)
        )
        assert len(reports) == 1
        assert reports[0].trace_name == "bwaves_like@mpki10"
        assert reports[0].ok

    def test_detects_degree_mutation(self):
        differ = LockstepDiffer(production=IpcpL1(IpcpConfig(cs_degree=2)))
        report = differ.run(spec_trace("bwaves_like", 0.1))
        assert not report.ok
        div = report.divergence
        assert div.production != div.oracle
        assert len(div.history) > 0
        assert "divergence at demand access" in div.describe()

    def test_detects_priority_mutation(self):
        config = IpcpConfig(
            priority=(PfClass.CS, PfClass.GS, PfClass.CPLX, PfClass.NL)
        )
        differ = LockstepDiffer(production=IpcpL1(config))
        # gcc_like trains GS, so the GS<->CS swap is visible there.
        assert not differ.run(spec_trace("gcc_like", 0.1)).ok

    def test_detects_rr_filter_mutation(self):
        differ = LockstepDiffer(production=IpcpL1(IpcpConfig(rr_entries=8)))
        assert not differ.run(spec_trace("gcc_like", 0.1)).ok

    def test_detects_metadata_mutation(self):
        differ = LockstepDiffer(
            production=IpcpL1(IpcpConfig(send_metadata=False))
        )
        assert not differ.run(spec_trace("bwaves_like", 0.1)).ok

    def test_detects_negative_stride_corruption(self, monkeypatch):
        """A mutation that only disturbs backward walks is still caught."""
        import repro.core.cspt as cspt_mod

        original = cspt_mod.Cspt.train

        def positive_only(self, signature, stride):
            return original(self, signature, max(0, stride))

        monkeypatch.setattr(cspt_mod.Cspt, "train", positive_only)
        reports = run_lockstep_suite(
            traces=[spec_trace("gcc_like", 0.2)], mpki_values=(10.0,)
        )
        assert any(not r.ok for r in reports)

    def test_report_describe_mentions_counts(self):
        report = LockstepDiffer().run(spec_trace("bwaves_like", 0.05))
        assert "OK" in report.describe()
        assert str(report.accesses) in report.describe()


# --------------------------------------------------------------------- #
# Invariant checker
# --------------------------------------------------------------------- #

def _ctx(ip: int, addr: int, mpki: float = 20.0) -> AccessContext:
    from repro.prefetchers.base import AccessType

    return AccessContext(
        ip=ip, addr=addr, cache_hit=False, kind=AccessType.LOAD,
        cycle=0, mpki=mpki,
    )


class _CrossPage(Prefetcher):
    def __init__(self):
        super().__init__(name="crosser")

    def on_access(self, ctx):
        return [PrefetchRequest(addr=ctx.addr + 8192)]


class _WideMetadata(Prefetcher):
    def __init__(self):
        super().__init__(name="wide")

    def on_access(self, ctx):
        return [PrefetchRequest(addr=ctx.addr, metadata=700)]


class _WireMinusSixtyFour(Prefetcher):
    """Emits the wire encoding of -64, which no encoder may produce."""

    def __init__(self):
        super().__init__(name="minus64")

    def on_access(self, ctx):
        packet = (int(MetaClass.CS) << 7) | 0x40
        return [PrefetchRequest(addr=ctx.addr, metadata=packet)]


class _Broken(Prefetcher):
    def __init__(self):
        super().__init__(name="broken")

    def on_access(self, ctx):
        raise RuntimeError("boom")


class _Flood(Prefetcher):
    """One access, 100 in-page requests: past the burst bound."""

    def __init__(self):
        super().__init__(name="flood")

    def on_access(self, ctx):
        page_base = (ctx.addr >> 12) << 12
        return [PrefetchRequest(addr=page_base) for _ in range(100)]


class TestInvariantChecker:
    def test_ipcp_l1_runs_clean_with_feedback(self):
        report = check_invariants(IpcpL1(), spec_trace("bwaves_like", 0.15))
        assert report.ok, report.describe()
        assert report.accesses > 0 and report.requests > 0

    def test_ipcp_l2_runs_clean(self):
        report = check_invariants(IpcpL2(), spec_trace("bwaves_like", 0.1))
        assert report.ok, report.describe()

    def test_page_crossing_flagged(self):
        checker = InvariantChecker(_CrossPage())
        checker.on_access(_ctx(1, 0x1000))
        assert checker.by_invariant().get("page_containment") == 1

    def test_cross_page_allowance(self):
        checker = InvariantChecker(_CrossPage(), allow_cross_page=True)
        checker.on_access(_ctx(1, 0x1000))
        assert checker.ok

    def test_metadata_width_flagged(self):
        checker = InvariantChecker(_WideMetadata())
        checker.on_access(_ctx(1, 0x1000))
        assert checker.by_invariant().get("metadata_width") == 1

    def test_stride_saturation_policy_enforced(self):
        """The wire's -64 is representable but must never be emitted."""
        checker = InvariantChecker(_WireMinusSixtyFour())
        checker.on_access(_ctx(1, 0x1000))
        assert checker.by_invariant().get("stride_saturation") == 1

    def test_exceptions_are_captured(self):
        checker = InvariantChecker(_Broken())
        assert checker.on_access(_ctx(1, 0x1000)) == []
        assert checker.by_invariant().get("no_exceptions") == 1

    def test_runaway_burst_flagged(self):
        checker = InvariantChecker(_Flood())
        checker.on_access(_ctx(1, 0x1000))
        assert checker.by_invariant() == {"burst_bound": 1}

    def test_strict_mode_raises(self):
        checker = InvariantChecker(_CrossPage(), strict=True)
        with pytest.raises(InvariantError, match="page_containment"):
            checker.on_access(_ctx(1, 0x1000))

    def test_storage_audit_catches_tampered_budget(self):
        prefetcher = IpcpL1()
        prefetcher.storage_bits += 1
        checker = InvariantChecker(prefetcher)
        checker.on_access(_ctx(0x400, 0x1000))
        assert checker.by_invariant().get("storage_budget", 0) >= 1

    def test_wrapper_is_transparent_in_simulation(self):
        """Wrapping must not change simulation results at all."""
        trace = spec_trace("bwaves_like", 0.1)
        plain = simulate(trace, l1_prefetcher=IpcpL1(),
                         l2_prefetcher=IpcpL2())
        checker = InvariantChecker(IpcpL1())
        wrapped = simulate(trace, l1_prefetcher=checker,
                           l2_prefetcher=InvariantChecker(IpcpL2()))
        assert checker.ok, checker.violations[:3]
        assert wrapped.ipc == plain.ipc
        assert wrapped.l1.pf_issued == plain.l1.pf_issued
        assert wrapped.l1_prefetcher.counters == plain.l1_prefetcher.counters

    def test_sweep_over_sampled_registry(self):
        """A fast slice of the `repro verify` invariant sweep."""
        names = ["ipcp", "next_line", "isb", "spp_ppf_dspatch"]
        reports = run_invariant_sweep(
            [spec_trace("roms_like", 0.05)], prefetcher_names=names
        )
        assert reports and all(r.ok for r in reports), [
            r.describe() for r in reports if not r.ok
        ]

    def test_cross_page_set_matches_registry(self):
        assert CROSS_PAGE_PREFETCHERS <= set(available_prefetchers())


# --------------------------------------------------------------------- #
# Golden stats
# --------------------------------------------------------------------- #

TINY_GRID = dict(workloads=("bwaves_like",), prefetchers=["none", "ipcp"],
                 scale=0.1)


def _committed() -> dict:
    return load_baseline(DEFAULT_BASELINE_PATH)


class TestGoldenStats:
    """Baseline I/O and drift semantics, on the committed document."""

    def test_collection_is_reproducible(self, pin_cache_dir):
        # A fresh serial collection equals a 2-worker one that replays
        # the shared pin cache.
        first = collect_golden_stats(**TINY_GRID, runner=SimulationRunner())
        second = collect_golden_stats(**TINY_GRID, runner=SimulationRunner(
            jobs=2, cache=ResultCache(pin_cache_dir)))
        assert second == first

    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "golden.json"
        save_baseline(_committed(), str(path))
        with open(DEFAULT_BASELINE_PATH, "rb") as fh:
            assert path.read_bytes() == fh.read()
        assert compare_to_baseline(load_baseline(str(path)),
                                   _committed()) == []

    def test_metric_drift_detected(self):
        baseline = _committed()
        current = _committed()
        current["cells"]["bwaves_like/ipcp"]["ipc"] *= 1.01
        drifts = compare_to_baseline(current, baseline)
        assert [(d.entry, d.metric) for d in drifts] == [
            ("bwaves_like/ipcp", "ipc")]
        assert drifts[0].describe().startswith("bwaves_like/ipcp: ipc ")
        assert "drift" in drifts[0].describe()

    @pytest.mark.parametrize("section, entry, field", [
        ("cells", "gcc_like/mlop", "digest"),
        ("non_lru", "ship/omnetpp_like/ipcp", None),
        ("mixes", "lbm_like+gcc_like/ipcp", None),
        ("traces", "gap/bfs_like@8", None),
    ])
    def test_tampered_pin_is_one_named_drift(self, section, entry, field):
        current = _committed()
        if field is None:
            current[section][entry] = "0" * 32
        else:
            current[section][entry][field] = "0" * 32
        drifts = compare_to_baseline(current, _committed())
        assert [(d.section, d.entry, d.metric) for d in drifts] == [
            (section, entry, field)]
        named = f"{entry}: digest" if field else f"{section}: {entry}"
        assert drifts[0].describe().startswith(named)

    def test_missing_cell_is_drift(self):
        current = _committed()
        del current["cells"]["bwaves_like/ipcp"]
        drifts = compare_to_baseline(current, _committed())
        assert [d.describe() for d in drifts] == [
            "bwaves_like/ipcp: (cell) missing from current run"]

    def test_missing_metric_is_drift(self):
        current = _committed()
        del current["cells"]["bwaves_like/ipcp"]["l1_coverage"]
        drifts = compare_to_baseline(current, _committed())
        assert [(d.entry, d.metric) for d in drifts] == [
            ("bwaves_like/ipcp", "l1_coverage")]

    @pytest.mark.parametrize("section", ["non_lru", "mixes", "traces"])
    def test_missing_or_extra_entry_is_drift(self, section):
        entry = sorted(_committed()[section])[0]
        current = _committed()
        del current[section][entry]
        assert [d.describe() for d in
                compare_to_baseline(current, _committed())] == [
            f"{section}: {entry} missing from current run"]
        current = _committed()
        current[section]["extra"] = "0" * 32
        assert [d.describe() for d in
                compare_to_baseline(current, _committed())] == [
            f"{section}: extra missing from baseline"]

    def test_missing_baseline_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            load_baseline(str(tmp_path / "absent.json"))

    def test_corrupt_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="corrupt"):
            load_baseline(str(path))

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 99, "cells": {}}))
        with pytest.raises(ReproError, match="schema"):
            load_baseline(str(path))

    def test_schema_1_is_refused_with_rebaseline_hint(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"schema": 1, "cells": {}}))
        with pytest.raises(ReproError, match="schema 1, expected 2; "
                           "re-baseline with .*--update-baseline"):
            load_baseline(str(path))

    def test_runs_through_cached_parallel_runner(self, pin_cache_dir,
                                                 monkeypatch):
        # Every simulated pin resolves in one fan-out, so a warm rerun
        # replays all of them: 2 cells, 28 non_lru runs and 1 mix.
        monkeypatch.setattr(golden, "trace_pins", dict)
        first = collect_golden_stats(**TINY_GRID, runner=SimulationRunner(
            jobs=2, cache=ResultCache(pin_cache_dir)))
        rerun = SimulationRunner(jobs=2, cache=ResultCache(pin_cache_dir))
        assert collect_golden_stats(**TINY_GRID, runner=rerun) == first
        assert (rerun.simulations_run, rerun.cache_hits) == (0, 31)


class TestCommittedBaseline:
    """The committed baseline must stay loadable, complete and current."""

    def test_covers_every_registered_prefetcher(self):
        baseline = _committed()
        assert set(baseline["prefetchers"]) == set(available_prefetchers())
        expected = len(baseline["workloads"]) * len(baseline["prefetchers"])
        assert len(baseline["cells"]) == expected

    def test_spot_check_matches_current_code(self):
        """Re-simulate one workload column outside the runner.

        The pin tests recompute every cell through a cached runner; this
        takes the plain ``run_levels`` path, so the committed cells also
        hold for simulations that no runner or cache touched.
        """
        baseline = _committed()
        workload = baseline["workloads"][0]
        trace = spec_trace(workload, baseline["scale"])
        for config in ("none", "ipcp"):
            result = run_levels(trace, config)
            cell = dict(cell_metrics(result), digest=result_digest(result))
            assert cell == baseline["cells"][f"{workload}/{config}"], config


# --------------------------------------------------------------------- #
# Oracle internals worth pinning directly
# --------------------------------------------------------------------- #

class TestOracleUnits:
    def test_oracle_hysteresis_duel(self):
        oracle = OracleIpcpL1()
        table = oracle.ip_table
        owner = table.access(0x40)
        assert owner is not None
        challenger = table.access(0x40 + 64)  # same slot, different tag
        assert challenger is None  # first challenge only clears valid
        takeover = table.access(0x40 + 64)
        assert takeover is not None and takeover is not owner

    def test_oracle_rr_filter_capacity_and_fifo(self):
        rr = OracleIpcpL1().rr
        for line in range(100):
            rr.remember(line)
        assert len(rr.tags) == 32
        assert rr.should_drop(99)  # most recent still resident
        assert not rr.should_drop(0)  # oldest was evicted

    def test_oracle_throttle_epoch(self):
        oracle = OracleIpcpL1()
        throttle = oracle.throttles[1]  # CS
        for _ in range(256):
            throttle.on_fill()
        assert throttle.accuracy == 0.0
        assert throttle.degree == 2  # stepped down from default 3

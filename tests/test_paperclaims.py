"""Tests for the paper-claims harness (repro.paperclaims).

Predicates, the claim engine (against fake cells — no simulations),
the speedup and mix accessors, the seeded mutations,
registry consistency, renderer determinism and the BENCH payload
schema.
"""

import math

import pytest
from conftest import CountingRunner

from repro.errors import ConfigurationError
from repro.paperclaims import (
    CLAIMS,
    Band,
    Best,
    Claim,
    ClaimEngine,
    DeltaBand,
    Leader,
    Monotonic,
    RatioBand,
    Spread,
    apply_mutation,
    bench_payload,
    expected_flips,
    mutation_names,
    render_verdict_report,
)
from repro.paperclaims.cells import EngineReport
from repro.paperclaims.claims import _fmt
from repro.paperclaims.mutations import MUTATIONS
from repro.paperclaims.render import MEASURED, _SECTION_HEADINGS


# --------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------- #

def test_band_bounds():
    assert Band("x", lo=1.0, hi=2.0).check({"x": 1.5})[0]
    assert not Band("x", lo=1.0).check({"x": 0.5})[0]
    assert not Band("x", hi=1.0).check({"x": 1.5})[0]
    assert Band("x", lo=1.0).check({"x": 1.0})[0]  # inclusive


def test_band_message_carries_measurement():
    ok, message = Band("x", lo=1.0, hi=2.0).check({"x": 1.234567})
    assert "1.235" in message and "x" in message


def test_band_with_equal_bounds_is_exact():
    assert Band("bits", lo=895, hi=895).check({"bits": 895.0})[0]
    assert not Band("bits", lo=895, hi=895).check({"bits": 896.0})[0]
    assert not Band("bits", lo=895, hi=895).check({"bits": math.nan})[0]


def test_leader_and_margin():
    values = {"us": 1.10, "a": 1.05, "b": 1.12}
    assert not Leader("us", ("a", "b")).check(values)[0]
    ok, message = Leader("us", ("a", "b"), margin=0.05).check(values)
    assert ok
    assert "beaten by b" in Leader("us", ("a", "b")).check(values)[1]


def test_delta_band_with_a_lower_bound_orders_two_values():
    values = {"a": 3.0, "b": 2.0, "c": 2.5}
    assert DeltaBand("a", "b", lo=0).check(values)[0]
    assert not DeltaBand("b", "c", lo=0).check(values)[0]
    assert DeltaBand("b", "c", lo=-0.6).check(values)[0]  # slack 0.6
    assert DeltaBand("b", "b", lo=0).check(values)[0]  # ties hold


def test_delta_and_ratio_bands():
    values = {"hi": 1.2, "lo": 1.0}
    assert DeltaBand("hi", "lo", lo=0.1, hi=0.3).check(values)[0]
    assert not DeltaBand("hi", "lo", lo=0.25).check(values)[0]
    assert RatioBand("hi", "lo", lo=1.1, hi=1.3).check(values)[0]
    ok, message = RatioBand("hi", "zero").check({"hi": 1.0, "zero": 0.0})
    assert not ok and "undefined" in message


def test_best_and_spread():
    values = {"a": 0.9, "b": 1.05, "c": 1.0}
    ok, message = Best(("a", "b", "c"), lo=1.02).check(values)
    assert ok and "b" in message
    assert not Best(("a", "c"), lo=1.02).check(values)[0]
    assert Spread(("a", "b", "c"), hi=0.2).check(values)[0]
    assert not Spread(("a", "b"), hi=0.1).check(values)[0]


def test_monotonic():
    assert Monotonic(("a", "b", "c")).check({"a": 1, "b": 2, "c": 3})[0]
    assert not Monotonic(("a", "b")).check({"a": 2, "b": 1})[0]
    assert Monotonic(("a", "b"), slack=1.5).check({"a": 2, "b": 1})[0]


def test_missing_key_names_the_key():
    with pytest.raises(ConfigurationError, match="missing value 'gone'"):
        Band("gone", lo=0).check({})
    claim = Claim(id="t", section="tables", title="t", paper="p", cells=(),
                  predicates=(Band("x", lo=0.0), Band("gone", lo=0)))
    verdict = claim.evaluate({"x": 1.0})
    assert not verdict.passed
    assert verdict.details[0].startswith("PASS")
    assert verdict.details[1].startswith("FAIL predicate reads missing "
                                         "value 'gone'")


def test_fmt_handles_nan_and_inf():
    assert _fmt(float("nan")) == "nan"
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(1.23456) == "1.235"
    assert _fmt(7) == "7"


def test_claim_evaluate_all_predicates_must_hold():
    claim = Claim(
        id="t", section="tables", title="t", paper="p", cells=(),
        predicates=(Band("x", lo=0.0), Band("x", hi=0.5)),
    )
    verdict = claim.evaluate({"x": 1.0})
    assert not verdict.passed
    assert verdict.status == "FLIPPED"
    assert verdict.details[0].startswith("PASS")
    assert verdict.details[1].startswith("FAIL")
    assert claim.evaluate({"x": 0.25}).status == "holds"


# --------------------------------------------------------------------- #
# Engine (fake cells; no simulations)
# --------------------------------------------------------------------- #

class _FakeBackend:
    simulations_run = 3
    cache_hits = 9


def _engine(claims):
    return ClaimEngine(claims, _FakeBackend())


def _cell(name, values):
    def compute(ctx):
        return dict(values)

    compute.__name__ = f"_cell_{name}"
    return compute


def _claim(claim_id, cells, predicates, section="figures"):
    return Claim(id=claim_id, section=section, title=claim_id, paper="p",
                 cells=tuple(cells), predicates=predicates)


def test_engine_runs_cells_once_and_evaluates():
    calls = []

    def _cell_c1(ctx):
        calls.append(1)
        return {"x": 1.0}

    claims = [_claim("one", [_cell_c1], (Band("x", lo=0.5),)),
              _claim("two", [_cell_c1], (Band("x", hi=0.5),))]
    report = _engine(claims).run()
    assert len(calls) == 1  # shared cell computed once
    assert report.passed == 1 and report.failed == 1 and not report.ok
    assert report.simulations_run == 3 and report.cache_hits == 9
    assert report.cached_replay_rate == 0.75
    assert list(report.cell_seconds) == ["c1"]  # timed by function name


def test_engine_only_subset_and_unknown_ids():
    c1, c2 = _cell("c1", {"x": 1.0}), _cell("c2", {"y": 1.0})
    claims = [_claim("one", [c1], (Band("x", lo=0.5),)),
              _claim("two", [c2], (Band("y", lo=0.5),))]
    engine = _engine(claims)
    report = engine.run(only=["one"])
    assert [v.claim_id for v in report.verdicts] == ["one"]
    assert "y" not in report.values  # c2 never computed
    with pytest.raises(ConfigurationError, match="unknown claim"):
        engine.run(only=["nope"])


def test_engine_rejects_key_collisions():
    cells = [_cell("c1", {"x": 1.0}), _cell("c2", {"x": 2.0})]
    claims = [_claim("one", cells, (Band("x", lo=0.0),))]
    with pytest.raises(ConfigurationError, match="'c2' re-produces"):
        _engine(claims).run()


def test_claim_reads_only_its_own_cells():
    """A claim sees the values of the cells it holds, never another
    claim's, so ``--only`` cannot change its verdict."""
    c1, c2 = _cell("c1", {"x": 1.0}), _cell("c2", {"y": 2.0})
    c3 = _cell("c3", {"z": 3.0})
    claims = [_claim("x-holds", [c1], (Band("x", lo=0.5),)),
              _claim("y-flips", [c2, c1], (DeltaBand("x", "y", lo=0),)),
              _claim("z-holds", [c3, c2], (Leader("z", ("y",)),))]
    full = _engine(claims).run()
    assert [v.passed for v in full.verdicts] == [True, False, True]
    for claim, verdict in zip(claims, full.verdicts):
        alone = _engine(claims).run(only=[claim.id])
        assert alone.verdicts == [verdict]

    # "y" comes only from another claim's cell: missing in a full run
    # (where c2 ran first for "y-flips") and under --only alike, so the
    # borrower flips there while every other claim keeps its verdict.
    borrower = _claim("borrower", [c1], (Band("y", lo=0.0),))
    for only in (None, ["borrower"]):
        report = _engine([*claims, borrower]).run(only=only)
        assert report.verdicts[:-1] == ([] if only else full.verdicts)
        assert not report.verdicts[-1].passed
        assert report.verdicts[-1].details == (
            "FAIL predicate reads missing value 'y'; the claim's cells "
            "did not produce it",)


def test_report_by_section():
    c1 = _cell("c1", {"x": 1.0})
    claims = [_claim("a", [c1], (Band("x", lo=0.5),), section="tables"),
              _claim("b", [c1], (Band("x", hi=0.5),), section="tables"),
              _claim("c", [c1], (Band("x", lo=0.5),), section="figures")]
    report = _engine(claims).run()
    assert report.by_section() == {"tables": (1, 1), "figures": (1, 0)}


# --------------------------------------------------------------------- #
# The speedup and mix accessors
# --------------------------------------------------------------------- #

def test_speedup_cell_labels_every_config_in_one_fan_out():
    from repro.paperclaims.cells import CellContext

    class Grid:
        traces = {"t1": None, "t2": None}

        def __init__(self):
            self.ensured = []

        def ensure(self, cells):
            self.ensured.append(list(cells))

        def mean_speedup(self, config):
            return float(len(config))

    ctx, grid = CellContext(CountingRunner()), Grid()
    assert ctx.speedup_cell("p", grid, ["ab", "abc"]) == {
        "p.ab": 2.0, "p.abc": 3.0}
    assert ctx.speedup_cell("q.r", grid, {"x": "abcd", "y": "a"}) == {
        "q.r.x": 4.0, "q.r.y": 1.0}
    assert grid.ensured[1] == [("t1", "abcd"), ("t1", "a"), ("t1", "none"),
                               ("t2", "abcd"), ("t2", "a"), ("t2", "none")]


def test_mix_gains_resolves_every_mix_in_one_run():
    from repro.paperclaims.cells import CellContext
    from repro.runner import SimulationRunner, levels_job, mix_job
    from repro.stats.metrics import normalized_weighted_speedup
    from repro.workloads import spec_trace

    bwaves = spec_trace("bwaves_like", 0.03)
    gcc = spec_trace("gcc_like", 0.03)
    mixes = [[bwaves, gcc], [bwaves] * 2]
    warmups = [200, 300]
    backend = CountingRunner()
    gains = CellContext(backend).mix_gains(
        mixes, ["ipcp", "next_line"], warmup=warmups, roi=800, mpki=True)
    # 2 mixes x (2 configs + baseline) mix jobs + 4 single-core jobs.
    assert backend.batches == [10]
    assert list(gains) == ["ipcp", "next_line", "mpki"]

    # Each value equals the same jobs resolved one at a time.
    def alone(spec):
        return SimulationRunner().run_one(spec)

    for index, (traces, warmup) in enumerate(zip(mixes, warmups)):
        base = alone(mix_job(traces, "none", warmup=warmup, roi=800))
        for config in ("ipcp", "next_line"):
            result = alone(mix_job(traces, config, warmup=warmup, roi=800))
            assert gains[config][index] == normalized_weighted_speedup(
                result, base)
        solo = [alone(levels_job(trace, "none")) for trace in traces]
        assert gains["mpki"][index] == (
            sum(result.mpki("l1") for result in solo) / len(solo))


def test_mix_gains_takes_one_warmup_for_every_mix():
    from repro.paperclaims.cells import CellContext
    from repro.workloads import spec_trace

    mixes = [[spec_trace("bwaves_like", 0.03)] * 2]
    one = CellContext(CountingRunner()).mix_gains(
        mixes, ["ipcp"], warmup=200, roi=800)
    each = CellContext(CountingRunner()).mix_gains(
        mixes, ["ipcp"], warmup=[200], roi=800)
    assert one == each and list(one) == ["ipcp"]


def test_context_builds_each_trace_once(monkeypatch):
    """Suites and cells sharing a ``(name, scale)`` share one trace."""
    import repro.workloads
    import repro.workloads.spec
    from repro.paperclaims.cells import SWEEP_SCALE, CellContext
    from repro.paperclaims.registry import ABL_TRACES, SENS_TRACES
    from repro.sim.trace import LOAD, Trace

    built = []

    def spec_trace(name, scale=1.0, seed=7):
        built.append((name, scale))
        return Trace([(LOAD, 0x400, 0x1000, 0)], name=name)

    monkeypatch.setattr(repro.workloads, "spec_trace", spec_trace)
    monkeypatch.setattr(repro.workloads.spec, "spec_trace", spec_trace)
    mem_order = [t.name for t in repro.workloads.memory_intensive_suite()]
    full_order = [t.name for t in repro.workloads.full_suite()]
    built.clear()

    ctx = CellContext(CountingRunner())
    mem, full = ctx.mem_runner, ctx.full_runner
    sens, abl = ctx.spec_runner(SENS_TRACES), ctx.spec_runner(ABL_TRACES)
    stream = ctx.spec_trace("lbm_like", SWEEP_SCALE)
    assert ctx.mem_runner is mem and ctx.spec_runner(ABL_TRACES) is abl
    # One build per distinct (name, scale), in each suite's own order.
    assert len(built) == len(set(built)) == (
        len(full_order) + len(set(SENS_TRACES) | set(ABL_TRACES)))
    assert list(mem.traces) == mem_order and list(full.traces) == full_order
    assert list(sens.traces) == list(SENS_TRACES)
    assert all(mem.traces[name] is full.traces[name] for name in mem_order)
    assert sens.traces["lbm_like"] is abl.traces["lbm_like"] is stream
    assert stream is not full.traces["lbm_like"]  # another scale


# --------------------------------------------------------------------- #
# Mutations
# --------------------------------------------------------------------- #

def test_apply_mutation_patches_and_restores():
    from repro.core.ipcp_l1 import IpcpL1

    original_init = IpcpL1.__init__
    with apply_mutation("nl-ungated") as overrides:
        assert overrides == {"nl_mpki_threshold": 1e9}
        assert IpcpL1().config.nl_mpki_threshold == 1e9
    assert IpcpL1.__init__ is original_init
    assert IpcpL1().config.nl_mpki_threshold != 1e9


def test_apply_mutation_restores_on_error():
    from repro.core.ipcp_l1 import IpcpL1

    original_init = IpcpL1.__init__
    with pytest.raises(RuntimeError):
        with apply_mutation("cs-off"):
            raise RuntimeError("boom")
    assert IpcpL1.__init__ is original_init


def test_mutation_registry_is_consistent():
    known_claims = {claim.id for claim in CLAIMS}
    assert mutation_names() == sorted(MUTATIONS)
    for name in mutation_names():
        flips = expected_flips(name)
        assert flips, name
        assert set(flips) <= known_claims
    with pytest.raises(ConfigurationError, match="unknown mutation"):
        expected_flips("nope")
    with pytest.raises(ConfigurationError, match="unknown mutation"):
        with apply_mutation("nope"):
            pass


# --------------------------------------------------------------------- #
# Registry consistency
# --------------------------------------------------------------------- #

def test_registry_ids_unique_and_cells_resolve():
    claim_ids = [claim.id for claim in CLAIMS]
    assert len(claim_ids) == len(set(claim_ids))
    cells = {cell for claim in CLAIMS for cell in claim.cells}
    # A cell's name keys its timing, so distinct cells need distinct names.
    assert len({cell.__name__ for cell in cells}) == len(cells)
    for claim in CLAIMS:
        assert claim.cells, claim.id
        assert all(callable(cell) for cell in claim.cells), claim.id
        assert claim.section in _SECTION_HEADINGS, claim.id
        assert claim.predicates, claim.id


def test_every_claim_has_a_measured_renderer():
    assert set(MEASURED) == {claim.id for claim in CLAIMS}


# --------------------------------------------------------------------- #
# Renderer + BENCH payload
# --------------------------------------------------------------------- #

def _fake_report(ok=True):
    c1 = _cell("c1", {"x": 1.0})
    claims = [_claim("good", [c1], (Band("x", lo=0.5),), section="tables"),
              _claim("bad", [c1],
                     (Band("x", hi=2.0 if ok else 0.5),), section="figures")]
    return _engine(claims).run()


def test_verdict_report_is_deterministic_and_marks_flips():
    report = _fake_report(ok=False)
    text = render_verdict_report(report)
    assert text == render_verdict_report(report)
    assert "FLIPPED" in text and "good" in text and "bad" in text
    clean = render_verdict_report(_fake_report(ok=True))
    assert "FLIPPED" not in clean


def test_missing_value_flips_its_row_and_the_render_goes_on():
    from dataclasses import replace

    from repro.paperclaims.render import _rows_for

    table3 = next(c for c in CLAIMS if c.id == "table3-storage-gap")
    partial = replace(table3, cells=(_cell("t3", {"table3.ipcp.kb": 0.9}),))
    report = _engine([partial]).run()
    assert not report.ok
    row = _rows_for(report, "tables")[-1]
    assert "| missing value 'table3.mlop.kb' | **FLIPPED** |" in row


def test_bench_payload_schema():
    report = _fake_report(ok=False)
    payload = bench_payload(report, wall_seconds=12.345)
    assert payload["schema"] == "repro-bench/v1"
    assert payload["pr"] == 10
    assert payload["claims"]["total"] == 2
    assert payload["claims"]["holds"] == 1
    assert payload["claims"]["flipped"] == 1
    assert payload["claims"]["by_section"] == {
        "tables": {"holds": 1, "flipped": 0},
        "figures": {"holds": 0, "flipped": 1},
    }
    assert payload["simulations"] == {
        "executed": 3, "cache_hits": 9, "cached_replay_rate": 0.75}
    assert payload["wall_seconds"]["total"] == 12.35
    assert set(payload["wall_seconds"]["per_cell"]) == {"c1"}
    # Simulator speed is the benchmark's job, not a claim run's.
    assert "throughput_records_per_s" not in payload


def test_bench_payload_is_json_serialisable(tmp_path):
    import json

    from repro.paperclaims import write_bench

    target = tmp_path / "BENCH_test.json"
    write_bench(_fake_report(), 1.0, str(target))
    loaded = json.loads(target.read_text())
    assert loaded["claims"]["flipped"] == 0
    assert target.read_text().endswith("\n")


def test_paper_writes_bench_only_under_write(tmp_path, monkeypatch):
    import json

    from repro import cli, paperclaims

    report = _fake_report()
    monkeypatch.setattr(ClaimEngine, "run", lambda self, **_: report)
    monkeypatch.setattr(paperclaims, "render_experiments",
                        lambda _report: "rendered\n")
    # cmd_paper resolves the repo root from the module path; point it
    # at a scratch tree so neither mode touches the committed files.
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "src/repro/cli.py"))
    bench = tmp_path / "BENCH_10.json"
    bench.write_text("committed\n")

    cli.main(["paper", "--check", "--no-cache"])
    assert bench.read_text() == "committed\n"

    assert cli.main(["paper", "--write", "--no-cache"]) == 0
    assert json.loads(bench.read_text())["schema"] == "repro-bench/v1"

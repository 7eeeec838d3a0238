"""Tests for the paper-claims harness (repro.paperclaims).

Predicates, the claim engine (against fake cells — no simulations),
the seeded mutations, registry consistency with benchmarks/ CLAIM_IDS
tags, renderer determinism and the BENCH payload schema.
"""

import ast
import math
import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.paperclaims import (
    CELLS,
    CLAIMS,
    Band,
    Best,
    Cell,
    Claim,
    ClaimEngine,
    DeltaBand,
    Exact,
    Leader,
    Monotonic,
    Ordering,
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

REPO = pathlib.Path(__file__).resolve().parents[1]


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


def test_exact_with_tolerance():
    assert Exact("bits", 895).check({"bits": 895})[0]
    assert not Exact("bits", 895).check({"bits": 896})[0]
    assert Exact("v", 1.0, tol=0.01).check({"v": 1.005})[0]


def test_leader_and_margin():
    values = {"us": 1.10, "a": 1.05, "b": 1.12}
    assert not Leader("us", ("a", "b")).check(values)[0]
    ok, message = Leader("us", ("a", "b"), margin=0.05).check(values)
    assert ok
    assert "beaten by b" in Leader("us", ("a", "b")).check(values)[1]


def test_ordering_and_slack():
    values = {"a": 3.0, "b": 2.0, "c": 2.5}
    assert not Ordering(("a", "b", "c")).check(values)[0]
    assert Ordering(("a", "b", "c"), slack=0.6).check(values)[0]


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
    with pytest.raises(KeyError, match="missing value 'gone'"):
        Band("gone", lo=0).check({})


def test_fmt_handles_nan_and_inf():
    assert _fmt(float("nan")) == "nan"
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(1.23456) == "1.235"
    assert _fmt(7) == "7"


def test_claim_evaluate_all_predicates_must_hold():
    claim = Claim(
        id="t", section="tables", title="t", paper="p", bench="b",
        cells=("c",),
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


def _engine(cells, claims):
    return ClaimEngine(cells, claims, _FakeBackend())


def _cell(cell_id, values):
    return Cell(id=cell_id, title=cell_id, compute=lambda ctx: dict(values))


def _claim(claim_id, cells, predicates, section="figures"):
    return Claim(id=claim_id, section=section, title=claim_id, paper="p",
                 bench="b.py", cells=tuple(cells), predicates=predicates)


def test_engine_runs_cells_once_and_evaluates():
    calls = []

    def compute(ctx):
        calls.append(1)
        return {"x": 1.0}

    cells = [Cell(id="c1", title="c1", compute=compute)]
    claims = [_claim("one", ["c1"], (Band("x", lo=0.5),)),
              _claim("two", ["c1"], (Band("x", hi=0.5),))]
    report = _engine(cells, claims).run()
    assert len(calls) == 1  # shared cell computed once
    assert report.passed == 1 and report.failed == 1 and not report.ok
    assert report.simulations_run == 3 and report.cache_hits == 9
    assert report.cached_replay_rate == 0.75
    assert "c1" in report.cell_seconds


def test_engine_only_subset_and_unknown_ids():
    cells = [_cell("c1", {"x": 1.0}), _cell("c2", {"y": 1.0})]
    claims = [_claim("one", ["c1"], (Band("x", lo=0.5),)),
              _claim("two", ["c2"], (Band("y", lo=0.5),))]
    engine = _engine(cells, claims)
    report = engine.run(only=["one"])
    assert [v.claim_id for v in report.verdicts] == ["one"]
    assert "y" not in report.values  # c2 never computed
    with pytest.raises(ConfigurationError, match="unknown claim"):
        engine.run(only=["nope"])


def test_engine_rejects_unknown_cells_and_key_collisions():
    with pytest.raises(ConfigurationError, match="unknown cells"):
        _engine([_cell("c1", {})], [_claim("one", ["ghost"], ())])
    cells = [_cell("c1", {"x": 1.0}), _cell("c2", {"x": 2.0})]
    claims = [_claim("one", ["c1", "c2"], (Band("x", lo=0.0),))]
    with pytest.raises(ConfigurationError, match="re-produces"):
        _engine(cells, claims).run()


def test_report_by_section():
    cells = [_cell("c1", {"x": 1.0})]
    claims = [_claim("a", ["c1"], (Band("x", lo=0.5),), section="tables"),
              _claim("b", ["c1"], (Band("x", hi=0.5),), section="tables"),
              _claim("c", ["c1"], (Band("x", lo=0.5),), section="figures")]
    report = _engine(cells, claims).run()
    assert report.by_section() == {"tables": (1, 1), "figures": (1, 0)}


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
    cell_ids = [cell.id for cell in CELLS]
    assert len(cell_ids) == len(set(cell_ids))
    known_cells = set(cell_ids)
    for claim in CLAIMS:
        assert claim.cells, claim.id
        assert set(claim.cells) <= known_cells, claim.id
        assert claim.section in _SECTION_HEADINGS, claim.id
        assert claim.predicates, claim.id


def test_every_claim_has_a_measured_renderer():
    assert set(MEASURED) == {claim.id for claim in CLAIMS}


def _claim_ids_of(path: pathlib.Path) -> tuple[str, ...]:
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "CLAIM_IDS"
                        for t in node.targets)):
            return tuple(ast.literal_eval(node.value))
    return ()


def test_benchmarks_and_registry_cover_each_other():
    by_file: dict[str, set] = {}
    for claim in CLAIMS:
        by_file.setdefault(claim.bench.split("::")[0], set()).add(claim.id)
    for bench_file, ids in by_file.items():
        path = (REPO / bench_file if bench_file.startswith("tests/")
                else REPO / "benchmarks" / bench_file)
        assert path.exists(), f"{bench_file} (from claim registry) missing"
        tagged = set(_claim_ids_of(path))
        assert tagged == ids, (
            f"{bench_file}: CLAIM_IDS {sorted(tagged)} != registry "
            f"{sorted(ids)}")
    # and no benchmark carries ids the registry doesn't know
    known = {claim.id for claim in CLAIMS}
    for path in (REPO / "benchmarks").glob("test_*.py"):
        assert set(_claim_ids_of(path)) <= known, path.name


# --------------------------------------------------------------------- #
# Renderer + BENCH payload
# --------------------------------------------------------------------- #

def _fake_report(ok=True):
    cells = [_cell("c1", {"x": 1.0})]
    claims = [_claim("good", ["c1"], (Band("x", lo=0.5),), section="tables"),
              _claim("bad", ["c1"],
                     (Band("x", hi=2.0 if ok else 0.5),), section="figures")]
    return _engine(cells, claims).run()


def test_verdict_report_is_deterministic_and_marks_flips():
    report = _fake_report(ok=False)
    text = render_verdict_report(report)
    assert text == render_verdict_report(report)
    assert "FLIPPED" in text and "good" in text and "bad" in text
    clean = render_verdict_report(_fake_report(ok=True))
    assert "FLIPPED" not in clean


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
    assert "baseline" in payload["throughput_records_per_s"]


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

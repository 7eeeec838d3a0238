"""Tests of the performance benchmark's harness, on tiny traces.

Not part of tier-1; run with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import harness
from repro.workloads.spec import spec_trace

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_suite(seed: int) -> list:
    return [spec_trace("lbm_like", 0.02, seed),
            spec_trace("gcc_like", 0.02, seed)]


TINY_GRID = harness.SingleCore(
    "tiny_grid", tiny_suite, ("none", "ipcp"), engine="scalar",
    warm_full_pass=False, expected="tiny_grid")
TINY_BATCHED = harness.SingleCore(
    "tiny_batched", tiny_suite, ("none", "ipcp"), engine="batched",
    warm_full_pass=True, expected="tiny_grid")
TINY_MIX = harness.MixContention(
    "tiny_mix", (("mix1", "none"), ("mix1", "ipcp")), 0.01,
    warm_cells=(("mix1", "ipcp"),), warmup=200, roi=800, expected="tiny_mix")
TINY_RUNNER = harness.RunnerCold(
    "tiny_runner", tiny_suite, ("none", "ipcp"), jobs=2,
    expected="tiny_runner")


def run(workload, tmp_path: Path, traced: bool = False, **kwargs) -> dict:
    return harness.run_workload(
        workload, seed=3, seconds=0, traced=traced,
        out_path=tmp_path / "out" / "report.json",
        expected_dir=tmp_path / "expected", **kwargs)


def test_metric_names_and_workloads_match_benchmark_json(tmp_path):
    assert list(harness.WORKLOADS) == [w["name"]
                                       for w in BENCHMARK["workloads"]]
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        line = harness.result_line(run(TINY_GRID, tmp_path, traced=traced))
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: metric["unit"]
                for name, metric in line["metrics"].items()} == declared
        assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("field", ["cell", "inputs"])
def test_perturbed_expected_file_fails_the_run(tmp_path, field, capsys):
    written = run(TINY_GRID, tmp_path, update_expected=True)
    assert written["correct"] and written["failed"] == 0
    path = Path(written["wrote_expected"])
    body = json.loads(path.read_text())
    if field == "cell":
        body["cells"]["lbm_like/ipcp"]["cycles"] += 1
    else:
        body["inputs"] = "0" * 32
    path.write_text(json.dumps(body))

    report = run(TINY_GRID, tmp_path)
    assert report["failed"] / report["attempted"] > 0
    assert not report["correct"]
    if field == "inputs":
        assert report["failed"] == report["attempted"]
    assert harness.emit(report) != 0
    assert '"correct": false' in capsys.readouterr().out


def test_batched_cells_are_checked_against_scalar_statistics(tmp_path):
    run(TINY_GRID, tmp_path, update_expected=True)
    report = run(TINY_BATCHED, tmp_path)
    assert report["expected_file"] and report["correct"]
    assert report["paths"] == {"fused": report["attempted"]}


@pytest.mark.parametrize("workload", [TINY_GRID, TINY_MIX, TINY_RUNNER],
                         ids=lambda w: w.name)
def test_spans_nest_and_self_times_add_up(tmp_path, workload):
    report = run(workload, tmp_path, traced=True)
    assert report["correct"], report["failures"]
    assert report["consistency"]["ok"]
    with open(report["spans"], encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    assert len(spans) == header["spans"] > 0
    pids = set()
    for parent, _, _, pid, start, end in spans:
        pids.add(pid)
        assert start <= end
        if parent >= 0:
            _, _, _, parent_pid, parent_start, parent_end = spans[parent]
            assert parent_pid == pid
            assert parent_start <= start and end <= parent_end
    if workload is TINY_RUNNER:
        assert len(pids) > 1  # worker spans were merged in


def test_a_run_writes_only_its_out_directory(tmp_path):
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs a git checkout")

    def status() -> tuple:
        porcelain = subprocess.run(["git", "status", "--porcelain"],
                                   cwd=ROOT, check=True, capture_output=True,
                                   text=True).stdout
        default_out = ROOT / ".perf_out"
        return porcelain, sorted(default_out.rglob("*")) \
            if default_out.exists() else []

    before = status()
    run(TINY_RUNNER, tmp_path, traced=True)
    assert status() == before
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "report.json", "spans.jsonl"]

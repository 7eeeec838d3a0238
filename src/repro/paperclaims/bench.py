"""BENCH_10.json: telemetry from one full claim run.

The numbers are machine-local measurements, not asserted values: the
claim pass counts, executed and cached simulations, the cached-replay
rate and per-cell wall time.  Simulator speed is the benchmark's job
(``BENCHMARK.json``), not a claim run's.  No timestamps — the file
should only change when the run actually changes.
"""

from __future__ import annotations

import json

from repro.paperclaims.cells import EngineReport

SCHEMA = "repro-bench/v1"
PR = 10


def bench_payload(report: EngineReport,
                  wall_seconds: float) -> dict:
    """The BENCH_10.json contents for one full claim run."""
    sections = {
        section: {"holds": good, "flipped": bad}
        for section, (good, bad) in report.by_section().items()
    }
    return {
        "schema": SCHEMA,
        "pr": PR,
        "claims": {
            "total": len(report.verdicts),
            "holds": report.passed,
            "flipped": report.failed,
            "by_section": sections,
        },
        "simulations": {
            "executed": report.simulations_run,
            "cache_hits": report.cache_hits,
            "cached_replay_rate": round(report.cached_replay_rate, 4),
        },
        "wall_seconds": {
            "total": round(wall_seconds, 2),
            "per_cell": {
                cell_id: round(seconds, 2)
                for cell_id, seconds in sorted(report.cell_seconds.items())
            },
        },
    }


def write_bench(report: EngineReport, wall_seconds: float,
                path: str) -> None:
    """Serialise :func:`bench_payload` to ``path`` (stable key order)."""
    payload = bench_payload(report, wall_seconds)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")

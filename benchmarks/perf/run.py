"""Performance benchmark of the simulator: one command, every metric.

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--write-expected]

Run from the root of a checkout.  Each workload runs in its own
interpreter (several ``--workload`` flags, or none for all four, start
one child process per workload), so set-up time and peak memory are per
workload.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or the per-layer metrics with ``--trace``.  The exit code is
nonzero when any cell failed its output check.

Everything a run writes goes under the directory of ``--out`` (default
``.perf_out/report.json``): the report, ``spans.jsonl`` when traced, and
a temporary directory it removes.  ``--write-expected`` regenerates
``expected/seed<N>/<workload>.json`` from the run instead of checking
against it.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - timed from the first statement
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def bootstrap() -> None:
    """Make this checkout's ``src/repro`` importable, and only that copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"run.py: imported repro from {repro.__file__}, "
                 f"not from {src}")


def parse_args(argv, workloads) -> argparse.Namespace:
    """Command-line options."""
    parser = argparse.ArgumentParser(
        description="Time the simulator end to end and per layer.")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input generation seed (default 7)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time; passes repeat "
                             "until it is reached (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced pass; report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".perf_out" / "report.json",
                        help="report path; spans.jsonl goes beside it")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite the expected statistics for --seed")
    return parser.parse_args(argv)


def run_each(names, args) -> int:
    """Run every workload in a fresh interpreter; combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        out = args.out.parent / name / "report.json"
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
        if args.write_expected:
            command.append("--write-expected")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            status = status or child.returncode or 1
            continue
        result = json.loads(lines[-1])
        status = status or child.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": value
             for metric, value in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    bootstrap()
    import harness

    import_s = time.perf_counter() - _STARTED
    args = parse_args(argv, list(harness.WORKLOADS))
    names = args.workload or list(harness.WORKLOADS)
    if len(names) > 1:
        return run_each(names, args)
    report = harness.run_workload(
        harness.WORKLOADS[names[0]], seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), out_path=args.out,
        update_expected=args.write_expected, import_s=import_s)
    return harness.emit(report)


if __name__ == "__main__":
    sys.exit(main())

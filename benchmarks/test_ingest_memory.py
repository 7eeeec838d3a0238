"""Bounded-memory guard for the streaming ingestion path.

Not a paper artifact — a regression guard for `repro.ingest`'s core
promise: peak memory while streaming a trace is one columnar chunk
plus one I/O block, *independent of trace length*.  The guard
generates a multi-gigabyte-scale synthetic gzipped k6 trace (streamed
out line by line, never held), streams it back through
``stream_k6_columns`` in a subprocess, and asserts the subprocess's
peak RSS stayed under a fixed budget that does not scale with the
trace.  ``ru_maxrss`` is a process-lifetime high-water mark, which is
exactly why the measured work runs in a child process: the parent's
own allocations (pytest, imports, other benchmarks in the session)
must not pollute the reading.

Environment knobs:

* ``REPRO_INGEST_BENCH_MB`` — decompressed size of the synthetic
  trace in MiB (default 1024; CI uses a smaller value — the bound is
  length-independent, so any size exercises the same guarantee).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

#: Fixed peak-RSS budget for the child process, in MiB.  Python +
#: numpy import baseline is ~100 MiB; one 65536-record chunk is ~1.5
#: MiB; the rest is headroom that must NOT grow with the trace.
RSS_BUDGET_MIB = 512

SIZE_MB = int(os.environ.get("REPRO_INGEST_BENCH_MB", "1024"))

_CHILD = r"""
import gzip, json, os, resource, sys

sys.path.insert(0, sys.argv[3])
from repro.ingest import stream_k6_columns

target_bytes = int(sys.argv[1]) * (1 << 20)
path = sys.argv[2]

# Stream the synthetic trace OUT without ever holding it: a generator
# writing one line at a time into the gzip member.
written = 0
line_no = 0
with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
    while written < target_bytes:
        command = "P_MEM_RD" if line_no % 3 else "P_MEM_WR"
        line = f"0x{0x1_0000 + 64 * (line_no % (1 << 24)):x} {command} {10 * line_no}\n"
        fh.write(line)
        written += len(line)
        line_no += 1

# Stream it back IN: consume every chunk, keep none.
records = 0
chunks = 0
for chunk in stream_k6_columns(path):
    records += len(chunk.kind)
    chunks += 1

peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "records": records,
    "chunks": chunks,
    "decompressed_bytes": written,
    "peak_rss_mib": peak_kib / 1024.0,
}))
"""


def test_streaming_ingest_rss_is_independent_of_trace_length(tmp_path):
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = str(tmp_path / "huge.k6.gz")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SIZE_MB), path,
         os.path.abspath(src_dir)],
        capture_output=True, text=True, check=True,
    )
    stats = json.loads(out.stdout.strip().splitlines()[-1])
    assert stats["records"] > 0
    assert stats["decompressed_bytes"] >= SIZE_MB * (1 << 20)
    print(f"\ningest-memory: {stats['records']:,} records "
          f"({stats['decompressed_bytes'] / (1 << 30):.2f} GiB text) "
          f"in {stats['chunks']} chunks, "
          f"peak RSS {stats['peak_rss_mib']:.0f} MiB "
          f"(budget {RSS_BUDGET_MIB})")
    assert stats["peak_rss_mib"] < RSS_BUDGET_MIB, (
        f"streaming ingest peaked at {stats['peak_rss_mib']:.0f} MiB — "
        f"the bounded-memory contract (< {RSS_BUDGET_MIB} MiB, "
        f"independent of trace length) is broken")

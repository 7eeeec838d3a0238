"""CSV and JSONL export for experiment tables and event streams.

The CLI prints aligned ASCII for eyeballing; downstream plotting
wants machine-readable rows.  :func:`write_csv` mirrors
:func:`repro.stats.report.format_table`'s inputs so any emitted table
can also be exported.  :func:`write_jsonl`/:func:`read_jsonl` are the
line-oriented counterpart used by the telemetry layer: one JSON object
per line, so a multi-million-event stream can be written, tailed and
filtered without ever holding the whole document in memory.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError


def write_csv(path: str, headers: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    """Write a header + rows table as CSV (floats at full precision)."""
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def write_jsonl(path: str, rows: Iterable[dict]) -> None:
    """Write dict rows as JSON-lines (one compact object per line)."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True,
                                separators=(",", ":")) + "\n")


def read_jsonl(path: str) -> list[dict]:
    """Read back a JSON-lines file; blank lines are skipped.

    A malformed line raises :class:`ConfigurationError` with its line
    number — a telemetry stream is evidence, so a silently dropped
    record is worse than a loud failure.
    """
    rows: list[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{lineno}: malformed JSONL record: {error}"
                ) from None
    return rows


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a table written by :func:`write_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            headers = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty CSV") from None
        return headers, [row for row in reader]

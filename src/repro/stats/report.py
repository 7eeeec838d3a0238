"""Plain-text table formatting for CLI output.

The CLI prints per-trace speedup, sweep and mix tables; this module
renders them as aligned ASCII so they are easy to eyeball against the
paper.
"""

from __future__ import annotations

from collections.abc import Sequence


def _render_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table (floats to 3 decimals)."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in rendered)) if rendered
        else len(header)
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)

"""Plain-text table rendering shared by the simulator and the harness."""

from __future__ import annotations

from typing import Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned ASCII table (headers + separator + rows)."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(parts: Sequence[str]) -> str:
        """One aligned output line."""
        return "  ".join(part.ljust(width) for part, width in zip(parts, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)

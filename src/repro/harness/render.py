"""Plain-text rendering for experiment results.

:func:`render_table` lives in :mod:`repro.common.render` so the simulator
can use it without importing the harness; it is re-exported here.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.common.render import render_table

__all__ = ["render_bar", "render_stacked_bar", "render_table"]


def render_bar(fraction: float, width: int = 40, fill: str = "#") -> str:
    """A horizontal bar for quick visual comparison in terminals."""
    fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * width)
    return fill * filled + "." * (width - filled)


def render_stacked_bar(
    fractions: Sequence[float], width: int = 40, fills: str = "#+xo*"
) -> str:
    """A stacked horizontal bar; each segment uses the next fill char."""
    out: List[str] = []
    used = 0
    for i, fraction in enumerate(fractions):
        segment = round(max(0.0, fraction) * width)
        segment = min(segment, width - used)
        out.append(fills[i % len(fills)] * segment)
        used += segment
    out.append("." * (width - used))
    return "".join(out)

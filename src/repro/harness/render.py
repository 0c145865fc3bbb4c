"""Plain-text rendering for experiment results.

:class:`ExperimentResult` is what every experiment's ``render`` returns.
:func:`render_table` lives in :mod:`repro.common.render` so the simulator
can use it without importing the harness; it is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.common.render import render_table

__all__ = ["ExperimentResult", "render_bar", "render_stacked_bar",
           "render_table"]


@dataclass
class ExperimentResult:
    """Rows + notes (and optionally an ASCII chart) for one artifact."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: List[str] = field(default_factory=list)
    chart: Optional[str] = None

    def render(self) -> str:
        """Plain-text rendering (title + aligned table + chart + notes)."""
        parts = [f"== {self.experiment_id}: {self.title} ==",
                 render_table(self.headers, self.rows)]
        if self.chart:
            parts.append(self.chart)
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


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

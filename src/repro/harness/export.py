"""Exporting experiment results: JSON and Markdown.

The CLI prints plain-text tables; this module serialises
:class:`~repro.harness.render.ExperimentResult` objects so results
can be archived, diffed between code versions, or stitched into
documents (EXPERIMENTS.md's measured sections come from here).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.harness.render import ExperimentResult


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-ready dictionary for one experiment result."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [[_plain(cell) for cell in row] for row in result.rows],
        "notes": list(result.notes),
    }


def _plain(cell):
    if isinstance(cell, (int, float, str)) or cell is None:
        return cell
    return str(cell)


def save_results_json(
    results: Iterable[ExperimentResult], path: Union[str, Path]
) -> None:
    """Write a list of results to *path* as indented JSON."""
    payload = [result_to_dict(result) for result in results]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


def load_results_json(path: Union[str, Path]) -> List[dict]:
    """Read results previously written by :func:`save_results_json`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def result_to_markdown(result: ExperimentResult) -> str:
    """GitHub-flavoured Markdown rendering of one result."""
    lines = [f"### `{result.experiment_id}` — {result.title}", ""]
    lines.append("| " + " | ".join(str(h) for h in result.headers) + " |")
    lines.append("|" + "|".join("---" for _ in result.headers) + "|")
    for row in result.rows:
        lines.append("| " + " | ".join(str(_plain(c)) for c in row) + " |")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    return "\n".join(lines) + "\n"


def save_results_markdown(
    results: Iterable[ExperimentResult],
    path: Union[str, Path],
    title: str = "Measured results",
) -> None:
    """Write all results as one Markdown document."""
    parts = [f"# {title}", ""]
    for result in results:
        parts.append(result_to_markdown(result))
    Path(path).write_text("\n".join(parts), encoding="utf-8")

"""Telemetry exporters: JSON, CSV, and Prometheus text exposition.

All three render the same :meth:`TelemetryRegistry.to_dict` snapshot:

* **JSON** — the snapshot verbatim; lossless, round-trips via
  :func:`load_json`.
* **CSV** — one flat row per scalar fact (``kind,name,field,value``),
  convenient for spreadsheets and pandas; round-trips scalars via
  :func:`load_csv` (histogram bucket layouts are flattened to indexed
  fields, interval series to per-window fields).
* **Prometheus text exposition** — the ``# HELP`` / ``# TYPE`` format
  scraped by a Prometheus server. Dotted metric names become underscore
  names (``machine.requests.read`` → ``repro_machine_requests_read``);
  histograms emit ``_bucket{le=...}`` / ``_sum`` / ``_count`` series,
  interval series one sample per window with a ``window`` label, and
  transition matrices one sample per exercised cell with
  ``from``/``event``/``to`` labels.

:func:`save_all` writes all three side by side into one directory.

The loaders exist so tests (and CI) can assert the exports round-trip;
they are parsers of this module's own output, not general-purpose
Prometheus/CSV readers.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import Dict

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """A dotted metric name as a legal Prometheus metric name."""
    return "repro_" + _NAME_RE.sub("_", name)


def _prom_escape(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_help_escape(text: str) -> str:
    """Escape HELP text: the exposition format allows any UTF-8 there
    except a raw newline (which would terminate the comment mid-text and
    corrupt the next line), with ``\\`` as the escape character."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


_UNESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE_MAP = {"n": "\n", '"': '"', "\\": "\\"}


def _prom_unescape(value: str) -> str:
    """Invert :func:`_prom_escape` / :func:`_prom_help_escape`.

    A single left-to-right pass over escape pairs: sequential
    ``str.replace`` calls would mis-decode a literal backslash followed
    by ``n`` (``\\\\n``) as a newline, because the first replace eats
    the backslash pair the second then misreads.
    """
    return _UNESCAPE_RE.sub(
        lambda m: _UNESCAPE_MAP.get(m.group(1), m.group(0)), value
    )


def _fmt(value) -> str:
    """Render a number without a trailing ``.0`` for integral values."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def to_json(registry, indent: int = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.to_dict(), indent=indent, sort_keys=True)


def save_json(registry, path) -> None:
    """Write :func:`to_json` output to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(registry))
        fh.write("\n")


def load_json(path_or_text) -> Dict:
    """Parse a document produced by :func:`to_json` / :func:`save_json`."""
    text = path_or_text
    if "\n" not in text and text.strip() and not text.lstrip().startswith("{"):
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def to_csv(registry) -> str:
    """One row per scalar fact: ``kind,name,field,value``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "name", "field", "value"])
    snapshot = registry.to_dict()
    for name, data in sorted(snapshot["counters"].items()):
        writer.writerow(["counter", name, "value", _fmt(data["value"])])
    for name, data in sorted(snapshot["gauges"].items()):
        writer.writerow(["gauge", name, "value", _fmt(data["value"])])
    for name, data in sorted(snapshot["histograms"].items()):
        for key in ("count", "sum", "mean", "min", "max", "stddev",
                    "p50", "p90", "p99"):
            if data.get(key) is not None:
                writer.writerow(["histogram", name, key, _fmt(data[key])])
        for bound, count in zip(data["bounds"] + ["+Inf"],
                                data["bucket_counts"]):
            writer.writerow(["histogram", name, f"bucket_le_{bound}",
                             _fmt(count)])
    for name, data in sorted(snapshot["series"].items()):
        writer.writerow(["series", name, "window", _fmt(data["window"])])
        writer.writerow(["series", name, "total", _fmt(data["total"])])
        for bucket, value in data["buckets"].items():
            writer.writerow(["series", name, f"window_{bucket}", _fmt(value)])
    for name, data in sorted(snapshot["transitions"].items()):
        writer.writerow(["transitions", name, "coverage",
                         _fmt(data["coverage"])])
        writer.writerow(["transitions", name, "total", _fmt(data["total"])])
        for frm, event, to, count in data["cells"]:
            writer.writerow(["transitions", name, f"{frm}->{event}->{to}",
                             _fmt(count)])
    return buf.getvalue()


def save_csv(registry, path) -> None:
    """Write :func:`to_csv` output to *path*."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv(registry))


def load_csv(path_or_text) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Parse :func:`to_csv` output back into nested dictionaries.

    Returns ``{kind: {name: {field: value}}}`` with numeric values
    parsed as floats where possible.
    """
    text = path_or_text
    if "\n" not in text:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["kind", "name", "field", "value"]:
        raise ValueError(f"unrecognised telemetry CSV header: {header}")
    for kind, name, fieldname, value in reader:
        try:
            parsed = float(value)
        except ValueError:
            parsed = value
        out.setdefault(kind, {}).setdefault(name, {})[fieldname] = parsed
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def to_prometheus(registry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines = []
    for metric in registry.metrics():
        name = _prom_name(metric.name)
        help_text = _prom_help_escape(metric.help or metric.name)
        kind = metric.kind
        if kind == "counter":
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_fmt(metric.value)}")
        elif kind == "gauge":
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(metric.value)}")
        elif kind == "histogram":
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in zip(
                list(metric.bounds) + ["+Inf"], metric.cumulative_counts()
            ):
                lines.append(
                    f'{name}_bucket{{le="{_fmt(bound) if bound != "+Inf" else "+Inf"}"}}'
                    f" {_fmt(cumulative)}"
                )
            lines.append(f"{name}_sum {_fmt(metric.total)}")
            lines.append(f"{name}_count {_fmt(metric.count)}")
        elif kind == "series":
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            for bucket, value in sorted(metric.buckets.items()):
                lines.append(f'{name}{{window="{bucket}"}} {_fmt(value)}')
        elif kind == "transitions":
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            for (frm, event, to), count in sorted(metric.counts.items()):
                lines.append(
                    f'{name}{{from="{_prom_escape(frm)}",'
                    f'event="{_prom_escape(event)}",'
                    f'to="{_prom_escape(to)}"}} {_fmt(count)}'
                )
    return "\n".join(lines) + ("\n" if lines else "")


def save_prometheus(registry, path) -> None:
    """Write :func:`to_prometheus` output to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_prometheus(registry))


def save_all(registry, out_dir) -> None:
    """Write ``telemetry.{json,csv,prom}`` into *out_dir*, creating it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_json(registry, out / "telemetry.json")
    save_csv(registry, out / "telemetry.csv")
    save_prometheus(registry, out / "telemetry.prom")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def load_prometheus(path_or_text) -> Dict:
    """Parse :func:`to_prometheus` output.

    Returns ``{"types": {name: type}, "helps": {name: text},
    "samples": [(name, labels, value)]}`` — enough for round-trip
    assertions, not a full exposition parser. HELP text and label
    values are unescaped (single pass; see :func:`_prom_unescape`).
    """
    text = path_or_text
    if "\n" not in text and not text.startswith("#"):
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    samples = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = _prom_unescape(help_text)
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable Prometheus sample line: {line!r}")
        labels = {
            key: _prom_unescape(value)
            for key, value in _LABEL_RE.findall(match.group("labels") or "")
        }
        samples.append((match.group("name"), labels,
                        float(match.group("value"))))
    return {"types": types, "helps": helps, "samples": samples}

"""``metrics-report``: render a metrics snapshot as a text dashboard.

Accepts either shape the metrics layer writes:

* a raw ``repro-metrics/v1`` snapshot (``MetricsRegistry.to_json``,
  ``serve-bench --metrics-json``);
* a document with a ``"metrics"`` key (``serve-bench --json-out``).

The same :func:`render_dashboard` prints the report after each
``experiments --telemetry`` run (with the run's provenance) and after
``serve-bench --metrics``.

With two paths, the second is the baseline and the dashboard shows
deltas (candidate value with ``Δ`` against the baseline) — useful for
"what did this workload add" questions against a pre-run snapshot.
Unless ``--no-health`` is given, the four default SLO rules
(:data:`repro.telemetry.health.DEFAULT_SLO_RULES`) are evaluated
against the candidate snapshot and the health report is appended;
``--fail-on fail`` (or ``warn``) turns the health status into the exit
code for CI.

Wired as ``python -m repro.experiments metrics-report``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Mapping, Optional

from . import health as health_mod
from .metrics import METRICS_SCHEMA
from .trace import Tracer


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load a metrics snapshot, raw or under a ``"metrics"`` key."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, Mapping):
        raise ValueError(f"{path}: not a JSON object")
    if document.get("schema") == METRICS_SCHEMA:
        return dict(document)
    inner = document.get("metrics")
    if isinstance(inner, Mapping) and inner.get("schema") == METRICS_SCHEMA:
        return dict(inner)
    raise ValueError(
        f"{path}: no {METRICS_SCHEMA!r} snapshot found "
        "(expected a registry snapshot or a document with a "
        "'metrics' key)"
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def _format_quantity(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not float(value).is_integer():
        return f"{value:.4g}"
    return f"{int(value):,}"


def _seconds_like(name: str) -> bool:
    return name.endswith("_seconds") or "_seconds_" in name


def _format_observation(name: str, value: Optional[float]) -> str:
    return (_format_seconds(value) if _seconds_like(name)
            else _format_quantity(value))


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f"{key}={value}"
                    for key, value in sorted(labels.items()))
    return "{" + body + "}"


def _aligned(rows: List[List[str]], indent: str = "  ") -> List[str]:
    if not rows:
        return []
    widths = [max(len(row[column]) for row in rows)
              for column in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(widths[column])
                           for column, cell in enumerate(row)).rstrip()
        for row in rows
    ]


def _series_index(entry: Mapping[str, Any]) -> Dict[Any, Mapping[str, Any]]:
    index: Dict[Any, Mapping[str, Any]] = {}
    for series in entry.get("series", []):
        key = tuple(sorted((series.get("labels") or {}).items()))
        index[key] = series
    return index


def render_dashboard(snapshot: Optional[Mapping[str, Any]],
                     baseline: Optional[Mapping[str, Any]] = None, *,
                     tracer: Optional[Tracer] = None,
                     provenance: Optional[Mapping[str, Any]] = None
                     ) -> str:
    """The text dashboard for one snapshot (optionally vs a baseline).

    ``None`` or an empty snapshot renders a valid "(no metrics in
    snapshot)" dashboard. A ``tracer`` adds a ``trace:`` line with its
    ring buffer's buffered and dropped event counts: a truncated trace
    silently biases any analysis done on it, so the report says when
    it happened. ``provenance`` renders as its own section, skipping
    ``None``-valued fields.
    """
    snapshot = snapshot or {}
    lines = [f"metrics report ({snapshot.get('schema', '?')})"]
    if baseline is not None:
        lines[0] += "  [delta vs baseline]"

    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = [["name", "count", "mean", "p50", "p95", "p99"]]
        for name in sorted(histograms):
            entry = histograms[name]
            base_index = _series_index(
                (baseline or {}).get("histograms", {}).get(name, {}))
            for series in entry.get("series", []):
                key = tuple(sorted(
                    (series.get("labels") or {}).items()))
                count = series.get("count", 0)
                count_cell = _format_quantity(count)
                if baseline is not None:
                    base_count = base_index.get(key, {}).get("count", 0)
                    count_cell += f" (Δ{count - base_count:+,})"
                mean = (series.get("sum", 0.0) / count) if count else None
                rows.append([
                    name + _label_suffix(series.get("labels") or {}),
                    count_cell,
                    _format_observation(name, mean),
                    _format_observation(name, series.get("p50")),
                    _format_observation(name, series.get("p95")),
                    _format_observation(name, series.get("p99")),
                ])
        if len(rows) > 1:
            lines.append("histograms:")
            lines.extend(_aligned(rows))

    counters = snapshot.get("counters") or {}
    if counters:
        rows = []
        for name in sorted(counters):
            entry = counters[name]
            base_index = _series_index(
                (baseline or {}).get("counters", {}).get(name, {}))
            for series in entry.get("series", []):
                key = tuple(sorted(
                    (series.get("labels") or {}).items()))
                value = series.get("value", 0.0)
                cell = _format_quantity(value)
                if baseline is not None:
                    base = base_index.get(key, {}).get("value", 0.0)
                    cell += f" (Δ{value - base:+,.6g})"
                rows.append([
                    name + _label_suffix(series.get("labels") or {}),
                    cell,
                ])
        if rows:
            lines.append("counters:")
            lines.extend(_aligned(rows))

    gauges = snapshot.get("gauges") or {}
    if gauges:
        rows = []
        for name in sorted(gauges):
            entry = gauges[name]
            for series in entry.get("series", []):
                rows.append([
                    name + _label_suffix(series.get("labels") or {}),
                    _format_observation(name,
                                        series.get("value", 0.0))
                    if _seconds_like(name)
                    else f"{series.get('value', 0.0):,.6g}",
                ])
        if rows:
            lines.append("gauges:")
            lines.extend(_aligned(rows))

    if len(lines) == 1:
        lines.append("  (no metrics in snapshot)")
    if tracer is not None:
        lines.append(f"trace: {tracer.event_count:,} events buffered, "
                     f"{tracer.dropped_events:,} dropped")
    rows = [[str(key), f"{value:.4g}" if isinstance(value, float)
             else str(value)]
            for key, value in sorted((provenance or {}).items())
            if value is not None]
    if rows:
        lines.append("provenance:")
        lines.extend(_aligned(rows))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments metrics-report",
        description="Render a repro-metrics/v1 snapshot as a text "
                    "dashboard, optionally diffed against a baseline "
                    "snapshot, plus an SLO health report.",
    )
    parser.add_argument("snapshot", help="snapshot JSON file")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="optional baseline snapshot to diff "
                             "against")
    parser.add_argument("--no-health", action="store_true",
                        help="skip SLO evaluation")
    parser.add_argument("--fail-on", choices=("never", "fail", "warn"),
                        default="never",
                        help="exit non-zero when health status is at "
                             "least this bad (default: never)")
    args = parser.parse_args(argv)

    try:
        snapshot = load_snapshot(args.snapshot)
        baseline = (load_snapshot(args.baseline)
                    if args.baseline else None)
    except (OSError, ValueError) as error:
        print(f"metrics-report: {error}", file=sys.stderr)
        return 2

    print(render_dashboard(snapshot, baseline))

    if args.no_health:
        return 0
    report = health_mod.evaluate_rules(health_mod.DEFAULT_SLO_RULES,
                                       snapshot)
    print(report.render())

    if args.fail_on == "never":
        return 0
    threshold = {"fail": ("fail",), "warn": ("warn", "fail")}
    return 1 if report.status in threshold[args.fail_on] else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())

"""Text rendering of one run's metrics.

``render_report`` turns a registry snapshot into the text block the
experiments CLI prints after each ``--telemetry`` run: the
:func:`~repro.telemetry.metrics_report.render_dashboard` view of the
snapshot, the event tracer's ring-buffer line and the run's
provenance.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Union

from . import trace as _trace
from .metrics_report import _aligned, render_dashboard


def render_report(metrics: Optional[Mapping[str, Any]],
                  provenance: Optional[Mapping[str, Any]] = None,
                  tracer: Union["_trace.Tracer", None, str] = "global"
                  ) -> str:
    """Aligned, human-readable view of a ``repro-metrics/v1`` snapshot.

    ``None`` or an empty snapshot renders a valid "(no metrics in
    snapshot)" dashboard. ``provenance`` — when provided — is rendered
    as its own section, skipping ``None``-valued fields rather than
    printing them.

    Loss is reported, not swallowed: when event tracing is active a
    ``trace:`` line reports the ring buffer's buffered/dropped event
    counts. ``tracer`` defaults to the global tracer; pass ``None`` to
    suppress the line or an explicit :class:`Tracer` to report on that
    instance.
    """
    if tracer == "global":
        tracer = _trace.get_tracer()
    lines: List[str] = [render_dashboard(metrics or {})]

    if tracer is not None and not isinstance(tracer, str):
        # Ring-buffer accounting: a truncated trace silently biases
        # any analysis done on it, so the report says when it happened.
        lines.append(
            f"trace: {tracer.event_count:,} events "
            f"buffered, {tracer.dropped_events:,} dropped"
        )

    if provenance:
        rows = [[str(key), _format_provenance_value(value)]
                for key, value in sorted(provenance.items())
                if value is not None]
        if rows:
            lines.append("provenance:")
            lines.extend(_aligned(rows))
    return "\n".join(lines)


def _format_provenance_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)

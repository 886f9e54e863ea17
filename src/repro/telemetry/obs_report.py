"""``obs-report``: one job's story, joined across every layer.

The observability stack writes three artifacts — a Chrome trace
(``serve-bench --trace``, ``Tracer.write_chrome_trace``), a
``repro-metrics/v1`` snapshot and ``repro-flight/v1`` failure
capsules — and at the ``context`` telemetry level or above
(``REPRO_OBSERVE=context``, ``serve-bench --flight DIR``) every event
in all three carries a ``trace_id``. This CLI performs the join::

    python -m repro.experiments obs-report trace.json --list
    python -m repro.experiments obs-report trace.json <trace_id> \
        --metrics metrics.json --flight flight_dir/

For the selected trace it reconstructs the per-job timeline — submit,
queue wait, dispatch kind (cold/inline) and worker pid, worker-side
solve spans, convergence row count, terminal status — and appends any
flight capsules recorded for that trace. ``--pick first|failed``
selects a trace automatically (``failed`` prefers one that has a
capsule or a non-``done`` finish), which is what CI uses.

``--source server`` scopes the report to traces that entered through
the HTTP front end (:mod:`repro.server`): the server mints one trace
context per request, so its ``server.request.received`` instant and
``server.request`` span join to the service-side job events on the
same ``trace_id``. The timeline then leads with the HTTP leg — route,
method, status, request wall clock, and the handler wait between the
request arriving and the solve being submitted.

Exit status: 0 on success, 2 on unreadable input or when the requested
trace id has no events.

Wired as ``python -m repro.experiments obs-report``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, List, Mapping, Optional

from .flight import FLIGHT_SCHEMA, validate_flight_document

__all__ = ["build_timeline", "filter_http_traces", "join_artifacts",
           "load_capsules", "load_trace_events", "main",
           "render_timeline"]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_trace_events(path: str) -> List[Dict[str, Any]]:
    """Events from a Chrome ``trace_event`` JSON document.

    Accepts the object form (``{"traceEvents": [...]}``, what
    :meth:`Tracer.write_chrome_trace` emits) or a bare event array.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, Mapping):
        events = document.get("traceEvents")
    else:
        events = document
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents array found")
    return [event for event in events if isinstance(event, Mapping)]


def load_capsules(paths: List[str]) -> List[Dict[str, Any]]:
    """Flight capsules from files and/or directories of them.

    A directory argument picks up every ``flight-*.json`` inside it
    (the :class:`~repro.telemetry.flight.FlightRecorder` naming
    scheme). Non-capsule JSON files are skipped with a warning rather
    than failing the report.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(
                os.path.join(path, "flight-*.json"))))
        else:
            files.append(path)
    capsules = []
    for filename in files:
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"obs-report: skipping {filename}: {error}",
                  file=sys.stderr)
            continue
        if (not isinstance(document, Mapping)
                or document.get("schema") != FLIGHT_SCHEMA):
            print(f"obs-report: skipping {filename}: not a "
                  f"{FLIGHT_SCHEMA} capsule", file=sys.stderr)
            continue
        capsule = dict(document)
        capsule.setdefault("path", filename)
        capsules.append(capsule)
    return capsules


def load_metrics(path: Optional[str]) -> Optional[Dict[str, Any]]:
    if path is None:
        return None
    from .metrics_report import load_snapshot
    return load_snapshot(path)


# ----------------------------------------------------------------------
# The join
# ----------------------------------------------------------------------
def _event_trace_id(event: Mapping[str, Any]) -> Optional[str]:
    args = event.get("args")
    if isinstance(args, Mapping):
        trace_id = args.get("trace_id")
        if isinstance(trace_id, str):
            return trace_id
    return None


def join_artifacts(events: List[Dict[str, Any]],
                   capsules: List[Dict[str, Any]]
                   ) -> Dict[str, Dict[str, Any]]:
    """Group trace events and capsules by ``trace_id``.

    Returns ``{trace_id: {"events": [...], "capsules": [...]}}`` in
    first-seen (timestamp) order; events without a ``trace_id`` are
    left out — they belong to no job.
    """
    traces: Dict[str, Dict[str, Any]] = {}
    for event in sorted(events, key=lambda e: float(e.get("ts", 0.0))):
        trace_id = _event_trace_id(event)
        if trace_id is None:
            continue
        entry = traces.setdefault(trace_id,
                                  {"events": [], "capsules": []})
        entry["events"].append(event)
    for capsule in capsules:
        trace_id = capsule.get("trace_id")
        if not isinstance(trace_id, str):
            continue
        entry = traces.setdefault(trace_id,
                                  {"events": [], "capsules": []})
        entry["capsules"].append(capsule)
    return traces


def build_timeline(trace_id: str, entry: Mapping[str, Any]
                   ) -> Dict[str, Any]:
    """Digest one trace's events into the per-job summary record."""
    events: List[Mapping[str, Any]] = entry["events"]
    summary: Dict[str, Any] = {
        "trace_id": trace_id,
        "job_ids": [],
        "solver": None,
        "submitted_ts": None,
        "queue_seconds": None,
        "dispatch": None,
        "worker_pid": None,
        "stages": [],
        "worker_spans": [],
        "convergence_rows": 0,
        "profile": None,
        "status": None,
        "http": None,
        "events": len(events),
    }
    for event in events:
        args = event.get("args") or {}
        name = str(event.get("name", ""))
        job_id = args.get("job_id")
        if job_id is not None and job_id not in summary["job_ids"]:
            summary["job_ids"].append(job_id)
        if args.get("solver") and summary["solver"] is None:
            summary["solver"] = args["solver"]
        if name == "server.request.received":
            http = summary["http"] or {}
            http.update({
                "received_ts": float(event.get("ts", 0.0)),
                "route": args.get("route"),
                "method": args.get("method"),
                "path": args.get("path"),
            })
            summary["http"] = http
        elif name == "server.request" and event.get("ph") == "X":
            http = summary["http"] or {}
            http.update({
                "status": args.get("status"),
                "seconds": float(event.get("dur", 0.0)) / 1e6,
            })
            http.setdefault("route", args.get("route"))
            http.setdefault("method", args.get("method"))
            summary["http"] = http
        elif name == "service.job.submitted":
            summary["submitted_ts"] = float(event.get("ts", 0.0))
        elif name == "service.job.cache_hit":
            summary["dispatch"] = "cache"
            summary["status"] = summary["status"] or "done"
        elif name == "service.job.coalesced":
            summary["dispatch"] = "coalesced"
        elif name == "service.job.dispatch":
            summary["dispatch"] = args.get("dispatch")
            summary["worker_pid"] = args.get("worker_pid")
            if args.get("queue_seconds") is not None:
                summary["queue_seconds"] = args["queue_seconds"]
        elif name == "service.job.finish":
            summary["status"] = args.get("status")
            if args.get("queue_seconds") is not None and \
                    summary["queue_seconds"] is None:
                summary["queue_seconds"] = args["queue_seconds"]
        elif event.get("ph") == "X" and name.startswith("pipeline."):
            summary["stages"].append({
                "stage": name[len("pipeline."):],
                "seconds": float(event.get("dur", 0.0)) / 1e6,
                "status": args.get("status"),
            })
        elif event.get("cat") == "convergence":
            summary["convergence_rows"] += 1
        elif event.get("cat") == "profile":
            summary["profile"] = {
                "samples": args.get("samples"),
                "hotspots": args.get("hotspots"),
            }
        elif event.get("ph") == "B" and args.get("stage") == "worker":
            summary["worker_spans"].append({
                "name": name,
                "pid": event.get("pid"),
                "ts": float(event.get("ts", 0.0)),
            })
    http = summary["http"]
    if (http is not None and summary["submitted_ts"] is not None
            and http.get("received_ts") is not None):
        # The handler leg: request on the wire -> solve submitted.
        http["handler_wait_seconds"] = max(
            summary["submitted_ts"] - http["received_ts"], 0.0) / 1e6
    capsules = entry["capsules"]
    if summary["status"] is None and capsules:
        reasons = {capsule.get("reason") for capsule in capsules}
        summary["status"] = "/".join(sorted(str(r) for r in reasons))
    return summary


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.2f}ms"


def render_timeline(summary: Mapping[str, Any],
                    capsules: List[Mapping[str, Any]],
                    metrics: Optional[Mapping[str, Any]] = None
                    ) -> str:
    """The human-readable per-job report for one trace."""
    lines = [f"trace {summary['trace_id']}"]
    http = summary.get("http")
    if http is not None:
        line = (f"  http: {http.get('method') or '?'} "
                f"{http.get('path') or http.get('route') or '?'}"
                f" -> {http.get('status') or '?'}")
        if http.get("seconds") is not None:
            line += f" in {_ms(http['seconds'])}"
        if http.get("handler_wait_seconds") is not None:
            line += (f"   handler wait: "
                     f"{_ms(http['handler_wait_seconds'])}")
        lines.append(line)
    job_ids = summary["job_ids"]
    lines.append(
        f"  job(s): "
        f"{', '.join(str(j) for j in job_ids) if job_ids else '-'}"
        f"   solver: {summary['solver'] or '-'}"
        f"   status: {summary['status'] or '?'}")
    lines.append(
        f"  queue wait: {_ms(summary['queue_seconds'])}"
        f"   dispatch: {summary['dispatch'] or '-'}"
        + (f" (worker pid {summary['worker_pid']})"
           if summary.get("worker_pid") else ""))
    if summary["stages"]:
        lines.append("  pipeline stages:")
        for stage in summary["stages"]:
            lines.append(
                f"    {stage['stage']:<12} {_ms(stage['seconds']):>10}"
                f"  {stage['status'] or ''}")
    if summary["worker_spans"]:
        span_names = sorted({span["name"]
                             for span in summary["worker_spans"]})
        pids = sorted({span["pid"] for span in summary["worker_spans"]})
        lines.append(
            f"  worker spans: {len(summary['worker_spans'])} "
            f"({', '.join(span_names[:4])}) on pid(s) "
            f"{', '.join(str(p) for p in pids)}")
    if summary["convergence_rows"]:
        lines.append(
            f"  convergence rows: {summary['convergence_rows']}")
    if summary["profile"]:
        hotspots = summary["profile"].get("hotspots") or []
        lines.append(
            f"  profile: {summary['profile'].get('samples', 0)} "
            f"sample(s); top: {'; '.join(hotspots[:3]) or '-'}")
    for capsule in capsules:
        detail = capsule.get("detail") or {}
        lines.append(
            f"  flight capsule: {capsule.get('reason')} "
            f"({capsule.get('event_count', 0)} event(s), "
            f"{capsule.get('path', 'in-memory')})")
        for key in ("solver", "deadline", "queue_seconds", "error",
                    "rule", "reason"):
            if detail.get(key) is not None:
                lines.append(f"    {key}: {detail[key]}")
    if metrics is not None:
        lines.append("  metrics snapshot: "
                     + _metrics_digest(metrics))
    return "\n".join(lines)


def _metrics_digest(snapshot: Mapping[str, Any]) -> str:
    """One line situating the job among the run-wide histograms."""
    parts = []
    histograms = snapshot.get("histograms") or {}
    for name in ("service_queue_wait_seconds",
                 "service_execute_seconds",
                 "pipeline_stage_seconds"):
        entry = histograms.get(name)
        if not entry:
            continue
        count = sum(series.get("count", 0)
                    for series in entry.get("series", []))
        parts.append(f"{name} n={count}")
    return ", ".join(parts) if parts else "(no service histograms)"


def render_listing(traces: Mapping[str, Mapping[str, Any]]) -> str:
    rows = [["trace_id", "job(s)", "solver", "status", "events",
             "capsules"]]
    for trace_id, entry in traces.items():
        summary = build_timeline(trace_id, entry)
        rows.append([
            trace_id,
            ",".join(str(j) for j in summary["job_ids"]) or "-",
            str(summary["solver"] or "-"),
            str(summary["status"] or "?"),
            str(summary["events"]),
            str(len(entry["capsules"])),
        ])
    widths = [max(len(row[column]) for row in rows)
              for column in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[column])
                  for column, cell in enumerate(row)).rstrip()
        for row in rows)


def filter_http_traces(traces: Mapping[str, Dict[str, Any]]
                       ) -> Dict[str, Dict[str, Any]]:
    """Only traces that entered through the HTTP server."""
    return {
        trace_id: entry for trace_id, entry in traces.items()
        if any(str(event.get("name", "")).startswith("server.request")
               for event in entry["events"])
    }


def _pick_trace(traces: Mapping[str, Mapping[str, Any]],
                mode: str) -> Optional[str]:
    if not traces:
        return None
    if mode == "failed":
        for trace_id, entry in traces.items():
            summary = build_timeline(trace_id, entry)
            if entry["capsules"] or summary["status"] not in (
                    None, "done"):
                return trace_id
        return None
    return next(iter(traces))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments obs-report",
        description="Join a Chrome trace, a metrics snapshot and "
                    "flight capsules by trace_id into per-job "
                    "timelines.",
    )
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument("trace_id", nargs="?", default=None,
                        help="trace id to report on (see --list)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="repro-metrics/v1 snapshot to situate "
                             "the job in")
    parser.add_argument("--flight", metavar="PATH", action="append",
                        default=[],
                        help="flight capsule file or directory "
                             "(repeatable)")
    parser.add_argument("--source", choices=("any", "server"),
                        default="any",
                        help="'server' keeps only traces with HTTP "
                             "request events (repro.server) and leads "
                             "each timeline with the request leg")
    parser.add_argument("--list", action="store_true",
                        help="list every trace id found and exit")
    parser.add_argument("--pick", choices=("first", "failed"),
                        default=None,
                        help="auto-select a trace instead of naming "
                             "one: 'first' by timestamp, 'failed' the "
                             "first with a capsule or non-done finish")
    parser.add_argument("--validate", action="store_true",
                        help="additionally validate every loaded "
                             "flight capsule; problems fail the "
                             "report")
    args = parser.parse_args(argv)

    try:
        events = load_trace_events(args.trace)
        capsules = load_capsules(args.flight)
        metrics = load_metrics(args.metrics)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"obs-report: {error}", file=sys.stderr)
        return 2

    if args.validate:
        bad = 0
        for capsule in capsules:
            for problem in validate_flight_document(capsule):
                print(f"obs-report: capsule "
                      f"{capsule.get('path', '?')}: {problem}",
                      file=sys.stderr)
                bad += 1
        if bad:
            return 2

    traces = join_artifacts(events, capsules)
    if args.source == "server":
        traces = filter_http_traces(traces)
        if not traces:
            print("obs-report: no traces with HTTP request events "
                  "(was the server run with --trace and --context?)",
                  file=sys.stderr)
            return 2
    if args.list:
        if not traces:
            print("obs-report: no trace-annotated events found "
                  "(was the run made with the context layer on?)",
                  file=sys.stderr)
            return 2
        print(render_listing(traces))
        return 0

    trace_id = args.trace_id
    if trace_id is None and args.pick is not None:
        trace_id = _pick_trace(traces, args.pick)
        if trace_id is None:
            print(f"obs-report: --pick {args.pick} matched no trace",
                  file=sys.stderr)
            return 2
    if trace_id is None:
        parser.error("name a trace_id, or use --list / --pick")
    if trace_id not in traces:
        print(f"obs-report: trace {trace_id!r} has no events "
              f"({len(traces)} trace(s) present; try --list)",
              file=sys.stderr)
        return 2

    entry = traces[trace_id]
    summary = build_timeline(trace_id, entry)
    print(render_timeline(summary, entry["capsules"], metrics))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())

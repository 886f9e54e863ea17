"""``obs-report``: one job's story, read from one event log.

Every job fact lands once in one ring (:mod:`repro.telemetry.flight`),
and at the ``context`` telemetry level or above
(``REPRO_OBSERVE=context``, ``serve-bench --flight DIR``) every event
carries a ``trace_id``. The ring reaches disk either whole, as a
Chrome trace (``serve-bench --trace``, ``Tracer.write_chrome_trace``),
or cut to one failing trace, as a ``repro-flight/v2`` capsule; both
are Chrome ``traceEvents`` documents, and this CLI reads either::

    python -m repro.experiments obs-report trace.json --list
    python -m repro.experiments obs-report trace.json <trace_id>
    python -m repro.experiments obs-report flight-*.json --pick failed

For the selected trace it filters the events by ``trace_id`` and
reconstructs the per-job timeline — submit, queue wait, dispatch kind
(cold/inline) and worker pid, worker-side solve spans, convergence row
count, terminal status — and lists the flight capsules cut for that
trace (their ``flight.capsule`` instants). ``--pick first|failed``
selects a trace automatically (``failed`` prefers one that has a
capsule or a non-``done`` finish), which is what CI uses.

``--source server`` scopes the report to traces that entered through
the HTTP front end (:mod:`repro.server`): the server mints one trace
context per request, so its ``server.request.received`` instant and
``server.request`` span share the service-side job events'
``trace_id``. The timeline then leads with the HTTP leg — route,
method, status, request wall clock, and the handler wait between the
request arriving and the solve being submitted.

Exit status: 0 on success, 2 on unreadable input or when the requested
trace id has no events.

Wired as ``python -m repro.experiments obs-report``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Mapping, Optional

from .flight import validate_flight_document

__all__ = ["build_timeline", "filter_http_traces", "group_by_trace",
           "load_trace_events", "main", "render_timeline"]


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _load_document(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _trace_events(document: Any, path: str) -> List[Dict[str, Any]]:
    if isinstance(document, Mapping):
        events = document.get("traceEvents")
    else:
        events = document
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents array found")
    return [event for event in events if isinstance(event, Mapping)]


def load_trace_events(path: str) -> List[Dict[str, Any]]:
    """Events from a Chrome ``trace_event`` JSON document.

    Accepts the object form (``{"traceEvents": [...]}``, what
    :meth:`Tracer.write_chrome_trace` and flight capsules hold) or a
    bare event array.
    """
    return _trace_events(_load_document(path), path)


def _capsule_problems(document: Any, events: List[Dict[str, Any]],
                      path: str) -> List[str]:
    """Validation problems of the capsule ``path`` holds or, for a
    trace, of every capsule file its ``flight.capsule`` instants name."""
    if isinstance(document, Mapping) and "schema" in document:
        return [f"capsule {path}: {problem}"
                for problem in validate_flight_document(document)]
    problems = []
    for event in events:
        args = event.get("args") or {}
        if event.get("name") != "flight.capsule" or not args.get("path"):
            continue
        try:
            capsule = _load_document(args["path"])
        except (OSError, json.JSONDecodeError) as error:
            problems.append(f"capsule {args['path']}: {error}")
            continue
        problems.extend(f"capsule {args['path']}: {problem}"
                        for problem in validate_flight_document(capsule))
    return problems


# ----------------------------------------------------------------------
# The filter
# ----------------------------------------------------------------------
def _event_trace_id(event: Mapping[str, Any]) -> Optional[str]:
    args = event.get("args")
    if isinstance(args, Mapping):
        trace_id = args.get("trace_id")
        if isinstance(trace_id, str):
            return trace_id
    return None


def group_by_trace(events: List[Dict[str, Any]]
                   ) -> Dict[str, List[Dict[str, Any]]]:
    """Each ``trace_id``'s events, traces in first-seen (timestamp)
    order; events without a ``trace_id`` belong to no job and are left
    out."""
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for event in sorted(events, key=lambda e: float(e.get("ts", 0.0))):
        trace_id = _event_trace_id(event)
        if trace_id is not None:
            traces.setdefault(trace_id, []).append(event)
    return traces


def build_timeline(trace_id: str, events: List[Mapping[str, Any]]
                   ) -> Dict[str, Any]:
    """Digest one trace's events into the per-job summary record."""
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
        "capsules": [],
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
        elif name == "flight.capsule":
            summary["capsules"].append({
                "reason": args.get("reason"),
                "path": args.get("path"),
                "detail": args.get("detail") or {},
            })
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
    if summary["status"] is None and summary["capsules"]:
        reasons = {capsule["reason"] for capsule in summary["capsules"]}
        summary["status"] = "/".join(sorted(str(r) for r in reasons))
    return summary


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.2f}ms"


def render_timeline(summary: Mapping[str, Any]) -> str:
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
    for capsule in summary["capsules"]:
        detail = capsule["detail"]
        lines.append(
            f"  flight capsule: {capsule['reason']} "
            f"({capsule['path'] or 'in-memory'})")
        for key in ("solver", "deadline", "queue_seconds", "error",
                    "rule", "reason"):
            if detail.get(key) is not None:
                lines.append(f"    {key}: {detail[key]}")
    return "\n".join(lines)


def render_listing(traces: Mapping[str, List[Mapping[str, Any]]]) -> str:
    rows = [["trace_id", "job(s)", "solver", "status", "events",
             "capsules"]]
    for trace_id, events in traces.items():
        summary = build_timeline(trace_id, events)
        rows.append([
            trace_id,
            ",".join(str(j) for j in summary["job_ids"]) or "-",
            str(summary["solver"] or "-"),
            str(summary["status"] or "?"),
            str(summary["events"]),
            str(len(summary["capsules"])),
        ])
    widths = [max(len(row[column]) for row in rows)
              for column in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[column])
                  for column, cell in enumerate(row)).rstrip()
        for row in rows)


def filter_http_traces(traces: Mapping[str, List[Dict[str, Any]]]
                       ) -> Dict[str, List[Dict[str, Any]]]:
    """Only traces that entered through the HTTP server."""
    return {
        trace_id: events for trace_id, events in traces.items()
        if any(str(event.get("name", "")).startswith("server.request")
               for event in events)
    }


def _pick_trace(traces: Mapping[str, List[Mapping[str, Any]]],
                mode: str) -> Optional[str]:
    if not traces:
        return None
    if mode == "failed":
        for trace_id, events in traces.items():
            summary = build_timeline(trace_id, events)
            if summary["capsules"] or summary["status"] not in (
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
        description="Filter a Chrome trace or a flight capsule by "
                    "trace_id into per-job timelines.",
    )
    parser.add_argument("trace", help="Chrome trace_event JSON file or "
                                      "repro-flight/v2 capsule")
    parser.add_argument("trace_id", nargs="?", default=None,
                        help="trace id to report on (see --list)")
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
                        help="additionally validate the input when it "
                             "is a capsule, or every capsule file the "
                             "trace names; problems fail the report")
    args = parser.parse_args(argv)

    try:
        document = _load_document(args.trace)
        events = _trace_events(document, args.trace)
    except (OSError, ValueError) as error:
        print(f"obs-report: {error}", file=sys.stderr)
        return 2

    if args.validate:
        problems = _capsule_problems(document, events, args.trace)
        for problem in problems:
            print(f"obs-report: {problem}", file=sys.stderr)
        if problems:
            return 2

    traces = group_by_trace(events)
    if args.source == "server":
        traces = filter_http_traces(traces)
        if not traces:
            print("obs-report: no traces with HTTP request events "
                  "(was the server run at the trace level, "
                  "REPRO_OBSERVE=trace?)", file=sys.stderr)
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

    print(render_timeline(build_timeline(trace_id, traces[trace_id])))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())

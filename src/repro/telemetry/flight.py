"""Failure flight capsules, cut from the one event log.

Every job lifecycle fact (submitted, dispatch, finish...) is written
once, as a Chrome instant, to one ring: the global
:class:`~repro.telemetry.trace.Tracer` at the ``trace`` level, and
below it, at ``flight``, the :class:`FlightRecorder`'s own
lifecycle-only tracer, bounded at :data:`MAX_FLIGHT_EVENTS` events,
which :func:`~repro.telemetry.trace.get_tracer` never returns.
:func:`event_log` names whichever is on.

Nothing is written anywhere until something goes wrong: when a job
finishes FAILED/TIMEOUT (wired in ``repro.service.service``), an SLO
breach begins (:func:`repro.telemetry.health.evaluate_rules`) or the
HTTP server drains, :meth:`FlightRecorder.dump` leaves a
``flight.capsule`` instant in the ring and cuts a ``repro-flight/v2``
capsule from it: that trace's events, the coalesced submissions that
joined it, and ambient ones (lifecycle facts naming no trace and no
job, such as SLO breaches), at most :data:`MAX_FLIGHT_EVENTS` of them,
as a Chrome ``traceEvents`` document that opens in Perfetto and in
``obs-report`` unchanged. Capsules are kept in memory and, when a
``dump_dir`` is configured, written to ``flight-{pid}-*.json`` on
disk.

Like every other telemetry layer the recorder is off by default:
the ``flight`` level of :func:`repro.telemetry.observe`
(``REPRO_OBSERVE=flight``) and the level above it turn it on, and
capsules go to ``REPRO_FLIGHT_DIR`` unless ``observe`` names a
``flight_dir``.

:func:`validate_flight_document` is the structural validator CI runs
against emitted capsules, mirroring
:func:`repro.pipeline.plan.validate_plan_document`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from typing import Any, Dict, List, Optional

from . import trace as _trace

#: Schema tag carried by every capsule.
FLIGHT_SCHEMA = "repro-flight/v2"

#: Capacity of the ``flight`` level's ring, and most events per capsule.
MAX_FLIGHT_EVENTS = 4096

#: In-memory capsules kept before the oldest is dropped.
MAX_CAPSULES = 64

#: Environment variable naming the default capsule directory.
ENV_DIR_VAR = "REPRO_FLIGHT_DIR"

#: Event categories of lifecycle facts: job instants and capsules.
LIFECYCLE_CATEGORIES = ("service", "flight")


def _json_safe(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(item) for item in value]
    return repr(value)


def _belongs(event: Dict[str, Any], trace_id: Optional[str],
             job_id: Optional[int]) -> bool:
    """Whether a capsule for ``trace_id``/``job_id`` keeps ``event``.

    Without ids every event belongs. With them, an ambient lifecycle
    fact that carries *no* ids belongs (an SLO breach belongs in every
    capsule; the untraced spans and counters of the ``trace`` level do
    not). Otherwise a capsule with a trace id keeps that trace's events
    and the coalesced submissions whose ``leader_trace_id`` it is. Job
    ids restart at 1 in every service, so ``job_id`` decides only for a
    capsule cut without a trace id.
    """
    if trace_id is None and job_id is None:
        return True
    args = event.get("args") or {}
    event_trace, event_job = args.get("trace_id"), args.get("job_id")
    if event_trace is None and event_job is None:
        return event.get("cat") in LIFECYCLE_CATEGORIES
    if trace_id is not None:
        return trace_id in (event_trace, args.get("leader_trace_id"))
    return event_job == job_id


class FlightRecorder:
    """Cuts capsules from the event log on failure."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._capsule_sequence = itertools.count(1)
        #: The ring lifecycle facts go to while no global tracer is on.
        self.lifecycle = _trace.Tracer(max_events=MAX_FLIGHT_EVENTS,
                                       sample_memory=False)
        #: Where capsules are written (``None``: memory only).
        self.dump_dir = dump_dir
        self._last_breach: tuple = ()
        #: Capsules dumped so far, oldest first (bounded).
        self.capsules: List[Dict[str, Any]] = []

    def ring(self) -> "_trace.Tracer":
        """The event log capsules are cut from: the global tracer when
        one is on, else :attr:`lifecycle`."""
        tracer = _trace.get_tracer()
        return tracer if tracer is not None else self.lifecycle

    def dump(self, reason: str, *,
             trace_id: Optional[str] = None,
             job_id: Optional[int] = None,
             detail: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Cut a ``repro-flight/v2`` capsule; keep and maybe write it.

        The ``flight.capsule`` instant (ids, reason, path, detail) goes
        into the ring first, so the capsule carries it too.
        """
        sequence = next(self._capsule_sequence)
        detail = _json_safe(detail or {})
        dump_dir = self.dump_dir
        path = None
        if dump_dir is not None:
            # The writing pid is in the name: processes can share a
            # directory without overwriting each other's capsules.
            path = os.path.join(
                dump_dir, f"flight-{os.getpid()}-{sequence:03d}-"
                f"{reason}-{trace_id or 'untraced'}.json")
        ring = self.ring()
        ring.instant("flight.capsule", category="flight", args={
            "trace_id": trace_id, "job_id": job_id, "reason": reason,
            "path": path, "detail": detail,
        })
        events = [event for event in ring.events()
                  if _belongs(event, trace_id, job_id)]
        document: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "trace_id": trace_id,
            "job_id": job_id,
            "created_unix": time.time(),
            "pid": os.getpid(),
            "detail": detail,
            "dropped_events": ring.dropped_events,
            "traceEvents": events[-MAX_FLIGHT_EVENTS:],
            "displayTimeUnit": "ms",
        }
        if path is not None:
            try:
                os.makedirs(dump_dir, exist_ok=True)
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, default=repr)
                document["path"] = path
            except OSError:
                pass
        with self._lock:
            self.capsules.append(document)
            if len(self.capsules) > MAX_CAPSULES:
                del self.capsules[0]
        return document

    def on_slo_breach(self, report: Any) -> Optional[Dict[str, Any]]:
        """Dump a capsule when a :class:`HealthReport` starts a breach.

        Every evaluated report comes here. A breach is the set of
        failing rules: the same set failing again (a broken SLO polled
        in a loop) cuts no second capsule, and a report with no failing
        rule ends the breach, so the next failure cuts a new one.
        """
        failing = tuple(sorted(
            result.rule for result in report.results
            if result.status == "fail"
        ))
        previous, self._last_breach = self._last_breach, failing
        if not failing or failing == previous:
            return None
        return self.dump("slo_breach", detail={
            "status": report.status,
            "rules": [
                {"rule": result.rule, "reason": result.reason,
                 "expr": result.expr}
                for result in report.results if result.status == "fail"
            ],
        })


#: Set by :func:`repro.telemetry.observe`.
_recorder: Optional[FlightRecorder] = None


def get_flight_recorder() -> Optional[FlightRecorder]:
    """The enabled recorder, or ``None`` — the single-attribute guard."""
    return _recorder


def event_log() -> Optional["_trace.Tracer"]:
    """The ring lifecycle facts go to: the global tracer when one is
    on, else the ``flight`` level's lifecycle ring, else ``None``."""
    if _recorder is not None:
        return _recorder.ring()
    return _trace.get_tracer()


def validate_flight_document(document: Any) -> List[str]:
    """Structural check of a capsule; returns problem strings (empty=ok)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    schema = document.get("schema")
    if schema != FLIGHT_SCHEMA:
        problems.append(
            f"schema tag is {schema!r}, expected {FLIGHT_SCHEMA!r}")
    reason = document.get("reason")
    if not isinstance(reason, str) or not reason:
        problems.append("missing non-empty string 'reason'")
    created = document.get("created_unix")
    if not isinstance(created, (int, float)) or isinstance(created, bool) \
            or not math.isfinite(created):
        problems.append("'created_unix' is not a finite number")
    if not isinstance(document.get("pid"), int):
        problems.append("'pid' is not an integer")
    trace_id = document.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        problems.append("'trace_id' is neither null nor a string")
    job_id = document.get("job_id")
    if job_id is not None and not isinstance(job_id, int):
        problems.append("'job_id' is neither null nor an integer")
    if not isinstance(document.get("detail"), dict):
        problems.append("'detail' is not an object")
    dropped = document.get("dropped_events")
    if not isinstance(dropped, int) or dropped < 0:
        problems.append("'dropped_events' is not a non-negative integer")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        problems.append("'traceEvents' is not a list")
        events = []
    if len(events) > MAX_FLIGHT_EVENTS:
        problems.append(f"{len(events)} traceEvents exceed the "
                        f"{MAX_FLIGHT_EVENTS}-event bound")
    for index, event in enumerate(events):
        prefix = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{prefix} is not an object")
            continue
        for key in ("name", "ph"):
            if not isinstance(event.get(key), str) or not event[key]:
                problems.append(
                    f"{prefix} missing non-empty string {key!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            problems.append(f"{prefix} missing numeric 'ts'")
    return problems

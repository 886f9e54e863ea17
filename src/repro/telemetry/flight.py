"""Per-job flight recorder: a black box that dumps on failure.

A :class:`FlightRecorder` keeps a bounded ring buffer of small,
correlated events (job submitted, dispatched, reaped...), each stamped
with the active :mod:`~repro.telemetry.context` ids.  Nothing is
written anywhere until something goes wrong: when a job finishes
FAILED/TIMEOUT (wired in ``SolveService._finish``) or an SLO rule
fails (wired in :func:`repro.telemetry.health.evaluate_rules`), the
recorder dumps a ``repro-flight/v1`` JSON capsule — the recent events
for that trace plus ambient ones — in memory and, when a ``dump_dir``
is configured, to ``flight-*.json`` on disk.

Like every other telemetry layer the recorder is off by default and
cheap when off: hot paths fetch :func:`get_flight_recorder` once and
skip on ``None``.  The ``flight`` level of
:func:`repro.telemetry.observe` (``REPRO_OBSERVE=flight``) and the
level above it turn it on; capsules go to ``REPRO_FLIGHT_DIR`` unless
``observe`` names a ``flight_dir``.

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
from collections import deque
from typing import Any, Dict, List, Optional

from . import context as _context

#: Schema tag carried by every capsule.
FLIGHT_SCHEMA = "repro-flight/v1"

#: Default ring-buffer capacity (events, not bytes).
MAX_FLIGHT_EVENTS = 4096

#: In-memory capsules kept before the oldest is dropped.
MAX_CAPSULES = 64

#: Environment variable naming the default capsule directory.
ENV_DIR_VAR = "REPRO_FLIGHT_DIR"


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


class FlightRecorder:
    """Bounded ring of correlated events plus capsule dumping."""

    def __init__(self, max_events: int = MAX_FLIGHT_EVENTS,
                 dump_dir: Optional[str] = None,
                 max_capsules: int = MAX_CAPSULES) -> None:
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=max_events)
        self._sequence = itertools.count(1)
        self._capsule_sequence = itertools.count(1)
        #: Where capsules are written (``None``: memory only).
        self.dump_dir = dump_dir
        self._max_capsules = max_capsules
        self._last_breach: Optional[tuple] = None
        #: Capsules dumped so far, oldest first (bounded).
        self.capsules: List[Dict[str, Any]] = []
        #: Events evicted from the full ring (diagnostic only).
        self.dropped = 0

    # -- recording ----------------------------------------------------

    def record(self, kind: str, name: str, *,
               trace_id: Optional[str] = None,
               job_id: Optional[int] = None,
               **details: Any) -> Dict[str, Any]:
        """Append one event; ids default to the active trace context."""
        if trace_id is None or job_id is None:
            context = _context.current_context()
            if context is not None:
                if trace_id is None:
                    trace_id = context.trace_id
                if job_id is None:
                    job_id = context.job_id
        event: Dict[str, Any] = {
            "seq": next(self._sequence),
            "unix": time.time(),
            "kind": kind,
            "name": name,
            "trace_id": trace_id,
            "job_id": job_id,
        }
        if details:
            event["details"] = _json_safe(details)
        with self._lock:
            if (self._events.maxlen is not None
                    and len(self._events) == self._events.maxlen):
                self.dropped += 1
            self._events.append(event)
        return event

    def events(self, trace_id: Optional[str] = None,
               job_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """Snapshot of ring events, filtered to one trace/job.

        With a filter, an event is kept when it carries the matching
        id — or carries *no* ids at all (ambient events such as SLO
        breaches still belong in every capsule).
        """
        with self._lock:
            snapshot = list(self._events)
        if trace_id is None and job_id is None:
            return snapshot
        selected = []
        for event in snapshot:
            if trace_id is not None and event["trace_id"] == trace_id:
                selected.append(event)
            elif job_id is not None and event["job_id"] == job_id:
                selected.append(event)
            elif event["trace_id"] is None and event["job_id"] is None:
                selected.append(event)
        return selected

    # -- capsules -----------------------------------------------------

    def dump(self, reason: str, *,
             trace_id: Optional[str] = None,
             job_id: Optional[int] = None,
             detail: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Build a ``repro-flight/v1`` capsule; keep and maybe write it."""
        sequence = next(self._capsule_sequence)
        document: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "trace_id": trace_id,
            "job_id": job_id,
            "created_unix": time.time(),
            "pid": os.getpid(),
            "capsule_seq": sequence,
            "detail": _json_safe(detail or {}),
            "dropped_events": self.dropped,
            "events": self.events(trace_id=trace_id, job_id=job_id),
        }
        document["event_count"] = len(document["events"])
        path = self._write(document, sequence)
        with self._lock:
            self.capsules.append(document)
            if len(self.capsules) > self._max_capsules:
                del self.capsules[0]
        if path is not None:
            document["path"] = path
        return document

    def _write(self, document: Dict[str, Any],
               sequence: int) -> Optional[str]:
        dump_dir = self.dump_dir
        if dump_dir is None:
            return None
        trace_part = document["trace_id"] or "untraced"
        name = f"flight-{sequence:03d}-{document['reason']}-{trace_part}.json"
        path = os.path.join(dump_dir, name)
        try:
            os.makedirs(dump_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, default=repr)
        except OSError:
            return None
        return path

    def on_slo_breach(self, report: Any) -> Optional[Dict[str, Any]]:
        """Dump a capsule for a failing :class:`HealthReport`.

        Consecutive identical breach signatures (same failing rules)
        are deduplicated so a persistently-broken SLO polled in a loop
        does not flood the capsule store.
        """
        failing = tuple(sorted(
            result.rule for result in report.results
            if result.status == "fail"
        ))
        if not failing:
            return None
        if failing == self._last_breach:
            return None
        self._last_breach = failing
        self.record("slo", "breach", rules=list(failing))
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
    events = document.get("events")
    if not isinstance(events, list):
        problems.append("'events' is not a list")
        events = []
    for index, event in enumerate(events):
        prefix = f"events[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{prefix} is not an object")
            continue
        for key in ("kind", "name"):
            if not isinstance(event.get(key), str) or not event[key]:
                problems.append(
                    f"{prefix} missing non-empty string {key!r}")
        if not isinstance(event.get("seq"), int):
            problems.append(f"{prefix} missing integer 'seq'")
        unix = event.get("unix")
        if not isinstance(unix, (int, float)) or isinstance(unix, bool):
            problems.append(f"{prefix} missing numeric 'unix'")
    if isinstance(events, list) \
            and document.get("event_count") != len(events):
        problems.append(
            f"'event_count' {document.get('event_count')!r} does not "
            f"match len(events) == {len(events)}")
    return problems

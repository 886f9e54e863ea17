"""Event-level tracing: a timeline of *when* time was spent.

The metrics registry answers "how much, how often"; the
:class:`Tracer` answers "when, in what order, on which thread". It
records timestamped begin/end span events, instant events, complete
events and counter samples into a bounded ring buffer, and exports the
Chrome ``trace_event`` JSON format — load the file in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` to see the run as a
flame chart — plus JSON lines for programmatic diffing.

Like the metrics registry, tracing is **off by default and cheap when
off**: instrumented code fetches the global tracer once per operation
(:func:`get_tracer`) and falls through to no-ops when it is ``None``.
While a tracer is on, every :func:`repro.telemetry.span` activation
emits a begin/end event pair, so the whole span hierarchy
(experiments, solvers, service workers) lands on the timeline without
touching call sites.

Memory is sampled at span boundaries (throttled): peak RSS via
``resource.getrusage`` and, when ``trace_malloc=True``, the
``tracemalloc`` current/peak heap — emitted as Chrome counter events
that render as a memory track under the timeline.

The ``trace`` level of :func:`repro.telemetry.observe`
(``REPRO_OBSERVE=trace``) installs a tracer; :func:`enable_tracing`
installs a given one. Usage::

    from repro import telemetry
    telemetry.observe("trace")
    ... instrumented code ...
    telemetry.get_tracer().write_chrome_trace("out.json")  # Perfetto
    # or: python -m repro.experiments E8 --trace out.json
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

try:  # not available on every platform (e.g. Windows)
    import resource
except ImportError:  # pragma: no cover - linux container always has it
    resource = None  # type: ignore[assignment]

import tracemalloc

from . import context as _context

#: Default ring-buffer capacity; oldest events drop past this point so
#: memory stays bounded no matter how long the traced run is.
MAX_TRACE_EVENTS = 200_000

#: Minimum microseconds between memory samples, so span-heavy code
#: does not turn the timeline into a wall of counter events.
MEMORY_SAMPLE_INTERVAL_US = 1_000.0


def _peak_rss_kb() -> Optional[float]:
    """Peak resident set size in KiB, or None when unavailable."""
    if resource is None:
        return None
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class _TraceSpanHandle:
    """Context manager emitting one begin/end event pair."""

    __slots__ = ("_tracer", "name", "category", "args")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_TraceSpanHandle":
        self._tracer.begin(self.name, category=self.category,
                           args=self.args)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.end(self.name, category=self.category)
        return False


class Tracer:
    """Thread-safe, ring-buffered event recorder.

    Parameters
    ----------
    max_events:
        Ring-buffer capacity; the oldest events are dropped beyond it
        (:attr:`dropped_events` counts the casualties).
    sample_memory:
        Sample process memory at span boundaries (throttled to one
        sample per :data:`MEMORY_SAMPLE_INTERVAL_US`).
    trace_malloc:
        Additionally start :mod:`tracemalloc` and include the traced
        heap current/peak in memory samples. Off by default because
        tracemalloc slows every allocation.
    """

    def __init__(self, max_events: int = MAX_TRACE_EVENTS,
                 sample_memory: bool = True,
                 trace_malloc: bool = False):
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=max_events)
        self._appended = 0
        self._pid = os.getpid()
        self._epoch_ns = time.perf_counter_ns()
        self._last_memory_sample_us = -MEMORY_SAMPLE_INTERVAL_US
        self.max_events = max_events
        self.sample_memory = sample_memory
        self.trace_malloc = trace_malloc
        self.created_at = time.time()
        self._started_tracemalloc = False
        if trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    # -- clock -----------------------------------------------------------
    def timestamp_us(self) -> float:
        """Microseconds since this tracer was created (monotonic)."""
        return (time.perf_counter_ns() - self._epoch_ns) / 1_000.0

    @property
    def epoch_ns(self) -> int:
        """The ``perf_counter_ns`` instant timestamps are relative to.

        ``perf_counter`` is system-wide monotonic on the platforms this
        library targets, so a child process's events can be shifted
        onto the parent's timeline by the difference of the two epochs
        (see :meth:`merge_events`).
        """
        return self._epoch_ns

    # -- event emission --------------------------------------------------
    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)
            self._appended += 1

    def _emit(self, phase: str, name: str, category: str,
              args: Optional[Dict[str, Any]] = None,
              ts: Optional[float] = None,
              extra: Optional[Dict[str, Any]] = None) -> None:
        context = _context.current_context()
        if context is not None:
            annotated = dict(args) if args else {}
            for key, value in context.annotation().items():
                annotated.setdefault(key, value)
            args = annotated
        event: Dict[str, Any] = {
            "name": name,
            "cat": category,
            "ph": phase,
            "ts": self.timestamp_us() if ts is None else ts,
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = args
        if extra:
            event.update(extra)
        self._append(event)

    def begin(self, name: str, category: str = "span",
              args: Optional[Dict[str, Any]] = None) -> None:
        """Open a duration event (Chrome ``B`` phase)."""
        self._emit("B", name, category, args)
        self._maybe_sample_memory()

    def end(self, name: str, category: str = "span",
            args: Optional[Dict[str, Any]] = None) -> None:
        """Close the innermost duration event with this name (``E``)."""
        self._emit("E", name, category, args)
        self._maybe_sample_memory()

    def instant(self, name: str, category: str = "event",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Zero-duration marker (``I``, thread scope)."""
        self._emit("I", name, category, args, extra={"s": "t"})

    def complete(self, name: str, start_us: float,
                 category: str = "span",
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Self-contained duration event (``X``) started at
        ``start_us`` (a prior :meth:`timestamp_us`) and ending now."""
        duration = max(self.timestamp_us() - start_us, 0.0)
        self._emit("X", name, category, args, ts=start_us,
                   extra={"dur": duration})

    def counter(self, name: str, values: Dict[str, float],
                category: str = "counter") -> None:
        """Counter sample (``C``); renders as a track in Perfetto."""
        self._emit("C", name, category, dict(values))

    def span(self, name: str, category: str = "span",
             args: Optional[Dict[str, Any]] = None) -> _TraceSpanHandle:
        """Context manager emitting a begin/end pair around its body."""
        return _TraceSpanHandle(self, name, category, args)

    # -- memory sampling -------------------------------------------------
    def _maybe_sample_memory(self) -> None:
        if not self.sample_memory:
            return
        now = self.timestamp_us()
        with self._lock:
            if now - self._last_memory_sample_us < MEMORY_SAMPLE_INTERVAL_US:
                return
            self._last_memory_sample_us = now
        values: Dict[str, float] = {}
        rss = _peak_rss_kb()
        if rss is not None:
            values["peak_rss_kb"] = rss
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            values["tracemalloc_current_kb"] = current / 1024.0
            values["tracemalloc_peak_kb"] = peak / 1024.0
        if values:
            self._emit("C", "memory", "memory", values, ts=now)

    # -- cross-process merge ---------------------------------------------
    def merge_events(self, events: List[Dict[str, Any]],
                     epoch_ns: Optional[int] = None) -> None:
        """Inject another tracer's events into this ring buffer.

        ``events`` is a list of raw event dicts (a worker tracer's
        :meth:`events` snapshot, shipped across the process boundary);
        ``epoch_ns`` is that tracer's :attr:`epoch_ns`. Timestamps are
        shifted by the epoch difference so child events land at their
        true position on this tracer's timeline. Events keep their
        original ``pid``/``tid``, so Perfetto renders each worker as
        its own process track.
        """
        offset_us = (0.0 if epoch_ns is None
                     else (epoch_ns - self._epoch_ns) / 1_000.0)
        with self._lock:
            for event in events:
                shifted = dict(event)
                shifted["ts"] = float(shifted.get("ts", 0.0)) + offset_us
                self._events.append(shifted)
                self._appended += 1

    # -- introspection / export ------------------------------------------
    @property
    def event_count(self) -> int:
        """Events currently held in the ring buffer."""
        with self._lock:
            return len(self._events)

    @property
    def dropped_events(self) -> int:
        """Events evicted from the ring buffer so far."""
        with self._lock:
            return self._appended - len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """Snapshot of the buffered events, sorted by timestamp.

        Sorting makes the export monotonic even when threads interleave
        their appends out of timestamp order.
        """
        with self._lock:
            snapshot = list(self._events)
        return sorted(snapshot, key=lambda event: event["ts"])

    def to_chrome_trace(self, metadata: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
        """The buffered events as a Chrome ``trace_event`` document.

        The result loads directly in Perfetto / ``chrome://tracing``.
        ``metadata`` (e.g. a provenance record) rides along in the
        top-level ``metadata`` object.
        """
        buffered = self.events()
        pids = {self._pid} | {event.get("pid", self._pid)
                              for event in buffered}
        events: List[Dict[str, Any]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": ("repro" if pid == self._pid
                              else f"repro worker {pid}")},
        } for pid in sorted(pids)]
        events.extend(buffered)
        document: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                "dropped_events": self.dropped_events,
                **(metadata or {}),
            },
        }
        return document

    def write_chrome_trace(self, path: str,
                           metadata: Optional[Dict[str, Any]] = None
                           ) -> str:
        """Write :meth:`to_chrome_trace` as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(metadata), handle)
            handle.write("\n")
        return path

    def to_jsonl(self) -> str:
        """Buffered events as JSON lines, one event per line."""
        return "\n".join(json.dumps(event, sort_keys=True)
                         for event in self.events())

    def clear(self) -> None:
        """Drop all buffered events (the epoch is left untouched)."""
        with self._lock:
            self._events.clear()
            self._appended = 0

    def close(self) -> None:
        """Stop tracemalloc if this tracer started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False


# ----------------------------------------------------------------------
# Global tracer (the single-attribute guard)
# ----------------------------------------------------------------------
_tracer: Optional[Tracer] = None


def enable_tracing(tracer: Optional[Tracer] = None, **kwargs: Any
                   ) -> Tracer:
    """Install (and return) the global tracer; events flow after this.

    ``kwargs`` are forwarded to the :class:`Tracer` constructor when no
    instance is supplied.
    """
    global _tracer
    _tracer = tracer if tracer is not None else Tracer(**kwargs)
    return _tracer


def disable_tracing() -> None:
    """Remove the global tracer; instrumented code reverts to no-ops."""
    global _tracer
    if _tracer is not None:
        _tracer.close()
    _tracer = None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is disabled.

    Hot paths fetch this once per operation and branch on it, so the
    disabled cost is a single call + identity check.
    """
    return _tracer

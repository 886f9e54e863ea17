"""repro.telemetry — one metrics store, spans, tracing and provenance.

Zero-dependency instrumentation for the whole stack. The costs the
tutorial reasons about — gate applications, circuit and gradient
evaluations, annealing sweeps, accepted/rejected moves, shots — are
labeled counters, gauges and histograms in one
:class:`~repro.telemetry.metrics.MetricsRegistry`, which also holds
span timings and exports Prometheus text and ``repro-metrics/v1``
JSON. Worker processes keep a registry of their own and the parent
folds each one in once, with :meth:`MetricsRegistry.merge_snapshot`.

Telemetry is **off by default and cheap when off**: instrumented hot
paths fetch :func:`get_registry` once per *operation* (circuit run,
anneal, Gram matrix) and fall through when it is ``None``, never per
gate or per spin flip.

One switch turns it on: :func:`observe` takes one of five cumulative
levels (:data:`LEVELS`), and each level includes every one below it.

===========  ==========================================================
``off``      nothing; the library default
``metrics``  the :class:`~repro.telemetry.metrics.MetricsRegistry`
             (and with it ``span_seconds``)
``context``  plus trace-context ids (:mod:`repro.telemetry.context`)
``flight``   plus a lifecycle-only event ring (4,096 events) and the
             failure flight recorder (:mod:`repro.telemetry.flight`)
             that cuts capsules from it; capsules go to
             ``flight_dir`` or ``REPRO_FLIGHT_DIR``
``trace``    plus the event tracer (:mod:`repro.telemetry.trace`),
             which is then the ring capsules are cut from, and the
             process-wide sampling profiler
===========  ==========================================================

::

    from repro import telemetry
    telemetry.observe("metrics")            # 1. programmatically
    # REPRO_OBSERVE=metrics python ...      # 2. environment variable
    # python -m repro.experiments E8 --telemetry   # 3. CLI flag

    sim.run(circuit)                        # instrumented code runs
    registry = telemetry.get_registry()
    print(telemetry.render_dashboard(registry.snapshot()))
    registry.to_prometheus()                # or .to_json()

:func:`span` times a stretch of code into the registry's
``span_seconds{path}`` histogram and, when the event tracer
(:mod:`repro.telemetry.trace`) is on, emits a begin/end pair on its
timeline. The dashboard (:func:`render_dashboard`) and the four SLO
rules (:mod:`repro.telemetry.health`) read the same registry snapshot,
p95 included.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from . import context as _context
from . import flight as _flight
from . import metrics as _metrics
from . import profiler as _profiler
from . import trace as _trace
from .context import (
    ContextState,
    TraceContext,
    current_context,
    get_context_state,
)
from .flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    get_flight_recorder,
    validate_flight_document,
)
from .health import (
    DEFAULT_SLO_RULES,
    HealthReport,
    SLORule,
    evaluate_rules,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    disable_metrics,
    enable_metrics,
    get_registry,
    validate_prometheus_text,
)
from .metrics_report import render_dashboard
from .profiler import ProfileCapture
from .progress import ProgressTrace
from .provenance import RunProvenance, collect_provenance, git_sha
from .trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
)

__all__ = [
    "ContextState",
    "Counter",
    "DEFAULT_SLO_RULES",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "Histogram",
    "LEVELS",
    "MetricsRegistry",
    "ProfileCapture",
    "ProgressTrace",
    "RunProvenance",
    "SLORule",
    "Timer",
    "TraceContext",
    "Tracer",
    "collect_provenance",
    "current_context",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "evaluate_rules",
    "get_context_state",
    "get_flight_recorder",
    "get_registry",
    "get_tracer",
    "git_sha",
    "observe",
    "observed_level",
    "render_dashboard",
    "span",
    "trace_instant",
    "validate_flight_document",
]

#: The telemetry levels, cheapest first; each includes the ones before.
LEVELS = ("off", "metrics", "context", "flight", "trace")

#: The environment variable naming the level a process starts at.
ENV_VAR = "REPRO_OBSERVE"


def observe(level: str, *, flight_dir: Optional[str] = None) -> None:
    """Turn every telemetry layer up to ``level`` on and the rest off.

    Idempotent: a layer that is already on keeps its object (a second
    ``observe("context")`` keeps the server's registry), so only the
    layers that change are built or dropped. ``flight_dir`` is where
    the flight recorder writes capsules (default ``REPRO_FLIGHT_DIR``,
    else memory only); given for a recorder that is already on, it
    redirects that recorder. The ``flight`` level's lifecycle ring is
    never the global tracer: :func:`get_tracer` stays ``None`` below
    ``trace``.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown telemetry level {level!r}; expected "
                         f"one of {', '.join(LEVELS)}")
    rank = LEVELS.index(level)
    if rank < 1:
        _metrics.disable_metrics()
    elif _metrics.get_registry() is None:
        _metrics.enable_metrics()
    if rank < 2:
        _context._state = None
    elif _context._state is None:
        _context._state = ContextState()
    if rank < 3:
        _flight._recorder = None
    elif _flight._recorder is None:
        _flight._recorder = FlightRecorder(
            dump_dir=flight_dir or os.environ.get(_flight.ENV_DIR_VAR)
            or None)
    elif flight_dir is not None:
        _flight._recorder.dump_dir = flight_dir
    if rank < 4:
        _trace.disable_tracing()
    elif _trace.get_tracer() is None:
        _trace.enable_tracing()
    _profiler._enabled = rank >= 4


def observed_level() -> str:
    """The highest level whose own layer is on (``"off"`` if none is).

    ``enable_metrics``/``enable_tracing`` can install one layer alone;
    the level then names the highest one, which is what a warm worker
    raises itself to so that it records everything its parent does.
    """
    if _trace.get_tracer() is not None or _profiler._enabled:
        return "trace"
    if _flight._recorder is not None:
        return "flight"
    if _context._state is not None:
        return "context"
    if _metrics.get_registry() is not None:
        return "metrics"
    return "off"


#: The histogram every :func:`span` observes its seconds into.
SPAN_METRIC = "span_seconds"

class _SpanStack(threading.local):
    """Each thread's stack of open span paths."""

    def __init__(self):
        self.stack = []


_spans = _SpanStack()


def _reset_spans_after_fork() -> None:
    """A forked worker starts its own span nesting, as it starts its
    own registry: spans open in the forking thread never close there."""
    _spans.stack = []


os.register_at_fork(after_in_child=_reset_spans_after_fork)


class _NoopSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One span activation.

    Entering pushes the span's full path onto the calling thread's
    stack, so a span opened inside another records under the combined
    path (``experiment.E8/annealing.sa.solve``). Exiting observes the
    elapsed ``time.perf_counter`` seconds into the registry's span
    histogram under that path. The registry and tracer are pinned at
    creation, so disabling either mid-span cannot leave an unmatched
    begin event.
    """

    __slots__ = ("name", "path", "_registry", "_tracer", "_start")

    def __init__(self, name: str, registry, tracer):
        self.name = name
        self.path = name
        self._registry = registry
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = _spans.stack
        if stack:
            self.path = f"{stack[-1]}/{self.name}"
        stack.append(self.path)
        if self._tracer is not None:
            self._tracer.begin(self.name, category="span",
                               args={"path": self.path})
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        stack = _spans.stack
        if stack and stack[-1] == self.path:
            stack.pop()
        if self._tracer is not None:
            self._tracer.end(self.name, category="span")
        if self._registry is not None:
            self._registry.histogram(
                SPAN_METRIC, "wall clock of telemetry spans, by nesting "
                "path", ("path",)).labels(path=self.path).observe(elapsed)
        return False


def span(name: str):
    """Span context manager; a shared no-op when both the metrics
    registry and the tracer are off.

    With the registry on, the span's seconds land in
    ``span_seconds{path}``; with the tracer on, it emits a begin/end
    event pair (category ``span``) on the timeline.
    """
    registry = get_registry()
    tracer = _trace.get_tracer()
    if registry is None and tracer is None:
        return _NOOP_SPAN
    return _Span(name, registry, tracer)


def trace_instant(name: str, category: str = "event",
                  args=None) -> None:
    """Instant timeline event; a no-op when tracing is disabled."""
    tracer = _trace.get_tracer()
    if tracer is not None:
        tracer.instant(name, category=category, args=args)


def _observe_from_env() -> None:
    level = os.environ.get(ENV_VAR, "").strip().lower() or "off"
    if level not in LEVELS:
        raise ValueError(f"{ENV_VAR}={level!r} is not a telemetry level; "
                         f"expected one of {', '.join(LEVELS)}")
    observe(level)


_observe_from_env()

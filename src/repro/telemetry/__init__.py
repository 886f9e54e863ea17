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

Enable it one of three ways::

    from repro import telemetry
    registry = telemetry.enable_metrics()   # 1. programmatically
    # REPRO_METRICS=1 python ...            # 2. environment variable
    # python -m repro.experiments E8 --telemetry   # 3. CLI flag

    sim.run(circuit)                        # instrumented code runs
    print(telemetry.render_report(registry.snapshot()))
    registry.to_prometheus()                # or .to_json()

:func:`span` times a stretch of code into the registry's
``span_seconds{path}`` histogram and, when the event tracer
(:mod:`repro.telemetry.trace`) is on, emits a begin/end pair on its
timeline. SLO health evaluation (:mod:`repro.telemetry.health`) and a
background JSONL sampler (:mod:`repro.telemetry.sampler`) read the
same registry.
"""

from __future__ import annotations

import os
import threading
import time

from .context import (
    ContextState,
    TraceContext,
    current_context,
    disable_context,
    enable_context,
    get_context_state,
    is_context_enabled,
)
from .flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    disable_flight,
    enable_flight,
    flight_event,
    get_flight_recorder,
    is_flight_enabled,
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
    is_metrics_enabled,
    validate_prometheus_text,
)
from .profiler import (
    ProfileCapture,
    ProfilerConfig,
    disable_profiling,
    enable_profiling,
    get_profiler_config,
    is_profiling_enabled,
)
from .progress import ProgressTrace
from .provenance import RunProvenance, collect_provenance, git_sha
from .report import render_report
from .sampler import MetricsSampler
from .trace import (
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    is_tracing,
)
from . import trace as _trace

__all__ = [
    "ContextState",
    "Counter",
    "DEFAULT_SLO_RULES",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "Histogram",
    "MetricsRegistry",
    "MetricsSampler",
    "ProfileCapture",
    "ProfilerConfig",
    "ProgressTrace",
    "RunProvenance",
    "SLORule",
    "Timer",
    "TraceContext",
    "Tracer",
    "collect_provenance",
    "current_context",
    "disable_context",
    "disable_flight",
    "disable_metrics",
    "disable_profiling",
    "disable_tracing",
    "enable_context",
    "enable_flight",
    "enable_metrics",
    "enable_profiling",
    "enable_tracing",
    "evaluate_rules",
    "flight_event",
    "get_context_state",
    "get_flight_recorder",
    "get_profiler_config",
    "get_registry",
    "get_tracer",
    "git_sha",
    "is_context_enabled",
    "is_flight_enabled",
    "is_metrics_enabled",
    "is_profiling_enabled",
    "is_tracing",
    "render_report",
    "span",
    "trace_instant",
    "validate_flight_document",
]

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

"""Cross-layer trace context: one id correlating every layer's events.

The telemetry stack grew in silos — spans (PR 1), trace events (PR 4),
metrics (PR 6) — and none of them can answer "what happened to *this*
job?" once work crosses a layer boundary: a solve submitted through
:class:`~repro.service.service.SolveService` waits in the queue, rides
the warm-pool pipe protocol into a worker process, emits worker-side
spans and convergence rows, and comes back through a drain-merge that
forgets which job produced what.

This module fixes that with a minimal trace context:

* :class:`TraceContext` — an immutable ``(trace_id, span_id, job_id,
  stage)`` tuple.  ``trace_id`` is minted once at pipeline or service
  entry and inherited by every child context; ``span_id`` is unique per
  context so nesting is reconstructable.
* :class:`ContextState` — a per-process holder with a per-thread
  context stack.  Enabled processes annotate every
  :class:`~repro.telemetry.trace.Tracer` event with the active
  ``trace_id``/``job_id`` (see ``Tracer._emit``), which is what the
  ``obs-report`` CLI joins on.

Like the tracer and the metrics registry, the layer is
**off by default** and cheap when off: the only cost on hot paths is
one module-attribute read returning ``None``.  The ``context`` level
of :func:`repro.telemetry.observe` (``REPRO_OBSERVE=context``) and
every level above it turn it on.

Ids are minted with :func:`uuid.uuid4` (``os.urandom``-backed), so
enabling the layer never touches ``random`` or NumPy RNG state —
solve results stay bit-for-bit identical with context on.
"""

from __future__ import annotations

import itertools
import os
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceContext:
    """One node in the span tree for a single correlated job."""

    #: Correlation id shared by every context in one logical request.
    trace_id: str
    #: Unique id of this context (``<pid hex>-<counter hex>``).
    span_id: str
    #: ``span_id`` of the enclosing context, if any.
    parent_id: Optional[str] = None
    #: Service job id, once the trace reaches the job layer.
    job_id: Optional[int] = None
    #: Pipeline stage or layer label (``"pipeline"``, ``"worker"``...).
    stage: Optional[str] = None

    def annotation(self) -> Dict[str, Any]:
        """The fields stamped onto trace events and flight records."""
        args: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.job_id is not None:
            args["job_id"] = self.job_id
        if self.stage is not None:
            args["stage"] = self.stage
        return args


class ContextState:
    """Per-process context store: a thread-local stack plus id minting."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._sequence = itertools.count(1)
        #: Contexts minted since enablement (observability for tests
        #: and ``serve-bench``; not used for control flow).
        self.minted = 0

    # -- id minting ---------------------------------------------------

    @staticmethod
    def new_trace_id() -> str:
        """A fresh 16-hex-char trace id (urandom-backed, RNG-neutral)."""
        return uuid.uuid4().hex[:16]

    def _new_span_id(self) -> str:
        return f"{os.getpid():x}-{next(self._sequence):x}"

    def mint(self, *, trace_id: Optional[str] = None,
             job_id: Optional[int] = None,
             stage: Optional[str] = None) -> TraceContext:
        """Create a context, inheriting from the active one if present.

        With no explicit ``trace_id`` and no active context this starts
        a brand-new trace; under an active context it creates a child
        span sharing the parent's ``trace_id`` (and ``job_id`` unless
        overridden).
        """
        parent = self.current()
        if trace_id is None:
            trace_id = (parent.trace_id if parent is not None
                        else self.new_trace_id())
        if job_id is None and parent is not None:
            job_id = parent.job_id
        context = TraceContext(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            job_id=job_id,
            stage=stage,
        )
        self.minted += 1
        return context

    # -- the per-thread stack -----------------------------------------

    def _stack(self) -> List[TraceContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[TraceContext]:
        """The innermost active context on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1]

    @contextmanager
    def activate(self, context: TraceContext) -> Iterator[TraceContext]:
        """Push ``context`` for the dynamic extent of the ``with``."""
        stack = self._stack()
        stack.append(context)
        try:
            yield context
        finally:
            stack.pop()


class _NoopScope:
    """Returned by :func:`activate` when the layer is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NOOP_SCOPE = _NoopScope()

#: Set by :func:`repro.telemetry.observe`.
_state: Optional[ContextState] = None


def get_context_state() -> Optional[ContextState]:
    """The enabled state, or ``None`` — the single-attribute guard."""
    return _state


def current_context() -> Optional[TraceContext]:
    """The active context on this thread, or ``None`` when off/idle."""
    state = _state
    if state is None:
        return None
    return state.current()


def activate(trace_id: Optional[str], *, job_id: Optional[int] = None,
             stage: Optional[str] = None):
    """Scope a known trace id (e.g. a job's) onto the current thread.

    Returns a no-op scope when the layer is off or ``trace_id`` is
    ``None``, so call sites need no guard of their own::

        with _context.activate(job.trace_id, job_id=job.job_id):
            ...  # tracer events here carry the job's ids
    """
    state = _state
    if state is None or trace_id is None:
        return _NOOP_SCOPE
    return state.activate(
        state.mint(trace_id=trace_id, job_id=job_id, stage=stage))

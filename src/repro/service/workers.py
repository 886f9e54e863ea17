"""Inline worker execution plus the shared reaping primitives.

The service's dispatcher threads execute with a *bare model* plus a
registry solver name and a resolved
:class:`~repro.compile.SolverConfig` — never a
:class:`~repro.compile.CompiledProblem`, whose decode/score closures
do not pickle. Decoding happens parent-side, which is also what makes
service results bit-for-bit identical to sequential
:func:`repro.compile.solve` calls.

This module holds the pieces both execution modes share — the
:class:`WorkerTimeout` / :class:`WorkerCancelled` /
:class:`WorkerCrashed` exception vocabulary and the SIGTERM→SIGKILL
:func:`_reap` escalation — plus the ``thread``-mode
:func:`execute_inline` path (soft deadlines: a Python thread cannot be
preempted, so an overdue job is detected after the fact and its result
discarded). ``process`` mode — persistent warm workers with hard
deadline reaping — lives in :mod:`repro.service.pool`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..compile.dispatch import SolverConfig, run_registry_backend
from ..telemetry.progress import ProgressTrace

#: Seconds granted for a terminated worker to exit before escalating
#: from SIGTERM to SIGKILL.
REAP_GRACE_SECONDS = 1.0


class WorkerTimeout(Exception):
    """The job blew its deadline; the worker (if any) was reaped."""


class WorkerCancelled(Exception):
    """The job was cancelled while running; the worker was reaped."""


class WorkerCrashed(Exception):
    """The worker process died or raised; carries the child traceback."""


@dataclass
class WorkerOutcome:
    """What one inline backend run hands back to the dispatcher."""

    samples: Any
    convergence: Optional[List[Dict[str, Any]]]
    duration: float
    pid: int


def execute_inline(job, model: Any, solver: str, config: SolverConfig,
                   deadline: Optional[float] = None) -> WorkerOutcome:
    """Run the backend on the calling (dispatcher) thread.

    Telemetry/tracing flow into the process-global state directly, so
    the outcome carries no snapshot to merge. The deadline is soft:
    checked after the run, raising :class:`WorkerTimeout` and
    discarding the (already computed) result for uniform semantics.
    """
    progress = (ProgressTrace(label=solver)
                if config.convergence_active() else None)
    start = time.perf_counter()
    with telemetry.span(f"service.worker.{solver}"):
        samples = run_registry_backend(model, solver, config, progress)
    duration = time.perf_counter() - start
    if progress is not None:
        progress.note_truncation()
    if deadline is not None and duration > deadline:
        raise WorkerTimeout(
            f"job {job.job_id} ({solver}) exceeded its {deadline:g}s "
            f"deadline (ran {duration:.3f}s); thread workers enforce "
            "deadlines post-hoc — use mode='process' for hard reaping"
        )
    return WorkerOutcome(
        samples=samples,
        convergence=progress.rows() if progress is not None else None,
        duration=duration,
        pid=os.getpid(),
    )


def _reap(process) -> None:
    """Terminate and join a worker process, escalating to SIGKILL.

    Idempotent: a second call on an already-closed Process object is a
    no-op (``is_alive`` raises ValueError once closed).
    """
    try:
        alive = process.is_alive()
    except ValueError:
        return
    if alive:
        process.terminate()
        process.join(REAP_GRACE_SECONDS)
        if process.is_alive():
            process.kill()
            process.join(REAP_GRACE_SECONDS)
    else:
        process.join(REAP_GRACE_SECONDS)
    # Release the Process object's pipe/sentinel file descriptors.
    if hasattr(process, "close"):
        try:
            process.close()
        except ValueError:
            pass

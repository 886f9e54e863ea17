"""Persistent warm worker pool with cross-job batching.

* :class:`WarmWorkerPool` — spawns ``size`` worker processes once per
  :class:`~repro.service.SolveService`. Each worker holds the solver
  registry imported and warm, and loops on a duplex pipe pulling task
  batches until drained.
* **Model dispatch** — a task message pickles the model through the
  worker pipe only when the slot's worker does not already hold it.
  Workers keep an LRU of models keyed by
  :meth:`CompiledProblem.content_key`, and the parent mirrors each
  slot's keys in a per-slot record updated with the same calls in the
  same order, so a *warm* dispatch sends the key alone and a *cold*
  one ships the model. A respawned worker starts with an empty record.
* **Cross-job batching** — one task message carries *several* jobs
  (same model, same registry solver, independent configs/seeds); the
  worker answers them in one round trip. Each job still runs its own
  seeded backend call, so results stay bit-for-bit identical to
  sequential ``solve()``.
* **Reap + respawn** — a worker that blows a deadline, is cancelled
  mid-flight or crashes is killed (SIGTERM, then SIGKILL) and
  **replaced**, so the pool never shrinks and a wedged solver can
  never hang the service (``service_worker_respawns_total`` counts
  replacements).
* **Drain-time telemetry merge** — warm workers accumulate their
  collector/tracer/metrics state across *all* their jobs and ship one
  cumulative snapshot when the pool drains at shutdown, so each
  worker's totals fold into the parent exactly once.

Compact results: a worker returns best-state bits as a ``uint8``
matrix plus ``float64`` energies and ``int64`` occurrence counts —
the parent rebuilds the :class:`SampleSet` exactly (assignments,
energies and read counts round-trip unchanged), then decodes through
the original problem hooks as ever.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..annealing.results import Sample, SampleSet
from ..compile.dispatch import SolverConfig, run_registry_backend
from ..telemetry import context as _tracectx
from ..telemetry import metrics as _metrics
from ..telemetry import profiler as _profiler
from ..telemetry.collector import Collector
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.progress import ProgressTrace
from ..telemetry.trace import Tracer
from .workers import (
    WorkerCancelled,
    WorkerCrashed,
    WorkerTimeout,
    _reap,
)

__all__ = [
    "WarmWorkerPool",
]

#: Seconds a drained worker gets to ship its final snapshot and exit
#: before the pool gives up and kills it.
DRAIN_TIMEOUT_SECONDS = 10.0

#: Models each worker keeps, and content keys each parent-side slot
#: record mirrors.
WORKER_MODEL_CACHE = 64

#: Most recent per-job attribution entries a worker ships at drain.
WORKER_ATTRIBUTION_LOG = 1024


def _respawns_counter(registry: "_metrics.MetricsRegistry"):
    return registry.counter(
        "service_worker_respawns_total",
        "warm workers killed (deadline, cancel, crash) and replaced",
    )


def _pool_dispatch_counter(registry: "_metrics.MetricsRegistry"):
    return registry.counter(
        "service_pool_dispatch_total",
        "warm-pool task dispatches by model residency (warm = model "
        "already cached in the worker, cold = shipped this dispatch)",
        ("kind",),
    )


def _cache_model(cache: "OrderedDict[str, Any]", key: str,
                 model: Any = None) -> None:
    """Insert or refresh ``key`` in an LRU of ``WORKER_MODEL_CACHE``.

    The worker caches models with it; the parent mirrors each slot's
    keys with it, calling it once per ok reply in dispatch order, so
    both sides evict the same key.
    """
    cache[key] = model
    cache.move_to_end(key)
    while len(cache) > WORKER_MODEL_CACHE:
        cache.popitem(last=False)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _compact_samples(samples: SampleSet) -> Dict[str, Any]:
    """Lower a SampleSet to flat arrays for the result pipe."""
    rows = samples.samples
    bits = np.array([row.assignment for row in rows], dtype=np.uint8)
    return {
        "bits": bits,
        "energies": np.array([row.energy for row in rows],
                             dtype=np.float64),
        "occurrences": np.array([row.num_occurrences for row in rows],
                                dtype=np.int64),
    }


def expand_samples(compact: Dict[str, Any]) -> SampleSet:
    """Rebuild the worker's SampleSet exactly from its compact form."""
    return SampleSet([
        Sample(tuple(int(bit) for bit in bits), float(energy),
               int(occurrences))
        for bits, energy, occurrences in zip(
            compact["bits"], compact["energies"],
            compact["occurrences"])
    ])


def _run_member(model: Any, solver: str, config: SolverConfig,
                job_id: Optional[int] = None,
                trace_id: Optional[str] = None) -> Dict[str, Any]:
    """One job inside the warm worker: solve, compact, never raise.

    When the parent shipped a trace id for the member (context layer
    enabled), the whole solve runs under an activated worker-side
    context, so every span/instant/convergence row the worker records
    carries the parent's ``trace_id``/``job_id`` through drain-merge.
    """
    try:
        progress = (ProgressTrace(label=solver)
                    if config.convergence_active() else None)
        capture = _profiler.maybe_capture(None)
        start = time.perf_counter()
        with _tracectx.activate(trace_id, job_id=job_id,
                                stage="worker"):
            with telemetry.span(f"service.worker.{solver}"):
                if capture is not None:
                    with capture:
                        samples = run_registry_backend(
                            model, solver, config, progress)
                else:
                    samples = run_registry_backend(model, solver,
                                                   config, progress)
        duration = time.perf_counter() - start
        if progress is not None:
            progress.note_truncation()
        result = {
            "ok": True,
            "samples": _compact_samples(samples),
            "convergence": (progress.rows() if progress is not None
                            else None),
            "duration": duration,
        }
        if capture is not None:
            result["profile"] = capture.summary()
        return result
    except BaseException:
        return {"ok": False, "traceback": traceback.format_exc()}


def _capture_payload(collector, tracer, registry,
                     jobs: Optional[List[Dict[str, Any]]] = None
                     ) -> Dict[str, Any]:
    return {
        "pid": os.getpid(),
        "telemetry_snapshot": (collector.snapshot()
                               if collector is not None else None),
        "trace_events": tracer.events() if tracer is not None else None,
        "trace_epoch_ns": (tracer.epoch_ns
                           if tracer is not None else None),
        "metrics_snapshot": (registry.snapshot()
                             if registry is not None else None),
        # Per-job attribution: which (job_id, trace_id, solver) each
        # merged snapshot covers — without it, drain-merged worker
        # telemetry cannot be tied back to the jobs that produced it.
        "jobs": list(jobs) if jobs else [],
    }


def _warm_worker_main(connection, index: int,
                      capture: Dict[str, bool]) -> None:
    """Worker-process entry: loop on tasks until drained.

    With the default ``fork`` start method the child inherits the
    parent's live collector/tracer/registry objects; the first thing a
    warm worker does is replace them with private instances so its
    accounting never aliases the parent's (the parent folds the
    worker's cumulative snapshot in exactly once, at drain).
    """
    telemetry.disable()
    telemetry.disable_tracing()
    _metrics.disable_metrics()
    _tracectx.disable_context()
    _profiler.disable_profiling()
    collector: Optional[Collector] = None
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None

    def ensure_capture(flags: Dict[str, bool]) -> None:
        nonlocal collector, tracer, registry
        if flags.get("telemetry") and collector is None:
            collector = telemetry.enable(Collector())
        if flags.get("trace") and tracer is None:
            tracer = telemetry.enable_tracing(Tracer())
            tracer.instant("service.pool.worker_boot",
                           args={"index": index})
        if flags.get("metrics") and registry is None:
            registry = _metrics.enable_metrics(MetricsRegistry())
        if flags.get("context") and not _tracectx.is_context_enabled():
            _tracectx.enable_context()
        if flags.get("profile") and not _profiler.is_profiling_enabled():
            _profiler.enable_profiling()

    ensure_capture(capture)
    models: "OrderedDict[str, Any]" = OrderedDict()
    jobs_log: deque = deque(maxlen=WORKER_ATTRIBUTION_LOG)
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "drain":
                connection.send(
                    ("drained",
                     _capture_payload(collector, tracer, registry,
                                      jobs=list(jobs_log))))
                return
            _, task_id, flags, model_key, model, members = message
            ensure_capture(flags)
            if model is None:  # warm dispatch: the parent sent the key
                model = models[model_key]
            _cache_model(models, model_key, model)
            results = []
            for member in members:
                job_id, solver, config = member[0], member[1], member[2]
                trace_id = member[3] if len(member) > 3 else None
                result = _run_member(model, solver, config,
                                     job_id=job_id, trace_id=trace_id)
                jobs_log.append({
                    "job_id": job_id,
                    "trace_id": trace_id,
                    "solver": solver,
                    "ok": result["ok"],
                    "duration": result.get("duration"),
                })
                results.append(result)
            connection.send(("ok", task_id, os.getpid(), results))
    finally:
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Parent side: the pool
# ----------------------------------------------------------------------
@dataclass
class _WarmWorker:
    index: int
    process: Any
    connection: Any
    task_counter: int = 0
    jobs_run: int = 0
    #: Content keys of the models this worker holds, mirrored from its
    #: cache (values unused); a respawned worker starts with none.
    models: "OrderedDict[str, None]" = field(default_factory=OrderedDict)


@dataclass
class BatchOutcome:
    """Parent-side view of one warm-worker round trip."""

    pid: int
    model_was_cached: bool
    results: List[Dict[str, Any]]


class WarmWorkerPool:
    """Fixed-size pool of persistent worker processes.

    One dispatcher thread drives one worker slot (the service spawns
    exactly ``size`` dispatchers), so slot access needs no leasing
    protocol; ``execute`` is safe to call concurrently on *different*
    indices. Any abnormal end of a round trip (deadline reap, cancel
    reap, crash) kills the slot's process and respawns a fresh one —
    the pool's size is an invariant, not a high-water mark.
    """

    def __init__(self, size: int, context):
        if size < 1:
            raise ValueError("pool size must be positive")
        self._context = context
        self._lock = threading.Lock()
        self.respawns = 0
        self.dispatches_warm = 0
        self.dispatches_cold = 0
        registry = _metrics.get_registry()
        if registry is not None:
            # Create the counter eagerly so a healthy run exports an
            # explicit zero rather than a missing series.
            _respawns_counter(registry).inc(0)
        self._workers: List[_WarmWorker] = [
            self._spawn(index) for index in range(size)
        ]

    # -- lifecycle -------------------------------------------------------
    def _capture_flags(self) -> Dict[str, bool]:
        return {
            "telemetry": telemetry.get_collector() is not None,
            "trace": telemetry.get_tracer() is not None,
            "metrics": _metrics.get_registry() is not None,
            "context": _tracectx.get_context_state() is not None,
            "profile": _profiler.get_profiler_config() is not None,
        }

    def _spawn(self, index: int) -> _WarmWorker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_warm_worker_main,
            args=(child_conn, index, self._capture_flags()),
            daemon=True,
            name=f"repro-warm-worker-{index}",
        )
        process.start()
        child_conn.close()
        return _WarmWorker(index=index, process=process,
                           connection=parent_conn)

    def _respawn(self, worker: _WarmWorker) -> None:
        _reap(worker.process)
        try:
            worker.connection.close()
        except OSError:  # pragma: no cover
            pass
        fresh = self._spawn(worker.index)
        with self._lock:
            self._workers[worker.index] = fresh
            self.respawns += 1
        telemetry.count("service.pool.respawns")
        registry = _metrics.get_registry()
        if registry is not None:
            _respawns_counter(registry).inc()

    def worker(self, index: int) -> _WarmWorker:
        with self._lock:
            return self._workers[index]

    def pids(self) -> List[Optional[int]]:
        with self._lock:
            return [worker.process.pid for worker in self._workers]

    # -- execution -------------------------------------------------------
    def execute(self, index: int, leader,
                members: List[Tuple[Any, ...]],
                model_key: str, model: Any,
                deadline: Optional[float] = None,
                publish_process: bool = True) -> BatchOutcome:
        """Run one task batch on slot ``index``; reap+respawn on harm.

        ``leader`` is the service's :class:`~repro.service.queue.Job`
        driving the batch — its ``process`` slot is published (for
        singleton batches) so a concurrent ``cancel()`` can reap the
        worker, and its terminal status disambiguates a cancel-kill
        from a genuine crash. Raises :class:`WorkerTimeout`,
        :class:`WorkerCancelled` or :class:`WorkerCrashed`.

        ``model`` (whose content key is ``model_key``) is pickled into
        the task only when the slot's record says the worker does not
        hold it; otherwise the key alone rides the pipe (a *warm*
        dispatch).

        Each member is ``(job_id, solver, config)`` with an optional
        fourth ``trace_id`` element; the id rides the pipe so the
        worker can attribute its telemetry to the parent's trace.
        """
        worker = self.worker(index)
        with leader.lock:
            if publish_process and leader.status.is_terminal():
                # cancel() landed between dequeue and dispatch; the
                # worker never saw the task, so it stays warm. (For
                # folded batches the task is sent regardless — the
                # other members still need their results, and the
                # cancelled leader's is simply dropped on resolve.)
                raise WorkerCancelled(
                    f"job {leader.job_id} cancelled")
            if publish_process:
                leader.process = worker.process
        worker.task_counter += 1
        task_id = worker.task_counter
        wire_members = [tuple(member) for member in members]
        warm = model_key in worker.models
        try:
            worker.connection.send(
                ("run", task_id, self._capture_flags(), model_key,
                 None if warm else model, wire_members))
            reply = self._await_reply(worker, leader, task_id, deadline)
        except (WorkerTimeout, WorkerCancelled, WorkerCrashed):
            self._respawn(worker)
            raise
        except (BrokenPipeError, OSError) as error:
            self._respawn(worker)
            raise WorkerCrashed(
                f"warm worker pid={worker.process.pid} pipe failed: "
                f"{error}"
            ) from error
        finally:
            if publish_process:
                with leader.lock:
                    leader.process = None
        _status, _task, pid, results = reply
        _cache_model(worker.models, model_key)
        worker.jobs_run += len(members)
        with self._lock:
            if warm:
                self.dispatches_warm += 1
            else:
                self.dispatches_cold += 1
        registry = _metrics.get_registry()
        if registry is not None:
            _pool_dispatch_counter(registry).labels(
                kind="warm" if warm else "cold").inc()
        return BatchOutcome(pid=pid, model_was_cached=warm,
                            results=results)

    def _await_reply(self, worker: _WarmWorker, leader, task_id: int,
                     deadline: Optional[float]):
        connection = worker.connection
        process = worker.process
        expires = (None if deadline is None
                   else time.perf_counter() + deadline)
        while True:
            remaining = (None if expires is None
                         else expires - time.perf_counter())
            if remaining is not None and remaining <= 0:
                raise WorkerTimeout(
                    f"job {leader.job_id} ({leader.solver}) exceeded "
                    f"its {deadline:g}s deadline; warm worker "
                    f"pid={process.pid} reaped"
                )
            if connection.poll(min(remaining, 0.05)
                               if remaining is not None else 0.05):
                break
            if not process.is_alive() and not connection.poll():
                with leader.lock:
                    cancelled = leader.status.is_terminal()
                if cancelled:
                    raise WorkerCancelled(
                        f"job {leader.job_id} cancelled; warm worker "
                        "reaped"
                    )
                raise WorkerCrashed(
                    f"warm worker pid={process.pid} died with exit "
                    f"code {process.exitcode} while running job "
                    f"{leader.job_id}"
                )
        try:
            reply = connection.recv()
        except (EOFError, OSError) as error:
            with leader.lock:
                cancelled = leader.status.is_terminal()
            if cancelled:
                raise WorkerCancelled(
                    f"job {leader.job_id} cancelled; warm worker "
                    "reaped"
                ) from error
            raise WorkerCrashed(
                f"warm worker pid={process.pid} closed the result "
                f"pipe mid-task: {error}"
            ) from error
        if reply[0] != "ok" or reply[1] != task_id:
            raise WorkerCrashed(
                f"warm worker pid={process.pid} answered out of "
                f"protocol ({reply[0]!r}, task {reply[1]!r} != "
                f"{task_id})"
            )
        return reply

    # -- drain -----------------------------------------------------------
    def drain(self, index: int) -> Optional[Dict[str, Any]]:
        """Gracefully stop slot ``index``; returns its final snapshot.

        Returns ``None`` when the worker died before shipping its
        payload (its telemetry dies with it — a reaped worker cannot
        flush).
        """
        worker = self.worker(index)
        payload = None
        try:
            worker.connection.send(("drain",))
            if worker.connection.poll(DRAIN_TIMEOUT_SECONDS):
                reply = worker.connection.recv()
                if reply[0] == "drained":
                    payload = reply[1]
        except (BrokenPipeError, EOFError, OSError):
            payload = None
        worker.process.join(DRAIN_TIMEOUT_SECONDS)
        _reap(worker.process)
        try:
            worker.connection.close()
        except OSError:  # pragma: no cover
            pass
        return payload

    @staticmethod
    def _pid(process) -> Optional[int]:
        """``process.pid``, or ``None`` once the handle is closed.

        ``stats()`` is documented as readable after shutdown (the drain
        log only fills in then), so the snapshot must not trip over
        closed :class:`multiprocessing.Process` objects.
        """
        try:
            return process.pid
        except ValueError:
            return None

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "size": len(self._workers),
                "pids": [self._pid(worker.process)
                         for worker in self._workers],
                "respawns": self.respawns,
                "dispatches_warm": self.dispatches_warm,
                "dispatches_cold": self.dispatches_cold,
                "jobs_run": sum(worker.jobs_run
                                for worker in self._workers),
            }

"""Persistent warm worker pool with cross-job batching, and the member
loop both service modes run.

* :class:`WarmWorkerPool` — spawns ``size`` worker processes once per
  :class:`~repro.service.SolveService`. Each worker holds the solver
  registry imported and warm, and loops on a duplex pipe pulling task
  batches until drained.
* **One member loop** — :func:`_run_members` runs
  :func:`repro.compile.solve`'s backend step for each of a batch's
  jobs on the batch's bare model in both modes: inside the warm
  worker in ``process`` mode, and on the dispatcher thread through
  :func:`run_inline` (soft deadlines) in ``thread`` mode.
* **Model dispatch** — every task message pickles its model through
  the worker pipe, and workers keep no model between tasks: a round
  trip of a 10-366-term model (0.11-0.33 ms on a 2-vCPU Xeon) is
  small beside the solver kernel.
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
  trace events and metrics registry across *all* their jobs and ship
  one cumulative snapshot when the pool drains at shutdown, so each
  worker's totals fold into the parent exactly once
  (:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_snapshot`).

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
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..annealing.results import Sample, SampleSet
from ..compile.dispatch import SolverConfig, run_backend
from ..telemetry import context as _tracectx
from ..telemetry import metrics as _metrics

__all__ = [
    "WarmWorkerPool",
]

#: Seconds a drained worker gets to ship its final snapshot and exit
#: before the pool gives up and kills it.
DRAIN_TIMEOUT_SECONDS = 10.0

#: Seconds granted for a terminated worker to exit before escalating
#: from SIGTERM to SIGKILL.
REAP_GRACE_SECONDS = 1.0

#: Most recent per-job attribution entries a worker ships at drain.
WORKER_ATTRIBUTION_LOG = 1024


def _respawns_counter(registry: "_metrics.MetricsRegistry"):
    return registry.counter(
        "service_worker_respawns_total",
        "warm workers killed (deadline, cancel, crash) and replaced",
    )


class WorkerTimeout(Exception):
    """The job blew its deadline; the worker (if any) was reaped."""


class WorkerCancelled(Exception):
    """The job was cancelled while running; the worker was reaped."""


class WorkerCrashed(Exception):
    """The worker process died or broke the pipe protocol."""


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


# ----------------------------------------------------------------------
# The member loop (inside a warm worker, or inline in thread mode)
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
    """One job of the member loop: the backend step
    :func:`repro.compile.solve` runs too
    (:func:`~repro.compile.dispatch.run_backend`), compacted; never
    raises.

    When the parent shipped a trace id for the member (context layer
    enabled), the step runs under an activated worker-side context,
    so every span/instant/convergence row the worker records carries
    the parent's ``trace_id``/``job_id`` through drain-merge.
    """
    try:
        with _tracectx.activate(trace_id, job_id=job_id,
                                stage="worker"):
            record = run_backend(model, solver, config,
                                 f"service.worker.{solver}")
        record["samples"] = _compact_samples(record["samples"])
        return {"ok": True, **record}
    except BaseException:
        return {"ok": False, "traceback": traceback.format_exc()}


def _run_members(model: Any, members: List[Tuple[Any, ...]]
                 ) -> List[Dict[str, Any]]:
    """Every ``(job_id, solver, config, trace_id)`` member of one
    batch, in order, on the batch's shared model."""
    return [_run_member(model, solver, config, job_id=job_id,
                        trace_id=trace_id)
            for job_id, solver, config, trace_id in members]


@dataclass
class BatchOutcome:
    """Parent-side view of one batch's round trip."""

    pid: int
    results: List[Dict[str, Any]]


def run_inline(leader, members: List[Tuple[Any, ...]], model: Any,
               deadline: Optional[float] = None) -> BatchOutcome:
    """Thread mode's round trip: the member loop on the calling thread.

    Telemetry flows into the process-global state directly, so there
    is no snapshot to merge at drain. The deadline is soft: a Python
    thread cannot be preempted, so an overdue batch is detected after
    the run and its results discarded (:class:`WorkerTimeout`).
    """
    start = time.perf_counter()
    results = _run_members(model, members)
    duration = time.perf_counter() - start
    if deadline is not None and duration > deadline:
        raise WorkerTimeout(
            f"job {leader.job_id} ({leader.solver}) exceeded its "
            f"{deadline:g}s deadline (ran {duration:.3f}s); thread "
            "workers enforce deadlines post-hoc — use mode='process' "
            "for hard reaping"
        )
    return BatchOutcome(pid=os.getpid(), results=results)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _capture_payload(tracer, registry,
                     jobs: Optional[List[Dict[str, Any]]] = None
                     ) -> Dict[str, Any]:
    return {
        "pid": os.getpid(),
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


def _warm_worker_main(connection, index: int, level: str) -> None:
    """Worker-process entry: loop on tasks until drained.

    With the default ``fork`` start method the child inherits the
    parent's live telemetry objects; the first thing a warm worker
    does is drop them, then raise its own private level to each
    task's, so its accounting never aliases the parent's (the parent
    folds the worker's cumulative snapshot in exactly once, at drain).
    """
    telemetry.observe("off")

    def raise_level(level: str) -> None:
        booted = telemetry.get_tracer() is not None
        telemetry.observe(max(level, telemetry.observed_level(),
                              key=telemetry.LEVELS.index))
        tracer = telemetry.get_tracer()
        if tracer is not None and not booted:
            tracer.instant("service.pool.worker_boot",
                           args={"index": index})

    raise_level(level)
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
                     _capture_payload(telemetry.get_tracer(),
                                      _metrics.get_registry(),
                                      jobs=list(jobs_log))))
                return
            _, task_id, level, model, members = message
            raise_level(level)
            results = _run_members(model, members)
            for (job_id, solver, _config, trace_id), result in zip(
                    members, results):
                jobs_log.append({
                    "job_id": job_id,
                    "trace_id": trace_id,
                    "solver": solver,
                    "ok": result["ok"],
                    "duration": result.get("duration"),
                })
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
        self.round_trips = 0
        registry = _metrics.get_registry()
        if registry is not None:
            # Create the counter eagerly so a healthy run exports an
            # explicit zero rather than a missing series.
            _respawns_counter(registry).inc(0)
        self._workers: List[_WarmWorker] = [
            self._spawn(index) for index in range(size)
        ]

    # -- lifecycle -------------------------------------------------------
    def _spawn(self, index: int) -> _WarmWorker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_warm_worker_main,
            args=(child_conn, index, telemetry.observed_level()),
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
                members: List[Tuple[Any, ...]], model: Any,
                deadline: Optional[float] = None,
                publish_process: bool = True) -> BatchOutcome:
        """Run one task batch on slot ``index``; reap+respawn on harm.

        ``leader`` is the service's :class:`~repro.service.queue.Job`
        driving the batch — its ``process`` slot is published (for
        singleton batches) so a concurrent ``cancel()`` can reap the
        worker, and its terminal status disambiguates a cancel-kill
        from a genuine crash. Raises :class:`WorkerTimeout`,
        :class:`WorkerCancelled` or :class:`WorkerCrashed`.

        Each member is ``(job_id, solver, config, trace_id)``; the
        trace id rides the pipe so the worker can attribute its
        telemetry to the parent's trace.
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
        try:
            worker.connection.send(
                ("run", task_id, telemetry.observed_level(), model,
                 members))
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
        worker.jobs_run += len(members)
        with self._lock:
            self.round_trips += 1
        return BatchOutcome(pid=pid, results=results)

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
                # perfbench/pipeline_batch.py reads both keys. Every
                # task pickles its model, so no dispatch is warm.
                "dispatches_warm": 0,
                "dispatches_cold": self.round_trips,
                "jobs_run": sum(worker.jobs_run
                                for worker in self._workers),
            }

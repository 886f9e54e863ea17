"""Persistent warm worker pool, and the job step both service modes run.

* :class:`WarmWorkerPool` — spawns ``size`` worker processes once per
  :class:`~repro.service.SolveService`. Each worker holds the solver
  registry imported and warm, and loops on a duplex pipe pulling one
  job per task until drained.
* **One job step** — :func:`_run_job` runs
  :func:`repro.compile.solve`'s backend step for one job on its bare
  model in both modes: inside the warm worker in ``process`` mode,
  and on the dispatcher thread through :func:`run_inline` (soft
  deadlines) in ``thread`` mode.
* **Model dispatch** — every task message pickles its model through
  the worker pipe, and workers keep no model between tasks: a round
  trip of a 10-366-term model (0.11-0.33 ms on a 2-vCPU Xeon) is
  small beside the solver kernel.
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
# The job step (inside a warm worker, or inline in thread mode)
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


def _run_job(model: Any, job_id: int, solver: str, config: SolverConfig,
             trace_id: Optional[str]) -> Dict[str, Any]:
    """One job: the backend step :func:`repro.compile.solve` runs too
    (:func:`~repro.compile.dispatch.run_backend`), compacted; never
    raises.

    When the parent shipped a trace id for the job (context layer
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


def _task(job) -> Tuple[Any, ...]:
    """What the job step needs of a service job besides its model:
    ``(job_id, solver, config, trace_id)``, the task message's tail."""
    return job.job_id, job.solver, job.config, job.trace_id


def run_inline(job) -> Tuple[int, Dict[str, Any]]:
    """Thread mode's round trip: the job step on the calling thread;
    returns this process's pid and the job's compact result.

    Telemetry flows into the process-global state directly, so there
    is no snapshot to merge at drain. The deadline is soft: a Python
    thread cannot be preempted, so an overdue job is detected after
    the run and its result discarded (:class:`WorkerTimeout`).
    """
    start = time.perf_counter()
    result = _run_job(job.problem.model, *_task(job))
    duration = time.perf_counter() - start
    if job.deadline is not None and duration > job.deadline:
        raise WorkerTimeout(
            f"job {job.job_id} ({job.solver}) exceeded its "
            f"{job.deadline:g}s deadline (ran {duration:.3f}s); thread "
            "workers enforce deadlines post-hoc — use mode='process' "
            "for hard reaping"
        )
    return os.getpid(), result


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
            _, task_id, level, model, task = message
            raise_level(level)
            result = _run_job(model, *task)
            job_id, solver, _config, trace_id = task
            jobs_log.append({
                "job_id": job_id,
                "trace_id": trace_id,
                "solver": solver,
                "ok": result["ok"],
                "duration": result.get("duration"),
            })
            connection.send(("ok", task_id, os.getpid(), result))
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
    def execute(self, index: int, job) -> Tuple[int, Dict[str, Any]]:
        """Run one job on slot ``index``; reap+respawn on harm.

        ``job`` is the service's :class:`~repro.service.queue.Job`. Its
        ``process`` slot is published while the worker runs it, so a
        concurrent ``cancel()`` can reap the worker, and its terminal
        status tells a cancel-kill from a genuine crash. Returns the
        worker's pid and the job's compact result; raises
        :class:`WorkerTimeout`, :class:`WorkerCancelled` or
        :class:`WorkerCrashed`.

        The task message carries the job's model and ``(job_id,
        solver, config, trace_id)``; the trace id rides the pipe so the
        worker can attribute its telemetry to the parent's trace.
        """
        worker = self.worker(index)
        with job.lock:
            if job.status.is_terminal():
                # cancel() landed between dequeue and dispatch; the
                # worker never saw the task, so it stays warm.
                raise WorkerCancelled(f"job {job.job_id} cancelled")
            job.process = worker.process
        worker.task_counter += 1
        task_id = worker.task_counter
        try:
            worker.connection.send(
                ("run", task_id, telemetry.observed_level(),
                 job.problem.model, _task(job)))
            reply = self._await_reply(worker, job, task_id)
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
            with job.lock:
                job.process = None
        _status, _task_id, pid, result = reply
        with self._lock:
            self.round_trips += 1
        return pid, result

    def _await_reply(self, worker: _WarmWorker, job, task_id: int):
        connection = worker.connection
        process = worker.process
        deadline = job.deadline
        expires = (None if deadline is None
                   else time.perf_counter() + deadline)
        while True:
            remaining = (None if expires is None
                         else expires - time.perf_counter())
            if remaining is not None and remaining <= 0:
                raise WorkerTimeout(
                    f"job {job.job_id} ({job.solver}) exceeded "
                    f"its {deadline:g}s deadline; warm worker "
                    f"pid={process.pid} reaped"
                )
            if connection.poll(min(remaining, 0.05)
                               if remaining is not None else 0.05):
                break
            if not process.is_alive() and not connection.poll():
                with job.lock:
                    cancelled = job.status.is_terminal()
                if cancelled:
                    raise WorkerCancelled(
                        f"job {job.job_id} cancelled; warm worker "
                        "reaped"
                    )
                raise WorkerCrashed(
                    f"warm worker pid={process.pid} died with exit "
                    f"code {process.exitcode} while running job "
                    f"{job.job_id}"
                )
        try:
            reply = connection.recv()
        except (EOFError, OSError) as error:
            with job.lock:
                cancelled = job.status.is_terminal()
            if cancelled:
                raise WorkerCancelled(
                    f"job {job.job_id} cancelled; warm worker "
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
                # One job per round trip, reaped workers' jobs included.
                "jobs_run": self.round_trips,
            }

"""The concurrent solve service: queue -> worker pool -> cache.

:class:`SolveService` turns the blocking :func:`repro.compile.solve`
call into a managed execution subsystem:

* **submit/handle** — :meth:`SolveService.submit` validates the job
  *before* enqueue (registry name, picklable config, resolved
  convergence tri-state), puts it on a bounded priority queue and
  returns a :class:`JobHandle` with status, result waiting and
  cancellation.
* **warm worker pool** — N dispatcher threads each take one job at a
  time and run it through one sequence: the job step, finish,
  resolve. The modes differ only in where the job step runs: on
  *persistent* worker processes (``mode="process"``, the default),
  where each dispatcher owns one long-lived worker with the solver
  registry imported and warm, every job is one round trip that
  pickles its model through the worker pipe
  (:mod:`repro.service.pool`), and hard per-job deadlines reap (and
  then respawn) a stuck worker; or inline on the dispatcher thread
  (``mode="thread"``), with deadlines checked after the run.
* **result cache + coalescing** — seeded jobs are content-addressed
  (problem terms + solver + config + seed); repeat submissions hit the
  LRU cache and *identical in-flight* submissions coalesce onto the
  same job instead of re-executing.
* **telemetry** — each warm worker's trace events and metrics
  registry accumulate across its whole life and fold into the
  parent's once, at pool drain; every result's provenance carries a
  ``service`` block (job id, worker pid, queue wait, cache and
  dispatch disposition).

Results are bit-for-bit identical to sequential ``solve`` calls under
fixed seeds because they run ``solve``'s own two steps: the job step
runs its backend step on the bare model
(:func:`repro.compile.dispatch.run_backend`), and its finish step
(decode, best-pick, assembly) runs parent-side with the original
hooks (:func:`repro.compile.dispatch.finish_solve`).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import numbers
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .. import telemetry
from ..telemetry import context as _context
from ..telemetry import flight as _flight
from ..telemetry import metrics as _metrics
from ..compile.dispatch import (
    SolveResult,
    SolverConfig,
    available_solvers,
    finish_solve,
)
from ..compile.ir import CompiledProblem
from .cache import ResultCache, cache_key
from .pool import (
    WarmWorkerPool,
    WorkerCancelled,
    WorkerCrashed,
    WorkerTimeout,
    expand_samples,
    run_inline,
)
from .queue import Job, JobQueue, JobStatus, QueueFullError

__all__ = [
    "JobCancelledError",
    "JobHandle",
    "JobTimeoutError",
    "QueueFullError",
    "ServiceError",
    "SolveService",
]


def _jobs_total(registry: "_metrics.MetricsRegistry"):
    """The shared job-lifecycle counter (labeled by status)."""
    return registry.counter(
        "service_jobs_total",
        "job lifecycle events by status (submitted, coalesced, "
        "cache_hit, done, failed, timeout, cancelled)",
        ("status",),
    )


def _queue_depth(registry: "_metrics.MetricsRegistry"):
    return registry.gauge("service_queue_depth",
                          "jobs queued but not yet dispatched")


def _job_event(event: str, args: Dict[str, Any], *, count: bool = True,
               instant: bool = True, record: bool = True,
               record_only: Optional[Dict[str, Any]] = None,
               capsule: Optional[Dict[str, Any]] = None) -> None:
    """Report one job lifecycle fact to every telemetry layer that is on.

    ``count`` bumps ``service_jobs_total{status=event}``. ``instant``
    emits the tracer instant ``service.job.<event>`` with ``args`` (a
    terminal status emits ``service.job.finish``). ``record`` appends
    the flight record ``("job", event)`` with ``args`` plus
    ``record_only``, whose ``trace_id``/``job_id`` file the record, and
    ``capsule`` then dumps the ``job_<event>`` capsule with that detail.
    """
    registry = _metrics.get_registry()
    tracer = telemetry.get_tracer()
    recorder = _flight.get_flight_recorder()
    if count and registry is not None:
        _jobs_total(registry).labels(status=event).inc()
    if instant and tracer is not None:
        name = "finish" if event in _TERMINAL else event
        tracer.instant(f"service.job.{name}", category="service",
                       args=args)
    if record and recorder is not None:
        details = {**args, **(record_only or {})}
        recorder.record("job", event, **details)
        if capsule is not None:
            recorder.dump(f"job_{event}", trace_id=details["trace_id"],
                          job_id=details["job_id"], detail=capsule)


_TERMINAL = frozenset(status.value for status in JobStatus
                      if status.is_terminal())


def _resolve(job: Job, status: JobStatus,
             result: Optional[SolveResult] = None,
             error: Optional[BaseException] = None) -> bool:
    """Make ``job`` terminal, once; the winner reports it.

    The report lands before waiters wake: a caller woken by
    ``handle.result()`` must already find a failed or reaped job's
    flight capsule on disk (CI and tests rely on it).
    """
    def announce() -> None:
        queue_seconds = (job.started_at - job.submitted_at
                         if job.started_at is not None else None)
        message = str(error) if error is not None else None
        capsule = None
        if status in (JobStatus.FAILED, JobStatus.TIMEOUT):
            # The black box: a failed or reaped job dumps its
            # correlated recent history as a flight capsule.
            capsule = {"solver": job.solver, "deadline": job.deadline,
                       "queue_seconds": queue_seconds, "error": message}
        _job_event(status.value, {
            "trace_id": job.trace_id, "job_id": job.job_id,
            "solver": job.solver, "status": status.value,
            "queue_seconds": queue_seconds,
        }, record_only={"error": message}, capsule=capsule)

    return job.resolve(status, result=result, error=error,
                       announce=announce)


def _checked_count(name: str, value: Any, least: int) -> int:
    """``value`` as an ``int`` when it is an integer ``>= least``
    (numpy integers included, bools refused); :class:`ValueError`
    naming ``name`` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(
            f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _checked_deadline(deadline: Any) -> Optional[float]:
    """``deadline`` when it is ``None`` or a finite number of seconds
    above zero; :class:`ValueError` otherwise. NaN compares false with
    everything, so a bare ``deadline <= 0`` test lets it through."""
    if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, numbers.Real)
            or not math.isfinite(deadline) or deadline <= 0):
        raise ValueError(
            "deadline must be None or a finite number of seconds > 0, "
            f"got {deadline!r}"
        )
    return deadline


class ServiceError(RuntimeError):
    """Base class for solve-service failures."""


class JobTimeoutError(ServiceError):
    """The job blew its deadline and was reaped."""


class JobCancelledError(ServiceError):
    """The job was cancelled before it produced a result."""


#: Accepted shapes for one ``solve_many`` entry.
JobSpec = Union[CompiledProblem, tuple, Dict[str, Any]]


class JobHandle:
    """Caller-facing view of one submitted job (a future, in effect)."""

    def __init__(self, job: Job, service: "SolveService"):
        self._job = job
        self._service = service

    @property
    def job_id(self) -> int:
        return self._job.job_id

    @property
    def solver(self) -> str:
        return self._job.solver

    @property
    def trace_id(self) -> Optional[str]:
        """The job's trace-context id (``None`` when the layer is off)."""
        return self._job.trace_id

    @property
    def status(self) -> JobStatus:
        with self._job.lock:
            return self._job.status

    def done(self) -> bool:
        return self.status.is_terminal()

    def cancel(self) -> bool:
        """Cancel the job; returns whether the cancellation won.

        Queued jobs are withdrawn immediately. A job already running
        on a worker *process* is reaped mid-flight; with thread
        workers a running job cannot be interrupted and ``cancel``
        returns ``False`` once execution finished first.
        """
        return self._service._cancel_job(self._job)

    def result(self, timeout: Optional[float] = None) -> SolveResult:
        """Wait for and return the result.

        Raises :class:`JobTimeoutError` / :class:`JobCancelledError` /
        the worker's failure for unsuccessful jobs, and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        if not self._job.event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} not finished within {timeout!r}s "
                f"(status {self.status.value})"
            )
        with self._job.lock:
            status, result, error = (self._job.status, self._job.result,
                                     self._job.error)
        if status is JobStatus.DONE:
            return result
        if error is not None:
            raise error
        raise ServiceError(
            f"job {self.job_id} ended {status.value} without a result"
        )

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        """The job's failure, or ``None`` when it succeeded."""
        if not self._job.event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} not finished within {timeout!r}s"
            )
        with self._job.lock:
            return self._job.error

    def add_done_callback(self, callback) -> None:
        """Run ``callback(handle)`` once the job is terminal."""
        self._job.add_callback(lambda _job: callback(self))

    def __repr__(self) -> str:
        return (f"JobHandle(job_id={self.job_id}, "
                f"solver={self.solver!r}, status={self.status.value})")


class SolveService:
    """Concurrent solve service over the ``repro.compile`` registry.

    Parameters
    ----------
    max_workers:
        Dispatcher/worker slots, an integer ``>= 1``; at most this
        many jobs execute concurrently.
    mode:
        ``"process"`` (default) runs jobs on persistent warm worker
        processes — one per dispatcher, spawned once, fed models
        through a pipe, reaped *and respawned* on deadline/cancel;
        ``"thread"`` runs jobs inline on dispatcher threads (lower
        latency, soft deadlines — best for many small jobs).
    queue_capacity:
        Bound on queued-but-not-running jobs, an integer ``>= 1``;
        submissions beyond it raise :class:`QueueFullError` (or block
        with ``block=True``).
    cache_entries:
        LRU capacity of the result cache, an integer ``>= 0``; ``0``
        disables caching (and with it request coalescing).
    default_deadline:
        Per-job wall-clock budget in seconds applied when ``submit``
        gets no explicit ``deadline``; ``None`` means unbounded, and
        anything else must be a finite number above zero.
    start_method:
        ``multiprocessing`` start method for process workers (``None``
        = platform default, ``fork`` on Linux).
    """

    def __init__(self, max_workers: int = 2, mode: str = "process",
                 queue_capacity: int = 128, cache_entries: int = 256,
                 default_deadline: Optional[float] = None,
                 start_method: Optional[str] = None):
        max_workers = _checked_count("max_workers", max_workers, 1)
        queue_capacity = _checked_count("queue_capacity",
                                        queue_capacity, 1)
        cache_entries = _checked_count("cache_entries", cache_entries, 0)
        if mode not in ("process", "thread"):
            raise ValueError(
                f"mode must be 'process' or 'thread', got {mode!r}"
            )
        self.max_workers = max_workers
        self.mode = mode
        self.default_deadline = _checked_deadline(default_deadline)
        #: ``provenance["service"]["dispatch"]``: process mode ships
        #: every model through the pipe, thread mode ships none.
        self._dispatch_kind = "cold" if mode == "process" else "inline"
        self._context = (multiprocessing.get_context(start_method)
                         if mode == "process" else None)
        self._queue = JobQueue(queue_capacity)
        self._cache = (ResultCache(cache_entries) if cache_entries
                       else None)
        self._inflight: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._shutdown = False
        self._stats = {status: 0 for status in JobStatus}
        self._coalesced = 0
        self._cache_hits_served = 0
        #: Per-worker attribution shipped at pool drain: which
        #: (job_id, trace_id, solver) each merged snapshot covered.
        self._drain_log: List[Dict[str, Any]] = []
        self._pool = (WarmWorkerPool(max_workers, self._context)
                      if mode == "process" else None)
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop,
                             args=(index,),
                             name=f"repro-solve-worker-{index}",
                             daemon=True)
            for index in range(max_workers)
        ]
        for thread in self._dispatchers:
            thread.start()

    # -- submission ------------------------------------------------------
    def submit(self, problem: CompiledProblem, solver: str = "sa",
               config: Optional[SolverConfig] = None, *,
               priority: int = 0, deadline: Optional[float] = None,
               repair: bool = False, block: bool = False,
               timeout: Optional[float] = None) -> JobHandle:
        """Enqueue one solve; returns a :class:`JobHandle` immediately.

        Validation happens *here*, not in the worker: unknown solver
        names, pre-configured solver instances (the in-process escape
        hatch of :func:`repro.compile.solve` — unpicklable and
        unsupported across workers), unpicklable configs and
        deadlines that are not a finite number above zero all raise
        :class:`ValueError` before the job is enqueued. Higher
        ``priority`` dequeues first; ``deadline`` seconds of wall
        clock are enforced by reaping (process mode). ``block=True``
        waits for queue capacity instead of raising
        :class:`QueueFullError`.
        """
        if self._shutdown:
            raise ServiceError("service is shut down")
        if not isinstance(problem, CompiledProblem):
            raise TypeError(
                f"submit expects a CompiledProblem, got "
                f"{type(problem).__name__}"
            )
        if not isinstance(solver, str):
            raise ValueError(
                "the solve service dispatches registry solver names "
                f"only, got {type(solver).__name__}; the "
                "pre-configured solver-instance escape hatch of "
                "repro.compile.solve is in-process only — register "
                "the solver under a name or call solve() directly"
            )
        if solver not in available_solvers():
            names = ", ".join(available_solvers())
            raise ValueError(
                f"unknown solver {solver!r}; registered solvers: {names}"
            )
        config = (config if config is not None
                  else SolverConfig()).resolve_convergence()
        if self.mode == "process":
            config.require_picklable()
        if deadline is None:
            deadline = self.default_deadline
        _checked_deadline(deadline)

        # Trace context: inherit the caller's trace (pipeline entry)
        # or start a fresh one per submission — minted outside the
        # service lock, and RNG-neutral (uuid4 reads os.urandom).
        trace_id: Optional[str] = None
        context_state = _context.get_context_state()
        if context_state is not None:
            parent = context_state.current()
            trace_id = (parent.trace_id if parent is not None
                        else context_state.new_trace_id())

        key = (cache_key(problem, solver, config, repair=repair)
               if self._cache is not None else None)
        with self._lock:
            if key is not None:
                cached = self._cache.peek(key)
                if cached is not None:
                    return self._cache_hit_handle(problem, solver,
                                                  config, key, cached,
                                                  trace_id=trace_id)
                inflight = self._inflight.get(key)
                if inflight is not None:
                    inflight.coalesced += 1
                    self._coalesced += 1
                    # A coalesced submission has no job of its own:
                    # its flight record files under the leader's.
                    _job_event("coalesced", {
                        "trace_id": trace_id,
                        "leader_job_id": inflight.job_id,
                        "leader_trace_id": inflight.trace_id,
                        "solver": solver,
                    }, record_only={
                        "trace_id": trace_id or inflight.trace_id,
                        "job_id": inflight.job_id,
                    })
                    registry = _metrics.get_registry()
                    if registry is not None:
                        registry.counter(
                            "service_cache_events_total",
                            "result-cache lookup outcomes",
                            ("event",)).labels(event="coalesce").inc()
                    return JobHandle(inflight, self)
            if self._cache is not None:
                self._cache.note_miss(key)
            self._next_id += 1
            job = Job(
                job_id=self._next_id, problem=problem, solver=solver,
                config=config, repair=repair, priority=priority,
                deadline=deadline, cache_key=key, trace_id=trace_id,
            )
            if key is not None:
                self._inflight[key] = job
        try:
            self._queue.put(job, block=block, timeout=timeout)
        except BaseException:
            with self._lock:
                if key is not None and self._inflight.get(key) is job:
                    del self._inflight[key]
            raise
        _job_event("submitted", {
            "trace_id": trace_id, "job_id": job.job_id,
            "solver": solver, "priority": priority, "deadline": deadline,
        })
        registry = _metrics.get_registry()
        if registry is not None:
            _queue_depth(registry).set(len(self._queue))
        return JobHandle(job, self)

    def _cache_hit_handle(self, problem: CompiledProblem, solver: str,
                          config: SolverConfig, key: str,
                          cached: SolveResult,
                          trace_id: Optional[str] = None) -> JobHandle:
        """An already-resolved handle serving a cached result."""
        import dataclasses

        self._cache.note_hit(key)
        self._cache_hits_served += 1
        service_block = {**cached.provenance.get("service", {}),
                         "cache": "hit"}
        if trace_id is not None:
            service_block["trace_id"] = trace_id
        result = dataclasses.replace(
            cached,
            provenance={**cached.provenance, "service": service_block},
        )
        self._next_id += 1
        job = Job(job_id=self._next_id, problem=problem, solver=solver,
                  config=config, cache_key=key, trace_id=trace_id)
        job.status = JobStatus.DONE
        job.result = result
        job.finished_at = time.perf_counter()
        job.event.set()
        _job_event("cache_hit", {"trace_id": trace_id,
                                 "job_id": job.job_id, "solver": solver})
        return JobHandle(job, self)

    # -- convenience frontends -------------------------------------------
    def solve(self, problem: CompiledProblem, solver: str = "sa",
              config: Optional[SolverConfig] = None,
              **submit_kwargs: Any) -> SolveResult:
        """Submit one job and block for its result."""
        submit_kwargs.setdefault("block", True)
        return self.submit(problem, solver, config,
                           **submit_kwargs).result()

    def solve_many(self, jobs: Iterable[JobSpec], *,
                   solver: str = "sa",
                   config: Optional[SolverConfig] = None,
                   priority: int = 0,
                   deadline: Optional[float] = None,
                   repair: bool = False,
                   return_exceptions: bool = False
                   ) -> List[Union[SolveResult, BaseException]]:
        """Batch API: submit every job, wait for all, keep input order.

        Each entry is a :class:`CompiledProblem`, a ``(problem[,
        solver[, config]])`` tuple, or a dict of :meth:`submit` keyword
        arguments. The keyword-level ``solver``/``config``/... act as
        defaults for entries that do not override them. Independent
        entries execute concurrently across the worker pool.
        ``return_exceptions=True`` returns failures in-place instead
        of raising the first one.
        """
        handles: List[JobHandle] = []
        for spec in jobs:
            kwargs: Dict[str, Any] = {
                "solver": solver, "config": config,
                "priority": priority, "deadline": deadline,
                "repair": repair,
            }
            if isinstance(spec, CompiledProblem):
                kwargs["problem"] = spec
            elif isinstance(spec, tuple):
                if not 1 <= len(spec) <= 3:
                    raise ValueError(
                        "tuple job specs are (problem[, solver[, "
                        f"config]]), got length {len(spec)}"
                    )
                kwargs["problem"] = spec[0]
                if len(spec) > 1:
                    kwargs["solver"] = spec[1]
                if len(spec) > 2:
                    kwargs["config"] = spec[2]
            elif isinstance(spec, dict):
                unknown = set(spec) - {"problem", "solver", "config",
                                       "priority", "deadline", "repair"}
                if unknown:
                    raise ValueError(
                        f"unknown job-spec keys: {sorted(unknown)}"
                    )
                kwargs.update(spec)
            else:
                raise TypeError(
                    "job specs are CompiledProblem, tuple or dict; "
                    f"got {type(spec).__name__}"
                )
            problem = kwargs.pop("problem")
            handles.append(
                self.submit(problem, block=True, **kwargs)
            )
        results: List[Union[SolveResult, BaseException]] = []
        for handle in handles:
            try:
                results.append(handle.result())
            except BaseException as error:
                if not return_exceptions:
                    raise
                results.append(error)
        return results

    def solve_portfolio(self, problem: CompiledProblem,
                        solvers: Sequence[str] = ("sa", "tabu", "pt"),
                        **race_kwargs: Any) -> SolveResult:
        """Race several solvers; first feasible wins, losers cancel.

        See :func:`repro.service.portfolio.race`.
        """
        from .portfolio import race

        return race(self, problem, solvers=solvers, **race_kwargs)

    # -- cancellation ----------------------------------------------------
    def _cancel_job(self, job: Job) -> bool:
        if not _resolve(job, JobStatus.CANCELLED, error=(
                JobCancelledError(f"job {job.job_id} cancelled"))):
            return False
        with job.lock:
            dequeued = job.dequeued
            process = job.process
        if not dequeued:
            self._queue.release(job)
        elif process is not None:
            # Reap the live worker; the dispatcher observes the death,
            # sees the terminal status and moves on.
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        with self._lock:
            key = job.cache_key
            if key is not None and self._inflight.get(key) is job:
                del self._inflight[key]
            self._stats[JobStatus.CANCELLED] += 1
        return True

    # -- dispatcher loop -------------------------------------------------
    def _dispatch_loop(self, index: int) -> None:
        idle_since = time.perf_counter()
        try:
            while True:
                job = self._queue.get()
                if job is None:
                    return
                with job.lock:
                    if job.status.is_terminal():
                        continue
                    job.status = JobStatus.RUNNING
                registry = _metrics.get_registry()
                busy_since = time.perf_counter()
                if registry is not None:
                    registry.counter(
                        "service_worker_idle_seconds_total",
                        "dispatcher time spent waiting for work"
                    ).inc(busy_since - idle_since)
                    registry.gauge(
                        "service_workers_busy",
                        "dispatchers currently executing a job").inc()
                    _queue_depth(registry).set(len(self._queue))
                try:
                    self._execute(job, index)
                finally:
                    idle_since = time.perf_counter()
                    if registry is not None:
                        registry.counter(
                            "service_worker_busy_seconds_total",
                            "dispatcher time spent executing jobs"
                        ).inc(idle_since - busy_since)
                        registry.gauge(
                            "service_workers_busy",
                            "dispatchers currently executing a job"
                        ).dec()
        finally:
            self._retire_dispatcher(index)

    def _retire_dispatcher(self, index: int) -> None:
        """Drain this dispatcher's warm worker and merge its telemetry."""
        if self._pool is not None:
            payload = self._pool.drain(index)
            if payload is not None:
                self._merge_drain_payload(payload)

    def _execute(self, job: Job, index: int) -> None:
        """Run one job: down slot ``index``'s pipe in process mode, on
        this dispatcher thread in thread mode; then finish and resolve
        it."""
        registry = _metrics.get_registry()
        queue_seconds = job.started_at - job.submitted_at
        if registry is not None:
            registry.histogram(
                "service_queue_wait_seconds",
                "wall clock from submit to dispatch").observe(queue_seconds)
        _job_event("dispatching", {
            "trace_id": job.trace_id, "job_id": job.job_id,
            "solver": job.solver,
        }, count=False, instant=False)
        tracer = telemetry.get_tracer()
        span = (tracer.span(f"service.execute.{job.problem.name}")
                if tracer is not None else contextlib.nullcontext())
        execute_start = time.perf_counter()
        status = JobStatus.FAILED
        error: Optional[BaseException] = None
        try:
            with _context.activate(job.trace_id, job_id=job.job_id,
                                   stage="dispatch"):
                with span:
                    if self._pool is not None:
                        pid, payload = self._pool.execute(index, job)
                    else:
                        pid, payload = run_inline(job)
        except WorkerTimeout as exc:
            status = JobStatus.TIMEOUT
            error = JobTimeoutError(str(exc))
        except WorkerCancelled:
            status = JobStatus.CANCELLED
            error = JobCancelledError(f"job {job.job_id} cancelled")
        except WorkerCrashed as exc:
            error = ServiceError(str(exc) or "worker failed")
        except BaseException as exc:  # pickling / protocol failures
            error = exc
        if registry is not None:
            registry.histogram(
                "service_execute_seconds",
                "wall clock of one job's worker round trip (or inline "
                "run in thread mode), per solver",
                ("solver",)).labels(solver=job.solver).observe(
                    time.perf_counter() - execute_start)
        if error is not None:
            self._finish(job, status, None, error)
            return
        _job_event("dispatch", {
            "trace_id": job.trace_id, "job_id": job.job_id,
            "solver": job.solver, "dispatch": self._dispatch_kind,
            "worker_pid": pid, "queue_seconds": queue_seconds,
        }, count=False, record=False)
        self._finish_job(job, payload, pid, queue_seconds)

    def _finish_job(self, job: Job, payload: Dict[str, Any], pid: int,
                    queue_seconds: float) -> None:
        """Run :func:`repro.compile.solve`'s finish step parent-side on
        the job's compact worker result, then resolve."""
        if not payload["ok"]:
            error = ServiceError(
                f"worker (pid={pid}) failed job "
                f"{job.job_id}:\n{payload['traceback']}"
            )
            self._finish(job, JobStatus.FAILED, None, error)
            return
        service_block: Dict[str, Any] = {
            "job_id": job.job_id,
            "mode": self.mode,
            "worker_pid": pid,
            "queue_seconds": queue_seconds,
            "deadline": job.deadline,
            "coalesced": job.coalesced,
            "cache": "miss" if job.cache_key is not None else "off",
            "dispatch": self._dispatch_kind,
        }
        if job.trace_id is not None:
            service_block["trace_id"] = job.trace_id
        try:
            record = {**payload,
                      "samples": expand_samples(payload["samples"])}
            result = finish_solve(
                job.problem, job.solver, job.config, record,
                repair=job.repair,
                provenance_extra={"service": service_block},
            )
        except BaseException as exc:  # decode/score hooks can raise
            self._finish(job, JobStatus.FAILED, None, exc)
            return
        self._finish(job, JobStatus.DONE, result, None)

    def _finish(self, job: Job, status: JobStatus,
                result: Optional[SolveResult],
                error: Optional[BaseException]) -> None:
        """Resolve one job: cache, inflight cleanup, stats, telemetry."""
        if status is JobStatus.DONE and self._cache is not None:
            self._cache.put(job.cache_key, result)
        resolved = _resolve(job, status, result=result, error=error)
        with self._lock:
            key = job.cache_key
            if key is not None and self._inflight.get(key) is job:
                del self._inflight[key]
            if resolved:
                self._stats[status] += 1

    def _merge_drain_payload(self, payload: Dict[str, Any]) -> None:
        """Fold one drained worker's cumulative trace events and
        metrics snapshot into the parent.

        Warm workers accumulate across every job they ran, so each
        worker merges exactly once — at pool drain (merging cumulative
        snapshots per job would double-count). A worker killed by a
        deadline or cancel reap never drains — its telemetry dies with
        it.

        The payload's ``jobs`` attribution log (which job/trace each
        merged snapshot covers) is kept on the service and mirrored as
        a ``service.pool.drain_merge`` trace instant, so drain-merged
        worker telemetry stays attributable after the fold.
        """
        jobs = payload.get("jobs") or []
        if jobs:
            with self._lock:
                self._drain_log.append({"pid": payload.get("pid"),
                                        "jobs": list(jobs)})
        tracer = telemetry.get_tracer()
        if tracer is not None and payload.get("trace_events"):
            tracer.merge_events(payload["trace_events"],
                                epoch_ns=payload.get("trace_epoch_ns"))
        if tracer is not None and jobs:
            tracer.instant(
                "service.pool.drain_merge", category="service",
                args={"pid": payload.get("pid"),
                      "jobs": [{"job_id": entry.get("job_id"),
                                "trace_id": entry.get("trace_id")}
                               for entry in jobs]})
        registry = _metrics.get_registry()
        if (registry is not None
                and payload.get("metrics_snapshot") is not None):
            registry.merge_snapshot(payload["metrics_snapshot"])
            registry.counter(
                "service_metrics_merges_total",
                "worker metrics snapshots folded into the parent"
            ).inc()

    # -- introspection / lifecycle ---------------------------------------
    def queue_snapshot(self) -> Dict[str, Any]:
        """Live/capacity/closed view of the bounded job queue.

        Cheap enough for per-request use — the HTTP front end's
        admission controller polls it on every submission to apply
        queue-depth backpressure *before* enqueueing.
        """
        return self._queue.snapshot()

    def stats(self) -> Dict[str, Any]:
        """Point-in-time service statistics (counts, queue, cache)."""
        with self._lock:
            jobs = {status.value: count
                    for status, count in self._stats.items()
                    if status.is_terminal()}
            jobs["submitted"] = self._next_id
            jobs["coalesced"] = self._coalesced
            jobs["cache_hits_served"] = self._cache_hits_served
            inflight = len(self._inflight)
            drains = [dict(entry) for entry in self._drain_log]
        return {
            "drains": drains,
            "mode": self.mode,
            "max_workers": self.max_workers,
            "jobs": jobs,
            "inflight_keys": inflight,
            "queue": self._queue.snapshot(),
            "cache": (self._cache.snapshot()
                      if self._cache is not None else None),
            "pool": (self._pool.snapshot()
                     if self._pool is not None else None),
            # Always zero; perfbench/pipeline_batch.py still reads it.
            "shm": {"bytes_shared": 0},
        }

    def shutdown(self, wait: bool = True,
                 cancel_pending: bool = False) -> None:
        """Stop accepting jobs; optionally wait for the pool to drain.

        ``cancel_pending=True`` additionally cancels every job still
        queued (running jobs finish or are reaped by their deadlines).
        """
        self._shutdown = True
        if cancel_pending:
            with self._lock:
                pending = list(self._inflight.values())
            for job in pending:
                self._cancel_job(job)
        self._queue.close()
        if wait:
            for thread in self._dispatchers:
                thread.join()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown(wait=True)
        return False

    def __repr__(self) -> str:
        return (f"SolveService(max_workers={self.max_workers}, "
                f"mode={self.mode!r}, queue={len(self._queue)})")

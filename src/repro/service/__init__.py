"""repro.service: a concurrent solve service over the compile layer.

The :mod:`repro.compile` registry answers "solve this problem with
that solver" one blocking call at a time. This package turns that
into a managed subsystem — the shape a database optimizer actually
consumes solvers in, where many candidate subproblems are in flight
at once under latency budgets:

* :class:`SolveService` — bounded priority job queue feeding a
  *persistent warm worker pool* (solver registry imported once per
  worker, each task's model pickled through the worker pipe, hard
  deadline reaping with respawn) or threads, both running one job
  step per job, with :class:`JobHandle` futures, cancellation and
  batch :meth:`~SolveService.solve_many`.
* :class:`ResultCache` — content-addressed LRU over
  :meth:`CompiledProblem.content_key` + solver + config + seed, with
  in-flight request coalescing.
* :func:`race` — portfolio mode: several registry solvers race the
  same problem, first feasible result wins, losers are cancelled.
* Worker telemetry (spans, counters, trace events, convergence rows)
  merges back into the parent's metrics registry and tracer, so one
  report and one Perfetto timeline cover the whole pool.

Quick start::

    from repro.service import SolveService
    from repro.compile import SolverConfig

    with SolveService(max_workers=4) as service:
        handle = service.submit(problem, "sa",
                                SolverConfig(seed=7), deadline=5.0)
        result = handle.result()           # SolveResult, as ever
        results = service.solve_many(problems)       # batch, ordered
        best = service.solve_portfolio(problem)      # sa/tabu/pt race

``python -m repro.experiments serve-bench`` exercises the full stack
and verifies service results are bit-for-bit identical to sequential
:func:`repro.compile.solve` calls.
"""

from .cache import ResultCache, cache_key
from .pool import (
    WarmWorkerPool,
    WorkerCancelled,
    WorkerCrashed,
    WorkerTimeout,
)
from .portfolio import PortfolioError, race
from .queue import Job, JobQueue, JobStatus, QueueFullError
from .service import (
    JobCancelledError,
    JobHandle,
    JobTimeoutError,
    ServiceError,
    SolveService,
)

__all__ = [
    "Job",
    "JobCancelledError",
    "JobHandle",
    "JobQueue",
    "JobStatus",
    "JobTimeoutError",
    "PortfolioError",
    "QueueFullError",
    "ResultCache",
    "ServiceError",
    "SolveService",
    "WarmWorkerPool",
    "WorkerCancelled",
    "WorkerCrashed",
    "WorkerTimeout",
    "cache_key",
    "race",
]

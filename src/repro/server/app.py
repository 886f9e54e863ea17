"""The asyncio HTTP front end over :class:`~repro.service.SolveService`.

One :class:`ReproServer` owns one solve service (result cache, warm
worker pool), an :class:`~repro.server.admission.AdmissionController`,
and a :class:`~repro.server.jobs.JobRegistry`. The event loop only
parses requests, runs admission, and enqueues — solves execute on the
service's dispatcher threads / worker processes, and completion comes
back over ``loop.call_soon_threadsafe`` bridges, so the loop never
blocks on a solve.

Routes::

    POST /v1/jobs              submit (problem or workload body)
    GET  /v1/jobs              recent-job listing
    GET  /v1/jobs/{id}         status + provenance (incl. trace_id)
    GET  /v1/jobs/{id}/result  result document (``?wait=N`` to block)
    GET  /v1/jobs/{id}/stream  SSE: replay + tail (repro-stream/v1)
    GET  /healthz              liveness / drain state / stats
    GET  /metrics              Prometheus text exposition

Graceful drain (SIGTERM/SIGINT): new submissions get 503, inflight
jobs finish, flight capsules flush, then the listener closes.
"""

from __future__ import annotations

import asyncio
import functools
import math
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from ..compile.dispatch import SolverConfig
from ..db.workloads import generate_join_workload
from ..pipeline.pipeline import OptimizationPipeline
from ..service import QueueFullError, ServiceError, SolveService
from ..service.queue import JobStatus
from ..telemetry import context as _context
from ..telemetry import flight as _flight
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .admission import AdmissionController
from .http import (
    HttpError,
    Request,
    read_request,
    send_json,
    send_text,
    sse_event,
    start_sse,
)
from .jobs import STREAM_SCHEMA, Frame, JobRegistry, ServerJob
from .payloads import (
    PayloadError,
    Submission,
    idempotency_key,
    parse_submission,
    result_document,
)

#: healthz document schema tag.
SERVER_SCHEMA = "repro-server/v1"

#: Formulations the workload route accepts (they take a join graph).
_WORKLOAD_FORMULATIONS = ("joinorder",)

#: Bounds keeping a single workload submission's generation cost
#: trivially small on the event loop.
_MAX_WORKLOAD_RELATIONS = 14
_MAX_INSTANCES_PER_CELL = 64


def _requests_total(registry: "_metrics.MetricsRegistry"):
    return registry.counter(
        "server_requests_total",
        "HTTP requests by route, method and status",
        ("route", "method", "status"),
    )


def _request_seconds(registry: "_metrics.MetricsRegistry"):
    return registry.histogram(
        "server_request_seconds",
        "HTTP request handling wall clock by route",
        ("route",),
    )


def _jobs_total(registry: "_metrics.MetricsRegistry"):
    return registry.counter(
        "server_jobs_total",
        "server jobs reaching a terminal status",
        ("status",),
    )


def _streams_open(registry: "_metrics.MetricsRegistry"):
    return registry.gauge(
        "server_streams_open", "SSE streams currently connected")


def _stream_events_total(registry: "_metrics.MetricsRegistry"):
    return registry.counter(
        "server_stream_events_total", "SSE events written to clients")


class ReproServer:
    """The HTTP front end; one instance per process.

    Parameters
    ----------
    workers:
        Solve-service worker count. ``0`` maps to one inline thread
        worker (no processes — the parity/debug configuration);
        positive counts run the warm process pool unless ``mode``
        overrides it.
    quota_rate / quota_burst / max_inflight:
        Per-tenant admission knobs (see
        :class:`~repro.server.admission.AdmissionController`).
    queue_capacity:
        Bound on the service's job queue — the backpressure horizon.
    drain_timeout:
        Longest a graceful drain waits for inflight jobs.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, mode: Optional[str] = None,
                 queue_capacity: int = 64, cache_entries: int = 256,
                 default_deadline: Optional[float] = None,
                 quota_rate: float = 20.0, quota_burst: float = 40.0,
                 max_inflight: int = 16, max_jobs: int = 4096,
                 batch_limit: int = 8, drain_timeout: float = 30.0,
                 start_method: Optional[str] = None):
        self.host = host
        self.port = port
        self.workers = workers
        self.drain_timeout = drain_timeout
        if workers <= 0:
            resolved_mode, max_workers = "thread", 1
        else:
            resolved_mode, max_workers = (mode or "process"), workers
        self.mode = resolved_mode
        self.service = SolveService(
            max_workers=max_workers, mode=resolved_mode,
            queue_capacity=queue_capacity, cache_entries=cache_entries,
            default_deadline=default_deadline,
            start_method=start_method, batch_limit=batch_limit,
        )
        self.admission = AdmissionController(
            quota_rate=quota_rate, quota_burst=quota_burst,
            max_inflight=max_inflight,
            queue_depth=self.service.queue_snapshot,
        )
        self.jobs = JobRegistry(max_jobs)
        #: Workload submissions block on ``handle.result()`` inside the
        #: pipeline, so they run here — never on the event loop.
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, max_workers),
            thread_name_prefix="repro-http-workload")
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener; ``self.port`` holds the real port after."""
        self._loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main-thread loops only)."""
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, functools.partial(self._begin_drain, signum))
            except (NotImplementedError, RuntimeError):
                return

    def _begin_drain(self, signum: Optional[int] = None) -> None:
        if self._drain_task is None:
            suffix = f" (signal {signum})" if signum else ""
            self._log(f"drain requested{suffix}")
            self._drain_task = self._loop.create_task(self.drain())

    def request_drain(self) -> None:
        """Thread-safe drain trigger (used by tests and embedders)."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._begin_drain)

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_closed(self) -> None:
        assert self._closed is not None
        await self._closed.wait()

    async def drain(self) -> None:
        """Stop accepting jobs, finish inflight, flush, close."""
        if self._draining:
            return
        self._draining = True
        deadline = time.monotonic() + self.drain_timeout
        live = self.jobs.live()
        self._log(f"draining: {len(live)} job(s) inflight")
        for job in live:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._log("drain timeout; abandoning remaining jobs")
                break
            try:
                await asyncio.wait_for(job.completed.wait(),
                                       timeout=remaining)
            except asyncio.TimeoutError:
                self._log("drain timeout; abandoning remaining jobs")
                break
        await asyncio.to_thread(self.service.shutdown)
        await asyncio.to_thread(self._executor.shutdown)
        recorder = _flight.get_flight_recorder()
        if recorder is not None:
            recorder.dump("server_drain", detail={
                "jobs": self.jobs.snapshot(),
                "admission": self.admission.snapshot(),
            })
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._closed.set()
        self._log("drain complete")

    async def _serve(self) -> None:
        await self.start()
        self.install_signal_handlers()
        self._log(f"listening on http://{self.host}:{self.port} "
                  f"(mode={self.mode}, workers={self.workers})")
        await self.wait_closed()

    def run(self) -> None:
        """Blocking entry point for the ``serve`` CLI."""
        asyncio.run(self._serve())

    @staticmethod
    def _log(message: str) -> None:
        print(f"[repro.server] {message}", file=sys.stderr, flush=True)

    # -- connection handling ----------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await send_json(writer, exc.status, exc.body(),
                                    headers=exc.headers,
                                    keep_alive=False)
                    break
                if request is None:
                    break
                keep = await self._dispatch(request, writer)
                if not keep or not request.wants_keep_alive():
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _match(self, request: Request
               ) -> Tuple[str, str, Dict[str, str]]:
        """Path → (route template, handler name, params); 404/405."""
        path, method = request.path.rstrip("/") or "/", request.method
        table = {
            "/healthz": ("GET", "health"),
            "/metrics": ("GET", "metrics"),
        }
        if path in table:
            expected, handler = table[path]
            if method not in (expected, "HEAD"):
                raise HttpError(405, f"{method} not allowed on {path}")
            return path, handler, {}
        if path == "/v1/jobs":
            if method == "POST":
                return "/v1/jobs", "submit", {}
            if method in ("GET", "HEAD"):
                return "/v1/jobs", "list", {}
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/jobs/"):
            parts = path[len("/v1/jobs/"):].split("/")
            if len(parts) == 1 and parts[0]:
                route, handler = "/v1/jobs/{id}", "status"
            elif len(parts) == 2 and parts[1] in ("result", "stream"):
                route = f"/v1/jobs/{{id}}/{parts[1]}"
                handler = parts[1]
            else:
                raise HttpError(404, f"no such resource: {path}")
            if method not in ("GET", "HEAD"):
                raise HttpError(405, f"{method} not allowed on {route}")
            return route, handler, {"id": parts[0]}
        raise HttpError(404, f"no such resource: {path}")

    async def _dispatch(self, request: Request, writer) -> bool:
        started = time.perf_counter()
        tracer = _trace.get_tracer()
        start_us = tracer.timestamp_us() if tracer is not None else 0.0
        state = _context.get_context_state()
        status = 500
        keep = True
        try:
            route, handler_name, params = self._match(request)
        except HttpError as exc:
            request.route = "(unmatched)"
            await send_json(writer, exc.status, exc.body(),
                            headers=exc.headers)
            self._observe_request(request, exc.status, started)
            return True
        request.route = route
        #: One trace context per request, minted at entry: the solve
        #: submission inherits it, which is the join key obs-report's
        #: ``--source server`` correlates on.
        context = (state.mint(stage="server") if state is not None
                   else None)
        scope = (state.activate(context) if state is not None
                 else nullcontext())
        with scope:
            if tracer is not None:
                tracer.instant("server.request.received",
                               category="server",
                               args={"route": route,
                                     "method": request.method,
                                     "path": request.path})
            try:
                handler = getattr(self, f"_handle_{handler_name}")
                status, keep = await handler(request, writer, params,
                                             context)
            except HttpError as exc:
                status = exc.status
                await send_json(writer, exc.status, exc.body(),
                                headers=exc.headers)
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.IncompleteReadError):
                status, keep = 499, False
            except Exception as exc:  # noqa: BLE001 — boundary
                status, keep = 500, False
                self._log(f"internal error on {route}: "
                          f"{type(exc).__name__}: {exc}")
                try:
                    await send_json(
                        writer, 500,
                        {"error": f"{type(exc).__name__}: {exc}",
                         "status": 500},
                        keep_alive=False)
                except Exception:
                    pass
            finally:
                if tracer is not None:
                    tracer.complete(
                        "server.request", start_us, category="server",
                        args={"route": route, "method": request.method,
                              "status": status})
        self._observe_request(request, status, started)
        return keep

    def _observe_request(self, request: Request, status: int,
                         started: float) -> None:
        registry = _metrics.get_registry()
        if registry is None:
            return
        _requests_total(registry).labels(
            route=request.route or "(unmatched)",
            method=request.method, status=str(status)).inc()
        _request_seconds(registry).labels(
            route=request.route or "(unmatched)").observe(
            time.perf_counter() - started)

    # -- route handlers ----------------------------------------------------
    async def _handle_health(self, request: Request, writer, params,
                             context) -> Tuple[int, bool]:
        status = 503 if self._draining else 200
        payload = {
            "schema": SERVER_SCHEMA,
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "mode": self.mode,
            "workers": self.service.max_workers,
            "queue": self.service.queue_snapshot(),
            "jobs": self.jobs.snapshot(),
            "admission": self.admission.snapshot(),
        }
        await send_json(writer, status, payload)
        return status, True

    async def _handle_metrics(self, request: Request, writer, params,
                              context) -> Tuple[int, bool]:
        registry = _metrics.get_registry()
        if registry is None:
            await send_text(writer, 503,
                            "# metrics disabled (start with --observe "
                            "metrics / REPRO_OBSERVE=metrics or above)\n")
            return 503, True
        text = registry.to_prometheus()
        await send_text(
            writer, 200, text,
            content_type="text/plain; version=0.0.4; charset=utf-8")
        return 200, True

    async def _handle_list(self, request: Request, writer, params,
                           context) -> Tuple[int, bool]:
        jobs = self.jobs.jobs()
        limit = min(int(request.query.get("limit", 100) or 100), 1000)
        payload = {
            "count": len(jobs),
            "jobs": [job.describe() for job in jobs[-limit:]],
        }
        await send_json(writer, 200, payload)
        return 200, True

    async def _handle_submit(self, request: Request, writer, params,
                             context) -> Tuple[int, bool]:
        body = request.json()
        submission = parse_submission(body)
        public_id = idempotency_key(body)
        existing = self.jobs.get(public_id)
        if existing is not None:
            await send_json(writer, 200,
                            dict(existing.describe(), idempotent=True))
            return 200, True
        if self._draining:
            decision = self.admission.reject(
                "draining", "server is draining; job rejected")
            raise HttpError(503, decision.message,
                            headers={"Retry-After": "30"},
                            body_extra={"reason": decision.reason})
        tenant = request.tenant
        decision = self.admission.admit(tenant)
        if not decision.allowed:
            raise HttpError(
                429, decision.message,
                headers={"Retry-After":
                         str(max(1, math.ceil(decision.retry_after)))},
                body_extra={
                    "reason": decision.reason,
                    "retry_after_seconds":
                        round(decision.retry_after, 4),
                })

        job = ServerJob(public_id, kind=submission.kind, tenant=tenant,
                        solver=submission.solver, loop=self._loop,
                        tag=body.get("tag"))
        job.trace_id = context.trace_id if context is not None else None
        try:
            if submission.kind == "problem":
                self._submit_problem(job, submission)
            else:
                self._submit_workload(job, submission)
        except Exception:
            self.admission.release(tenant)
            raise
        await send_json(writer, 201,
                        dict(job.describe(), idempotent=False))
        return 201, True

    def _submit_problem(self, job: ServerJob,
                        submission: Submission) -> None:
        try:
            handle = self.service.submit(
                submission.problem, submission.solver,
                submission.config, priority=submission.priority,
                deadline=submission.deadline, repair=submission.repair,
                block=False)
        except QueueFullError:
            decision = self.admission.reject("queue",
                                             "job queue at capacity")
            raise HttpError(
                429, decision.message,
                headers={"Retry-After":
                         str(max(1, math.ceil(decision.retry_after)))},
                body_extra={
                    "reason": "queue",
                    "retry_after_seconds":
                        round(decision.retry_after, 4),
                }) from None
        except (ValueError, TypeError) as exc:
            raise HttpError(400, str(exc)) from None
        except ServiceError as exc:
            raise HttpError(503, str(exc)) from None
        job.service_job_id = handle.job_id
        job.handle = handle
        if handle.trace_id:
            job.trace_id = handle.trace_id
        self.jobs.add(job)
        job.append("lifecycle", {
            "name": "submitted", "job_id": job.public_id,
            "service_job_id": handle.job_id, "solver": job.solver,
            "tenant": job.tenant, "trace_id": job.trace_id,
        })
        handle.add_done_callback(
            functools.partial(self._on_solve_done, job))

    def _on_solve_done(self, job: ServerJob, handle) -> None:
        """Solve completion → the job's last frames (dispatcher thread)."""
        events: List[Frame] = []
        outcome, document, error_doc = "failed", None, None
        try:
            status = handle.status
            outcome = status.value
            if status is JobStatus.DONE:
                result = handle.result()
                service_block = result.provenance.get("service", {})
                if service_block.get("cache") == "hit":
                    events.append(("lifecycle", {
                        "name": "cache_hit", "job_id": job.public_id}))
                events.extend(("convergence", row)
                              for row in result.convergence or [])
                events.append(("lifecycle", {
                    "name": "finished", "status": "done",
                    "job_id": job.public_id,
                    "cache": service_block.get("cache"),
                    "dispatch": service_block.get("dispatch"),
                    "queue_seconds": service_block.get("queue_seconds"),
                }))
                document = result_document(result)
                events.append(("result", document))
            else:
                error = handle.exception()
                error_doc = {
                    "type": (type(error).__name__ if error is not None
                             else status.value),
                    "message": (str(error) if error is not None
                                else status.value),
                }
                events.append(("lifecycle", {
                    "name": "finished", "status": status.value,
                    "job_id": job.public_id,
                }))
                events.append(("error", error_doc))
        except Exception as exc:  # noqa: BLE001 — dispatcher thread
            outcome, document = "failed", None
            error_doc = {"type": type(exc).__name__,
                         "message": str(exc)}
            events.append(("error", error_doc))
        finally:
            self._settle(job, outcome, events=events, result=document,
                         error=error_doc)

    def _submit_workload(self, job: ServerJob,
                         submission: Submission) -> None:
        spec = submission.workload_spec
        formulation = spec.get("formulation", "joinorder")
        if formulation not in _WORKLOAD_FORMULATIONS:
            raise PayloadError(
                f"workload formulation must be one of "
                f"{_WORKLOAD_FORMULATIONS}, got {formulation!r}")
        try:
            topologies = list(spec.get("topologies", ["chain"]))
            sizes = [int(size) for size in spec.get("sizes", [6])]
            instances_per_cell = int(spec.get("instances_per_cell", 1))
            seed = int(spec.get("seed", 0))
            index = int(spec.get("index", 0))
        except (TypeError, ValueError) as exc:
            raise PayloadError(f"bad workload spec: {exc}") from None
        if any(size < 2 or size > _MAX_WORKLOAD_RELATIONS
               for size in sizes):
            raise PayloadError(
                f"workload sizes must be in "
                f"[2, {_MAX_WORKLOAD_RELATIONS}]")
        if not 1 <= instances_per_cell <= _MAX_INSTANCES_PER_CELL:
            raise PayloadError(
                f"instances_per_cell must be in "
                f"[1, {_MAX_INSTANCES_PER_CELL}]")
        try:
            workload = generate_join_workload(
                topologies, sizes, instances_per_cell, seed=seed)
        except (TypeError, ValueError) as exc:
            raise PayloadError(f"bad workload spec: {exc}") from None
        if not 0 <= index < len(workload):
            raise PayloadError(
                f"workload index {index} out of range "
                f"[0, {len(workload)})")
        instance = workload[index]
        try:
            pipeline = OptimizationPipeline(
                formulation, solve=submission.solver,
                service=self.service)
        except ValueError as exc:
            raise PayloadError(str(exc)) from None
        provenance = {
            "workload_key": workload.workload_key,
            "instance_key": instance.instance_key,
            "topology": instance.topology,
            "num_relations": instance.num_relations,
            "http": {"job_id": job.public_id, "tenant": job.tenant},
        }
        self.jobs.add(job)
        job.append("lifecycle", {
            "name": "submitted", "job_id": job.public_id,
            "solver": job.solver, "tenant": job.tenant,
            "trace_id": job.trace_id, "kind": "workload",
            "instance_key": instance.instance_key,
        })
        self._executor.submit(
            self._run_workload, job, pipeline, instance.graph,
            submission.config, provenance)

    def _run_workload(self, job: ServerJob, pipeline, graph,
                      config: SolverConfig,
                      provenance: Dict[str, Any]) -> None:
        """Pipeline execution on an executor thread (blocks on solve)."""
        job.mark_running()
        events: List[Frame] = []
        outcome, document, error_doc = "failed", None, None
        try:
            with _context.activate(job.trace_id, stage="server"):
                plan = pipeline.optimize(graph, config=config,
                                         provenance=provenance)
            if plan.provenance.get("trace_id"):
                job.trace_id = plan.provenance["trace_id"]
            events.extend(("convergence", row)
                          for row in plan.convergence or [])
            document = plan.to_dict()
            events.append(("lifecycle", {
                "name": "finished", "status": "done",
                "job_id": job.public_id, "plan_status": plan.status,
            }))
            events.append(("result", document))
            outcome = "done"
        except Exception as exc:  # noqa: BLE001 — executor thread
            document = None
            error_doc = {"type": type(exc).__name__,
                         "message": str(exc)}
            events.append(("lifecycle", {
                "name": "finished", "status": "failed",
                "job_id": job.public_id,
            }))
            events.append(("error", error_doc))
        finally:
            self._settle(job, outcome, events=events, result=document,
                         error=error_doc)

    def _settle(self, job: ServerJob, status: str, *,
                events: List[Frame],
                result: Optional[Dict[str, Any]] = None,
                error: Optional[Dict[str, Any]] = None) -> None:
        """Free the tenant's admission slot, then make the job terminal.

        The slot goes first: a client woken by the terminal state (the
        ``done`` frame or ``/result``) may submit again at once and
        must not meet the old slot.
        """
        self.admission.release(job.tenant)
        try:
            job.finish(status, events=events, result=result, error=error)
        finally:
            self._count_job(job.status)

    def _count_job(self, status: str) -> None:
        registry = _metrics.get_registry()
        if registry is not None:
            _jobs_total(registry).labels(status=status).inc()

    def _get_job(self, params: Dict[str, str]) -> ServerJob:
        job = self.jobs.get(params["id"])
        if job is None:
            raise HttpError(404, f"no such job: {params['id']}")
        return job

    async def _handle_status(self, request: Request, writer, params,
                             context) -> Tuple[int, bool]:
        job = self._get_job(params)
        await send_json(writer, 200, job.describe())
        return 200, True

    async def _handle_result(self, request: Request, writer, params,
                             context) -> Tuple[int, bool]:
        job = self._get_job(params)
        wait = request.query.get("wait")
        if wait is not None and not job.done:
            try:
                timeout = min(max(float(wait), 0.0), 300.0)
            except ValueError:
                raise HttpError(400,
                                f"bad wait value: {wait!r}") from None
            try:
                await asyncio.wait_for(job.completed.wait(),
                                       timeout=timeout)
            except asyncio.TimeoutError:
                pass
        status = job.status
        if status == "done":
            await send_json(writer, 200, {
                "job_id": job.public_id, "status": status,
                "trace_id": job.trace_id, "result": job.result,
            })
            return 200, True
        if status in ("queued", "running"):
            await send_json(writer, 202, {
                "job_id": job.public_id, "status": status,
                "detail": "result not ready; retry or use ?wait=N",
            })
            return 202, True
        http_status = {"failed": 500, "timeout": 504,
                       "cancelled": 409}[status]
        await send_json(writer, http_status, {
            "job_id": job.public_id, "status": status,
            "error": job.error,
        })
        return http_status, True

    async def _handle_stream(self, request: Request, writer, params,
                             context) -> Tuple[int, bool]:
        job = self._get_job(params)
        registry = _metrics.get_registry()
        await start_sse(writer)
        writer.write(sse_event("hello", {
            "schema": STREAM_SCHEMA, "job_id": job.public_id,
            "trace_id": job.trace_id, "status": job.status,
        }))
        await writer.drain()
        if registry is not None:
            _streams_open(registry).inc()
        events_written = 0
        try:
            async for chunk in job.tail():
                writer.write(b"".join(sse_event(event, data)
                                      for event, data in chunk))
                await writer.drain()
                events_written += len(chunk)
        finally:
            if registry is not None:
                _streams_open(registry).dec()
                _stream_events_total(registry).inc(events_written)
        return 200, False

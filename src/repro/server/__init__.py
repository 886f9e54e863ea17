"""repro.server: the asyncio HTTP front end over the solve service.

The paper frames quantum-accelerated optimization as a database
component, and a database component is reachable over the network by
many concurrent clients. This package is that boundary — stdlib-only
(``asyncio`` + hand-rolled HTTP/1.1), wrapping one
:class:`~repro.service.SolveService` per process:

* **Jobs API** — ``POST /v1/jobs`` accepts raw compiled-problem terms
  or a pipeline workload spec; submissions are content-addressed
  (sha256 of the canonical body) so retries are idempotent.
* **Live streams** — ``GET /v1/jobs/{id}/stream`` replays and then
  tails the job's frame log as server-sent events
  (``repro-stream/v1``): lifecycle instants, per-iteration
  convergence rows, the result document, a terminal marker.
* **Admission control** — per-tenant token buckets and inflight caps
  plus queue-depth backpressure in front of the bounded job queue;
  rejections are fast 429s with ``Retry-After``, never blocked loops.
* **Operations** — ``/healthz``, Prometheus ``/metrics``, per-request
  trace contexts joining HTTP spans to job timelines (``obs-report
  --source server``), graceful SIGTERM drain that finishes inflight
  work and cuts a ``server_drain`` flight capsule.

Quick start::

    python -m repro.experiments serve --workers 2 --port 8351

    curl -s localhost:8351/v1/jobs -d '{
      "problem": {"kind": "qubo", "num_variables": 2,
                   "linear": {"0": -1.0}, "quadratic": [[0, 1, 2.0]]},
      "solver": "sa", "config": {"seed": 7}}'

Embedding and tests use :class:`~repro.server.testing.ServerThread`.
"""

from .admission import AdmissionController, AdmissionDecision, TokenBucket
from .app import ReproServer, SERVER_SCHEMA
from .http import HttpError, Request
from .jobs import STREAM_SCHEMA, JobRegistry, ServerJob
from .payloads import (
    PayloadError,
    Submission,
    build_problem,
    idempotency_key,
    parse_submission,
    problem_payload,
    result_document,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "HttpError",
    "JobRegistry",
    "PayloadError",
    "ReproServer",
    "Request",
    "SERVER_SCHEMA",
    "STREAM_SCHEMA",
    "ServerJob",
    "Submission",
    "TokenBucket",
    "build_problem",
    "idempotency_key",
    "parse_submission",
    "problem_payload",
    "result_document",
]

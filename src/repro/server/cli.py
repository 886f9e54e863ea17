"""``python -m repro.experiments serve`` — run the HTTP front end.

Telemetry layers default **on** for a server process (a long-running
network service without metrics or trace context defeats the point of
PRs 6–9); ``--no-metrics`` / ``--no-context`` opt out. Tracing and the
flight recorder stay opt-in via their usual environment switches
(``REPRO_TRACE_DIR`` is not consulted here; call ``enable_tracing``
consumers as needed) plus ``--trace`` below.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..telemetry import context as _context
from ..telemetry import flight as _flight
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .app import ReproServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Serve the solve service over HTTP "
                    "(jobs, SSE streams, metrics).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8351,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--workers", type=int, default=2,
                        help="solve workers; 0 = one inline thread "
                             "worker (no processes)")
    parser.add_argument("--mode", choices=("process", "thread"),
                        default=None,
                        help="worker mode override (default: process "
                             "when --workers > 0)")
    parser.add_argument("--queue-capacity", type=int, default=64)
    parser.add_argument("--cache-entries", type=int, default=256)
    parser.add_argument("--default-deadline", type=float, default=None,
                        help="per-job wall-clock budget in seconds")
    parser.add_argument("--quota-rate", type=float, default=20.0,
                        help="per-tenant sustained submissions/second")
    parser.add_argument("--quota-burst", type=float, default=40.0)
    parser.add_argument("--max-inflight", type=int, default=16,
                        help="per-tenant concurrent-job cap")
    parser.add_argument("--drain-timeout", type=float, default=30.0)
    parser.add_argument("--no-metrics", action="store_true",
                        help="do not enable the metrics registry")
    parser.add_argument("--no-context", action="store_true",
                        help="do not enable trace-context propagation")
    parser.add_argument("--trace", action="store_true",
                        help="enable the in-process event tracer")
    parser.add_argument("--flight", action="store_true",
                        help="enable the failure flight recorder")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.no_metrics:
        _metrics.enable_metrics()
    if not args.no_context:
        _context.enable_context()
    if args.trace:
        _trace.enable_tracing()
    if args.flight:
        _flight.enable_flight()
    server = ReproServer(
        host=args.host, port=args.port, workers=args.workers,
        mode=args.mode, queue_capacity=args.queue_capacity,
        cache_entries=args.cache_entries,
        default_deadline=args.default_deadline,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        max_inflight=args.max_inflight,
        drain_timeout=args.drain_timeout,
    )
    server.run()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

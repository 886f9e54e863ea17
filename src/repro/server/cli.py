"""``python -m repro.experiments serve`` — run the HTTP front end.

A server process defaults to the ``context`` telemetry level: the
metrics registry behind ``/metrics`` plus trace-context ids on every
request and job (a long-running network service without them defeats
the point). ``--observe`` picks another level of
:func:`repro.telemetry.observe`; without it, ``REPRO_OBSERVE`` wins
when set. At ``flight`` every job fact goes to one bounded event
ring, and the recorder cuts ``repro-flight/v2`` capsules from it (a
failed job's, the SIGTERM drain's) into ``REPRO_FLIGHT_DIR``; file
names carry the writing pid, so processes can share the directory.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional

from .. import telemetry
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
    parser.add_argument("--observe", choices=telemetry.LEVELS[:-1],
                        default=None,
                        help=f"telemetry level (default: "
                             f"${telemetry.ENV_VAR} when set, else "
                             f"context)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.observe is not None:
        telemetry.observe(args.observe)
    elif not os.environ.get(telemetry.ENV_VAR, "").strip():
        telemetry.observe("context")
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

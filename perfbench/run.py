#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload http_jobs --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics (set-up
time and the single-process workloads' times rescaled to the nominal
machine speed, see ``common``); ``--trace 1`` runs the workload twice
for half the time each, untraced then with layer timers, and reports
the per-layer metrics plus the tracing overhead. ``--smoke`` shrinks
every input for the self-test. On every way out, SIGTERM included, the
runner stops every process it caused and waits until each has ended.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402 — needs the path above
    END_TO_END,
    PER_LAYER,
    REFERENCE_SECONDS,
    SRC,
    adopt_orphans,
    at_nominal_speed,
    cold_start_seconds,
    ratio,
    reference_seconds,
    stop_descendants,
)

WORKLOADS = ("http_jobs", "pipeline_batch", "qaoa_solve", "qml_train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_program() -> bool:
    """Put the checkout's ``src`` on the path, with every ``REPRO_*``
    switch cleared so telemetry is off unless a workload turns it on."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    return True


def _print_named(title: str, outcome) -> None:
    print(f"  [{title}]")
    for name, (value, unit) in outcome.named.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(f"  {'failed_frac':<36} "
          f"{ratio(outcome.failed, outcome.attempted):.6g} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    for failure in outcome.failures:
        print(f"perfbench: {title}: {failure}", file=sys.stderr)


_RUNNER_PID = os.getpid()


def _exit_on_signal(signum, frame) -> None:
    """SIGTERM leaves the runner through its clean-up; a solve worker
    forked from it keeps the default action."""
    if os.getpid() != _RUNNER_PID:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_program():
        return 2
    adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return measure(args)
    finally:
        stop_descendants()


def measure(args) -> int:
    module = importlib.import_module(args.workload)
    if args.setup_probe:
        cleanup = module.setup_probe(args.seed, args.smoke)
        print("ready", flush=True)
        if cleanup is not None:
            cleanup()
        return 0

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        plain = module.run(args.seed, args.seconds / 2, False, args.smoke)
        traced = module.run(args.seed, args.seconds / 2, True, args.smoke)
        outcomes = {"untraced": plain, "traced": traced}
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(traced.layers)
        metrics["bench.trace_overhead_frac"] = (
            ratio(plain.throughput, traced.throughput) - 1.0)
        units = PER_LAYER
    else:
        outcome = module.run(args.seed, args.seconds, False, args.smoke)
        outcomes = {"measured": outcome}
        before = reference_seconds(5)
        if args.workload == "http_jobs":
            setup = module.setup_seconds()
        else:
            setup = cold_start_seconds(args.workload, args.seed, args.smoke)
        after = reference_seconds(5)
        print(f"  setup {setup:.6g} s raw; reference task {before:.5f} s "
              f"before, {after:.5f} s after, {REFERENCE_SECONDS} s nominal")
        metrics = {
            "setup_s": at_nominal_speed(setup, before, after),
            "throughput_per_s": outcome.throughput,
            "latency_p50_s": outcome.latency_p50,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        units = END_TO_END

    for title, outcome in outcomes.items():
        _print_named(title, outcome)
    print("  [metrics]")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    attempted = sum(outcome.attempted for outcome in outcomes.values())
    failed = sum(outcome.failed for outcome in outcomes.values())
    if attempted < 1 or not all(math.isfinite(value)
                                for value in metrics.values()):
        print("perfbench: no usable measurement", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

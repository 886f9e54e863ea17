"""``serve-bench``: exercise the solve service end to end.

Usage::

    python -m repro.experiments serve-bench
    python -m repro.experiments serve-bench --workers 4 --jobs 16
    python -m repro.experiments serve-bench --mode thread
    python -m repro.experiments serve-bench --trace service_trace.json
    python -m repro.experiments serve-bench --portfolio

The benchmark builds a batch of independent seeded join-order
problems, solves them twice — sequentially through
:func:`repro.compile.solve`, then concurrently through
:meth:`SolveService.solve_many` — and **verifies the two result sets
bit for bit** (same best solution, same energy, same per-read energy
vector under the same seeds). It then resubmits the batch to
demonstrate the content-addressed cache, and optionally races a solver
portfolio. Exit status is nonzero on any mismatch, infeasible result
or cache miss on resubmission, which is what makes this a CI smoke
job and not just a demo.

``--trace FILE`` records the run as Chrome ``trace_event`` JSON with
the worker processes' timelines merged onto the parent's — open it in
Perfetto to see jobs fan out across worker pids.

``--metrics`` prints the report of the service run's registry
(queue-wait/exec-time histograms, cache and job counters, worker
utilization, span timings), with the workers' registries merged at
drain and p50/p95/p99 per histogram; ``--metrics-out`` writes the
Prometheus text exposition, ``--metrics-json`` the
``repro-metrics/v1`` snapshot (the input of ``metrics-report``),
``--metrics-jsonl`` streams periodic sampler snapshots during the run,
and ``--slo`` evaluates the default health ruleset — a ``fail``
status fails the benchmark like any other check.

The run observes at the highest telemetry level
(:func:`repro.telemetry.observe`) its outputs need, and never below
the level it started at: ``metrics`` for the ``--metrics*`` and
``--slo`` outputs, ``flight`` for ``--flight DIR``, ``trace`` for
``--trace FILE``. The starting level is restored on the way out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

import numpy as np

from .. import telemetry
from ..telemetry import flight as _flight
from ..telemetry import health as _health
from ..telemetry import metrics as _metrics
from ..telemetry.sampler import MetricsSampler
from ..compile import SolverConfig, solve
from ..db.joinorder import JoinOrderQUBO
from ..db.workloads import TOPOLOGIES, random_join_graph
from .service import JobTimeoutError, SolveService

__all__ = ["build_jobs", "main", "results_match"]


def build_jobs(count: int, relations: int, sweeps: int, reads: int,
               seed: int) -> List[tuple]:
    """``count`` independent seeded (problem, config) pairs.

    Topologies cycle through the standard query shapes so the batch is
    not one workload repeated; every job gets its own derived seed, so
    the batch is deterministic end to end.
    """
    jobs = []
    for index in range(count):
        graph = random_join_graph(
            relations, TOPOLOGIES[index % len(TOPOLOGIES)],
            seed=seed + index,
        )
        problem = JoinOrderQUBO(graph).compile()
        config = SolverConfig(num_sweeps=sweeps, num_reads=reads,
                              seed=seed * 1000 + index)
        jobs.append((problem, config))
    return jobs


def results_match(first, second) -> bool:
    """Bit-for-bit equality of two :class:`SolveResult` records."""
    return (first.solution == second.solution
            and first.energy == second.energy
            and first.feasible == second.feasible
            and np.array_equal(first.energies, second.energies))


def _print_table(rows: List[Dict[str, Any]]) -> None:
    header = f"{'job':>3}  {'topology':<8} {'energy':>14}  " \
             f"{'feasible':<8} {'match':<5} {'worker pid':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['job']:>3}  {row['topology']:<8} "
              f"{row['energy']:>14.6g}  {str(row['feasible']):<8} "
              f"{str(row['match']):<5} {row['worker_pid']:>10}")


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve-bench",
        description="Solve-service smoke benchmark: concurrent batch "
                    "vs sequential baseline, bit-for-bit verified.",
    )
    parser.add_argument("--jobs", type=int, default=8,
                        help="independent problems in the batch "
                             "(default 8)")
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker slots (default 2)")
    parser.add_argument("--mode", choices=("process", "thread"),
                        default="process",
                        help="worker execution mode (default process)")
    parser.add_argument("--relations", type=int, default=5,
                        help="relations per join graph (default 5)")
    parser.add_argument("--sweeps", type=int, default=300,
                        help="annealing sweeps per job (default 300)")
    parser.add_argument("--reads", type=int, default=4,
                        help="reads per job (default 4)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed for problems and solvers")
    parser.add_argument("--solver", default="sa",
                        help="registry solver for the batch "
                             "(default sa)")
    parser.add_argument("--portfolio", action="store_true",
                        help="additionally race sa/tabu/pt on the "
                             "first problem")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a merged Chrome trace_event "
                             "timeline")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the benchmark record as JSON")
    parser.add_argument("--metrics", action="store_true",
                        help="enable the metrics registry and print "
                             "the merged report")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the Prometheus text exposition "
                             "(implies --metrics)")
    parser.add_argument("--metrics-json", metavar="FILE",
                        help="write the repro-metrics/v1 JSON snapshot "
                             "(implies --metrics)")
    parser.add_argument("--metrics-jsonl", metavar="FILE",
                        help="stream periodic sampler snapshots to a "
                             "JSONL file during the run (implies "
                             "--metrics)")
    parser.add_argument("--metrics-interval", type=float, default=0.2,
                        metavar="SECONDS",
                        help="sampler interval for --metrics-jsonl "
                             "(default %(default)s)")
    parser.add_argument("--slo", action="store_true",
                        help="evaluate the default SLO ruleset against "
                             "the run's metrics; a fail status fails "
                             "the benchmark (implies --metrics)")
    parser.add_argument("--flight", metavar="DIR",
                        help="enable the flight recorder, dumping "
                             "repro-flight/v1 capsules for failed/"
                             "timed-out jobs into DIR; with it every "
                             "job gets a trace_id correlating queue, "
                             "dispatch, worker and trace events "
                             "(obs-report joins on it)")
    parser.add_argument("--force-timeout", action="store_true",
                        help="additionally submit one oversized job "
                             "with a tiny deadline so it is reaped — "
                             "exercises the TIMEOUT path and, with "
                             "--flight, asserts a capsule was dumped")
    args = parser.parse_args(argv)

    use_metrics = (args.metrics or args.slo
                   or args.metrics_out is not None
                   or args.metrics_json is not None
                   or args.metrics_jsonl is not None)
    needed = ("trace" if args.trace is not None
              else "flight" if args.flight is not None
              else "metrics" if use_metrics else "off")
    previous = telemetry.observed_level()
    telemetry.observe(max(needed, previous, key=telemetry.LEVELS.index),
                      flight_dir=args.flight)
    try:
        return _run(args, use_metrics)
    finally:
        telemetry.observe(previous)


def _run(args, use_metrics: bool) -> int:
    tracer = telemetry.get_tracer() if args.trace is not None else None
    registry = telemetry.get_registry() if use_metrics else None
    context_state = telemetry.get_context_state()
    recorder = telemetry.get_flight_recorder()
    flight_dir = (os.path.abspath(args.flight)
                  if args.flight is not None else None)
    sampler = None
    if args.metrics_jsonl is not None:
        sampler = MetricsSampler(args.metrics_jsonl,
                                 interval=args.metrics_interval,
                                 registry=registry).start()

    jobs = build_jobs(args.jobs, args.relations, args.sweeps,
                      args.reads, args.seed)

    print(f"serve-bench: {args.jobs} jobs, {args.workers} "
          f"{args.mode} workers, solver {args.solver!r}, "
          f"cpu_count={os.cpu_count()}")

    sequential_start = time.perf_counter()
    baseline = [solve(problem, args.solver, config=config)
                for problem, config in jobs]
    sequential_seconds = time.perf_counter() - sequential_start

    failures = 0
    with SolveService(max_workers=args.workers,
                      mode=args.mode) as service:
        service_start = time.perf_counter()
        results = service.solve_many(
            [(problem, args.solver, config)
             for problem, config in jobs])
        service_seconds = time.perf_counter() - service_start

        rows = []
        for index, (result, base) in enumerate(zip(results, baseline)):
            match = results_match(result, base)
            if not (match and result.feasible):
                failures += 1
            rows.append({
                "job": index,
                "topology": TOPOLOGIES[index % len(TOPOLOGIES)],
                "energy": result.energy,
                "feasible": result.feasible,
                "match": match,
                "worker_pid": result.provenance["service"]["worker_pid"],
            })
        _print_table(rows)

        speedup = (sequential_seconds / service_seconds
                   if service_seconds > 0 else float("inf"))
        print(f"\nsequential {sequential_seconds:.3f}s   "
              f"service {service_seconds:.3f}s   "
              f"speedup {speedup:.2f}x")

        # Resubmit the identical batch: every job must now be served
        # from the content-addressed cache without re-execution.
        resubmit = service.solve_many(
            [(problem, args.solver, config)
             for problem, config in jobs])
        cache_hits = sum(
            1 for result in resubmit
            if result.provenance["service"].get("cache") == "hit")
        cache = service.stats()["cache"]
        print(f"resubmission: {cache_hits}/{len(jobs)} served from "
              f"cache ({cache['entries']} entries, "
              f"{cache['hits']} hits, {cache['misses']} misses)")
        if cache_hits != len(jobs):
            failures += 1
        if any(not results_match(first, second)
               for first, second in zip(results, resubmit)):
            failures += 1

        # Forced-failure path: an oversized job with a tiny deadline
        # must be reaped as TIMEOUT and (with --flight) leave a
        # correlated capsule behind — the failure-observability smoke.
        timeout_record = None
        if args.force_timeout:
            if args.mode != "process":
                print("force-timeout: skipped (deadline reaping needs "
                      "process mode)")
            else:
                heavy_problem, _ = jobs[0]
                heavy_config = SolverConfig(num_sweeps=200_000,
                                            num_reads=8,
                                            seed=args.seed + 999)
                handle = service.submit(heavy_problem, args.solver,
                                        heavy_config, deadline=0.1)
                timed_out = False
                try:
                    handle.result(timeout=120)
                except JobTimeoutError:
                    timed_out = True
                except Exception as error:
                    print(f"force-timeout: unexpected {error!r}",
                          file=sys.stderr)
                capsule_path = None
                if recorder is not None:
                    for capsule in recorder.capsules:
                        if capsule.get("job_id") != handle.job_id:
                            continue
                        capsule_path = capsule.get("path")
                        problems = _flight.validate_flight_document(
                            capsule)
                        for problem in problems:
                            print(f"flight capsule INVALID: {problem}",
                                  file=sys.stderr)
                            failures += 1
                if not timed_out:
                    failures += 1
                if flight_dir is not None and capsule_path is None:
                    failures += 1
                timeout_record = {
                    "job_id": handle.job_id,
                    "trace_id": handle.trace_id,
                    "timed_out": timed_out,
                    "capsule": capsule_path,
                }
                print(f"force-timeout: job {handle.job_id} "
                      f"trace {handle.trace_id or '-'} "
                      f"timed_out={timed_out}"
                      + (f", capsule {capsule_path}"
                         if capsule_path else ""))

        portfolio_record = None
        if args.portfolio:
            problem, config = jobs[0]
            winner = service.solve_portfolio(
                problem, solvers=("sa", "tabu", "pt"), config=config)
            record = winner.provenance["portfolio"]
            print(f"portfolio: winner {record['winner']!r} "
                  f"(feasible={winner.feasible}, "
                  f"energy={winner.energy:.6g}, "
                  f"cancelled {record['cancelled']} losers)")
            if not winner.feasible:
                failures += 1
            portfolio_record = record

        stats = service.stats()
        if stats.get("pool") is not None:
            pool = stats["pool"]
            print(f"pool: {pool['size']} warm workers, "
                  f"{pool['dispatches_cold']} round trips, "
                  f"{pool['respawns']} respawns")

    if tracer is not None:
        trace_path = os.path.abspath(args.trace)
        worker_pids = {event.get("pid") for event in tracer.events()}
        tracer.write_chrome_trace(trace_path, metadata={
            "schema": "repro-trace/v1",
            "serve_bench": {"jobs": args.jobs,
                            "workers": args.workers,
                            "mode": args.mode},
            "event_count": tracer.event_count,
        })
        print(f"wrote trace {trace_path} ({tracer.event_count} events "
              f"across {len(worker_pids)} pids)")

    metrics_snapshot = None
    if registry is not None:
        if sampler is not None:
            samples = sampler.stop()
            print(f"wrote {samples} sampler snapshot(s) to "
                  f"{os.path.abspath(args.metrics_jsonl)}")
        metrics_snapshot = registry.snapshot()
        print()
        print(telemetry.render_dashboard(metrics_snapshot,
                                         tracer=tracer))
        if args.metrics_out is not None:
            text = registry.to_prometheus()
            problems = _metrics.validate_prometheus_text(text)
            if problems:
                for problem in problems:
                    print(f"metrics INVALID: {problem}",
                          file=sys.stderr)
                failures += 1
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {os.path.abspath(args.metrics_out)}")
        if args.metrics_json is not None:
            with open(args.metrics_json, "w",
                      encoding="utf-8") as handle:
                handle.write(registry.to_json())
                handle.write("\n")
            print(f"wrote {os.path.abspath(args.metrics_json)}")
        if args.slo:
            report = _health.evaluate_rules(_health.DEFAULT_SLO_RULES,
                                            metrics_snapshot)
            print(report.render())
            if report.status == "fail":
                failures += 1

    obs_record = None
    if context_state is not None:
        obs_record = {
            "contexts_minted": context_state.minted,
            "flight_dir": flight_dir,
            "flight_capsules": (len(recorder.capsules)
                                if recorder is not None else 0),
            "forced_timeout": timeout_record,
        }
        print(f"context: {context_state.minted} context(s) minted"
              + (f", {len(recorder.capsules)} flight capsule(s) in "
                 f"{flight_dir}" if flight_dir is not None else ""))

    if args.json_out is not None:
        document = {
            "schema": "repro-serve-bench/v1",
            "jobs": args.jobs,
            "workers": args.workers,
            "mode": args.mode,
            "solver": args.solver,
            "cpu_count": os.cpu_count(),
            "sequential_seconds": sequential_seconds,
            "service_seconds": service_seconds,
            "speedup": speedup,
            "matches_direct": failures == 0,
            "cache": cache,
            "service_stats": stats,
            "portfolio": portfolio_record,
            "metrics": metrics_snapshot,
            "obs": obs_record,
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True,
                      default=repr)
            handle.write("\n")
        print(f"wrote {os.path.abspath(args.json_out)}")

    if failures:
        print(f"serve-bench FAILED ({failures} check(s) failed)",
              file=sys.stderr)
        return 1
    print("serve-bench OK: service results are bit-for-bit identical "
          "to sequential solves")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main(sys.argv[1:]))

"""Command-line experiment runner.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments E8              # run one at full scale
    python -m repro.experiments E8 E12          # run several
    python -m repro.experiments E8 --telemetry  # + metrics report
    python -m repro.experiments E8 --telemetry --json-out e8.json
    python -m repro.experiments E8 --set "sizes=(4,)" --set seed=1
    python -m repro.experiments E8 --solver sqa  # swap the backend
    python -m repro.experiments E8 --trace out.json  # event timeline
    python -m repro.experiments bench-compare base.json cand.json
    python -m repro.experiments metrics-report metrics.json
    python -m repro.experiments obs-report trace.json --list
    python -m repro.experiments serve --workers 2 --port 8351

``--solver name`` forwards a solver-registry name (``sa``, ``sqa``,
``tabu``, ``qaoa``, ``exact``, ``pt``) to every selected experiment
with a ``solver`` knob — the annealing arm of E8/E9/E10/E11/E15/E19
and the A1/A2 ablations — leaving solver-specific experiments (E12,
E14, A3) untouched.
``--set key=value`` forwards keyword overrides to every experiment run
(values are parsed as Python literals, falling back to strings), which
is how CI runs experiments at reduced scale. ``--telemetry`` gives
each experiment a fresh metrics registry and prints its dashboard;
``--json-out`` writes one record per experiment with the result rows,
a provenance block (experiment id, kwargs, seed, version, git SHA,
duration) and the ``repro-metrics/v1`` snapshot of that run, inside a
``repro-telemetry/v1`` document.

``--trace FILE`` additionally records an event-level timeline (spans,
per-gate events, solver convergence rows, memory samples, sampled
solver profiles) and writes it as Chrome ``trace_event`` JSON — open
the file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
It implies ``--telemetry``. ``--telemetry`` and ``--json-out`` run at
the ``metrics`` level of :func:`repro.telemetry.observe`, ``--trace``
at ``trace``; a higher ``REPRO_OBSERVE`` level stays in force.

``bench-compare`` is a subcommand, not a flag: it diffs two
``repro-bench/v1`` documents and exits nonzero when the candidate
regressed beyond tolerance (see
:mod:`repro.telemetry.bench_compare`). ``metrics-report`` renders a
``repro-metrics/v1`` snapshot as a text dashboard with latency
quantiles and the four SLO rules' health section (see
:mod:`repro.telemetry.metrics_report`). ``obs-report`` filters one
Chrome trace or flight capsule by ``trace_id`` into per-job timelines
(see :mod:`repro.telemetry.obs_report`).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import time
from typing import Any, Dict, List

from .. import telemetry
from .harness import (
    available_experiments,
    experiment_accepts,
    format_table,
    run_experiment,
)


def _parse_setting(text: str) -> tuple:
    """``key=value`` -> (key, literal-parsed value)."""
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ValueError(
            f"--set expects key=value, got {text!r}"
        )
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key.strip(), value


def _json_default(value: Any) -> Any:
    """Serialize numpy scalars/arrays that leak into result rows."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    return repr(value)


def _experiment_record(result) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
    }
    if result.provenance is not None:
        record["provenance"] = result.provenance
    if result.metrics is not None:
        record["metrics"] = result.metrics
    return record


def main(argv) -> int:
    argv = list(argv)
    if argv and argv[0] == "bench-compare":
        from ..telemetry import bench_compare

        return bench_compare.main(argv[1:])
    if argv and argv[0] == "serve-bench":
        from ..service import bench as serve_bench

        return serve_bench.main(argv[1:])
    if argv and argv[0] == "metrics-report":
        from ..telemetry import metrics_report

        return metrics_report.main(argv[1:])
    if argv and argv[0] == "obs-report":
        from ..telemetry import obs_report

        return obs_report.main(argv[1:])
    if argv and argv[0] == "pipeline-bench":
        from ..pipeline import bench as pipeline_bench

        return pipeline_bench.main(argv[1:])
    if argv and argv[0] == "serve":
        from ..server import cli as server_cli

        return server_cli.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run DESIGN.md experiments from the registry.",
    )
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids (e.g. E8 A1); none lists all")
    parser.add_argument("--telemetry", action="store_true",
                        help="record metrics/spans/provenance and print "
                             "a report per experiment")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write results + provenance + metrics as JSON "
                             "(implies --telemetry)")
    parser.add_argument("--set", dest="settings", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="keyword override forwarded to every "
                             "experiment (python literal; repeatable)")
    parser.add_argument("--solver", metavar="NAME",
                        help="solver registry name (e.g. sa, sqa, tabu) "
                             "forwarded to every experiment that takes a "
                             "solver knob; see repro.compile."
                             "available_solvers()")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="run batchable solver arms through the "
                             "solve service with N concurrent workers "
                             "(experiments with a 'workers' knob: E8, "
                             "A1); results are identical, only faster")
    parser.add_argument("--trace", metavar="FILE",
                        help="record an event timeline and write Chrome "
                             "trace_event JSON (open in Perfetto); "
                             "implies --telemetry")
    args = parser.parse_args(argv)

    if args.solver is not None:
        from ..compile import available_solvers

        if args.solver not in available_solvers():
            names = ", ".join(available_solvers())
            print(f"unknown solver {args.solver!r}; registered solvers: "
                  f"{names}", file=sys.stderr)
            return 2

    experiments = available_experiments()
    if not args.ids:
        print("Available experiments:")
        for experiment_id in sorted(experiments,
                                    key=lambda e: (e[0], int(e[1:]))):
            print(f"  {experiment_id:<4} {experiments[experiment_id]}")
        print("\nRun with: python -m repro.experiments <id> [<id> ...]")
        return 0
    unknown = [e for e in args.ids if e not in experiments]
    if unknown:
        print(f"unknown experiment id(s): {unknown}", file=sys.stderr)
        return 2
    try:
        overrides = dict(_parse_setting(s) for s in args.settings)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    # run_experiment scopes each run's metrics to a fresh registry
    # and folds it into this one.
    needed = ("trace" if args.trace is not None
              else "metrics" if args.telemetry or args.json_out is not None
              else "off")
    previous = telemetry.observed_level()
    telemetry.observe(max(needed, previous, key=telemetry.LEVELS.index))
    try:
        return _run(args, overrides)
    finally:
        telemetry.observe(previous)


def _run(args, overrides: Dict[str, Any]) -> int:
    tracer = telemetry.get_tracer()
    trace_path = (os.path.abspath(args.trace)
                  if args.trace is not None else None)
    records: List[Dict[str, Any]] = []
    for experiment_id in args.ids:
        kwargs = dict(overrides)
        if (args.solver is not None
                and experiment_accepts(experiment_id, "solver")):
            kwargs["solver"] = args.solver
        if (args.workers is not None
                and experiment_accepts(experiment_id, "workers")):
            kwargs["workers"] = args.workers
        start = time.perf_counter()
        result = run_experiment(experiment_id, **kwargs)
        elapsed = time.perf_counter() - start
        if result.provenance is not None and trace_path is not None:
            result.provenance["trace_path"] = trace_path
        print(format_table(result))
        print(f"[{elapsed:.1f}s]")
        if result.metrics is not None:
            print(telemetry.render_dashboard(
                result.metrics, tracer=tracer,
                provenance=result.provenance,
            ))
            records.append(_experiment_record(result))
        print()
    if trace_path is not None:
        tracer.write_chrome_trace(trace_path, metadata={
            "schema": "repro-trace/v1",
            "experiments": list(args.ids),
            "event_count": tracer.event_count,
        })
        print(f"wrote trace {trace_path} "
              f"({tracer.event_count} events, "
              f"{tracer.dropped_events} dropped)")
    if args.json_out is not None:
        document = {
            "schema": "repro-telemetry/v1",
            "experiments": records,
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True,
                      default=_json_default)
            handle.write("\n")
        print(f"wrote {os.path.abspath(args.json_out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

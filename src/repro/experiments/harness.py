"""Experiment harness: registry, result container, table formatting.

Every experiment in DESIGN.md registers a runner here. Runners return
an :class:`ExperimentResult` whose rows are the table/series the
benchmark prints, so ``benchmarks/bench_e*.py``, ``EXPERIMENTS.md`` and
ad-hoc exploration all share one code path:

    from repro.experiments import run_experiment, format_table
    print(format_table(run_experiment("E8", num_relations=6)))
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import telemetry
from ..telemetry import metrics as _metrics


@dataclass
class ExperimentResult:
    """One experiment's output table.

    When the metrics registry is enabled, :func:`run_experiment` also
    attaches a run-provenance record and the ``repro-metrics/v1``
    snapshot of the metrics recorded during the run (counters, gauges,
    histograms and span timings); both stay ``None`` otherwise.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]]
    notes: str = ""
    provenance: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None

    def column(self, name: str) -> List[Any]:
        """Extract one column across all rows."""
        if name not in self.columns:
            raise KeyError(f"no column {name!r} in {self.columns}")
        return [row.get(name) for row in self.rows]


_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}
_TITLES: Dict[str, str] = {}


def register(experiment_id: str, title: str):
    """Decorator registering a runner under an experiment id."""

    def wrap(function: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"{experiment_id} registered twice")
        _REGISTRY[experiment_id] = function
        _TITLES[experiment_id] = title
        return function

    return wrap


def available_experiments() -> Dict[str, str]:
    """Mapping of experiment id -> title."""
    return dict(_TITLES)


def experiment_accepts(experiment_id: str, parameter: str) -> bool:
    """Whether a registered runner takes ``parameter`` as a keyword.

    Lets the CLI forward cross-cutting knobs (``--solver``) only to the
    experiments they apply to.
    """
    from . import ablations, foundations, learning, optimization  # noqa: F401

    if experiment_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(_REGISTRY)}"
        )
    signature = inspect.signature(_REGISTRY[experiment_id])
    return parameter in signature.parameters


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id."""
    # Import the runner modules lazily so registration happens on
    # first use without import cycles.
    from . import ablations, foundations, learning, optimization  # noqa: F401

    if experiment_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(_REGISTRY)}"
        )
    outer = _metrics.get_registry()
    tracer = telemetry.get_tracer()
    if outer is None and tracer is None:
        return _REGISTRY[experiment_id](**kwargs)
    # A fresh registry scopes the metrics to this run; it folds into
    # the caller's registry once the run ends.
    registry = (_metrics.enable_metrics() if outer is not None
                else None)
    start = time.perf_counter()
    try:
        with telemetry.span(f"experiment.{experiment_id}"):
            result = _REGISTRY[experiment_id](**kwargs)
    finally:
        if outer is not None:
            _metrics.enable_metrics(outer)
            outer.merge_snapshot(registry.snapshot())
    duration = time.perf_counter() - start
    if tracer is not None:
        for index, row in enumerate(result.rows):
            tracer.instant(
                f"experiment.{experiment_id}.row",
                category="experiment",
                args={"index": index,
                      **{key: value for key, value in row.items()
                         if isinstance(value, (bool, int, float, str))}},
            )
    if registry is not None:
        provenance = telemetry.collect_provenance(
            experiment_id, kwargs, duration_seconds=duration,
            title=_TITLES[experiment_id],
        ).to_dict()
        if tracer is not None:
            provenance["trace_events"] = tracer.event_count
        result.provenance = provenance
        result.metrics = registry.snapshot(include_reservoir=False)
    return result


def format_table(result: ExperimentResult,
                 float_format: str = "{:.4g}") -> str:
    """Render a result as an aligned text table (paper-style)."""
    headers = result.columns
    body: List[List[str]] = []
    for row in result.rows:
        rendered = []
        for column in headers:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        body.append(rendered)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        f"{result.experiment_id}: {result.title}",
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for rendered in body:
        lines.append(
            "  ".join(rendered[i].ljust(widths[i])
                      for i in range(len(headers)))
        )
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)


def run_pipeline(instances: Sequence[Any], formulation: Any,
                 solve: Any = "sa", configs: Any = None,
                 workers: int = 0, mode: str = "process",
                 provenance: Optional[Dict[str, Any]] = None,
                 **service_kwargs) -> List[Any]:
    """Run a batch of instances through an optimization pipeline.

    ``formulation`` is a registered name or
    :class:`~repro.pipeline.FormulationStrategy`, ``solve`` a solver
    name / ``"classical"`` / :class:`~repro.pipeline.SolveStrategy`,
    ``configs`` an optional per-instance config list. ``workers=0``
    runs in-process (the reference path); ``workers > 0`` attaches a
    temporary :class:`~repro.service.SolveService` warm pool — plans
    are bit-for-bit identical under seeded configs, just concurrent.
    Returns :class:`~repro.pipeline.AnnotatedPlan` records in input
    order.
    """
    from ..pipeline import OptimizationPipeline

    items = list(instances)
    if workers:
        from ..service import SolveService

        with SolveService(max_workers=workers, mode=mode,
                          **service_kwargs) as service:
            pipeline = OptimizationPipeline(formulation, solve=solve,
                                            service=service)
            return pipeline.optimize_workload(
                items, configs=configs, provenance=provenance
            )
    pipeline = OptimizationPipeline(formulation, solve=solve)
    return pipeline.optimize_workload(items, configs=configs,
                                      provenance=provenance)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the standard aggregate for cost ratios."""
    import math

    values = [max(float(v), 1e-300) for v in values]
    if not values:
        raise ValueError("empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def to_csv(result: ExperimentResult) -> str:
    """Render a result as CSV (header + one line per row).

    Cells are comma-escaped by quoting; floats keep full precision so
    downstream plotting scripts lose nothing.
    """
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=result.columns,
                            extrasaction="ignore")
    writer.writeheader()
    for row in result.rows:
        writer.writerow({c: row.get(c, "") for c in result.columns})
    return buffer.getvalue()

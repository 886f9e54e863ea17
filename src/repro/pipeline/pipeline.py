"""The staged optimization pipeline driver.

An :class:`OptimizationPipeline` wires the four stages of
:mod:`repro.pipeline.stages` into one callable unit:

    pipeline = OptimizationPipeline("joinorder", solve="sa")
    plan = pipeline.optimize(graph)          # -> AnnotatedPlan

Failure semantics (regression-tested, see ``tests/pipeline``):

* A pre-check rejection produces a ``rejected`` plan whose provenance
  lists every failing predicate — it never raises.
* A formulation (or solver) that raises produces an ``infeasible``
  plan carrying the exception type/message in the stage report —
  one broken instance cannot take down a workload run.
* Unknown formulation or solver names raise ``ValueError`` at
  *construction* listing the registered alternatives.

One loop serves :meth:`OptimizationPipeline.optimize` and
:meth:`~OptimizationPipeline.optimize_workload`: every instance is
pre-checked and compiled, then, when a
:class:`~repro.service.SolveService` is attached, every solve job is
submitted before any is gathered, so the warm pool's same-model batch
folding applies across the whole batch. A submit that raises becomes
that instance's ``infeasible`` plan. Service execution is bit-for-bit
identical to direct dispatch, preserving pipeline/direct parity.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compile import CompiledProblem, SolverConfig, available_solvers
from ..compile import solve as dispatch_solve
from ..telemetry import context as _context
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .formulations import get_formulation
from .plan import (
    STATUS_INFEASIBLE,
    STATUS_REJECTED,
    AnnotatedPlan,
    StageReport,
)
from .stages import (
    CLASSICAL,
    STAGE_ASSEMBLY,
    STAGE_FORMULATION,
    STAGE_PRE_CHECK,
    STAGE_SOLVE,
    FormulationStrategy,
    PlanAssembly,
    PreCheck,
    as_solve_strategy,
)


class OptimizationPipeline:
    """Pre-check → formulation → solve strategy → plan assembly.

    Parameters
    ----------
    formulation:
        A registered formulation name (``"joinorder"``, ``"mqo"``,
        ``"indexsel"``, ``"txsched"``, ``"partitioning"``) or a
        :class:`FormulationStrategy` instance.
    solve:
        A registry solver name, ``"classical"`` for the formulation's
        baseline, or a :class:`SolveStrategy` for full control
        (explicit config, repair hook).
    pre_check:
        Extra predicates merged *after* the formulation's own.
    assembly:
        Alternative :class:`PlanAssembly` (annotation/rendering hook).
    service:
        Optional :class:`~repro.service.SolveService`; solves route
        through its warm worker pool instead of in-process dispatch.
    """

    def __init__(self, formulation: Any, solve: Any = "sa", *,
                 pre_check: Optional[PreCheck] = None,
                 assembly: Optional[PlanAssembly] = None,
                 service: Any = None):
        if isinstance(formulation, str):
            formulation = get_formulation(formulation)
        if not isinstance(formulation, FormulationStrategy):
            raise TypeError(
                "formulation must be a registered name or a "
                f"FormulationStrategy, got {type(formulation).__name__}"
            )
        self.formulation = formulation
        self.solve_strategy = as_solve_strategy(solve)
        if not self.solve_strategy.is_classical:
            registered = available_solvers()
            if self.solve_strategy.solver not in registered:
                raise ValueError(
                    f"unknown solver {self.solve_strategy.solver!r}; "
                    f"registered: {', '.join(sorted(registered))}, "
                    f"plus {CLASSICAL!r} for the classical baseline"
                )
        self.pre_check = formulation.pre_check().merge(pre_check)
        self.assembly = assembly if assembly is not None else PlanAssembly()
        self.service = service

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Configuration summary (also embedded in plan provenance)."""
        return {
            "formulation": self.formulation.describe(),
            "solve": self.solve_strategy.describe(),
            "pre_check": [name for name, _ in self.pre_check.checks],
            "service": (None if self.service is None
                        else repr(self.service)),
        }

    # ------------------------------------------------------------------
    def optimize(self, instance: Any, *,
                 config: Optional[SolverConfig] = None,
                 provenance: Optional[Dict[str, Any]] = None
                 ) -> AnnotatedPlan:
        """Run one instance through all four stages.

        ``config`` overrides the solve strategy's config for this call
        only (``None`` keeps the strategy's, falling back to the
        formulation's deterministic default). ``provenance`` is merged
        into the plan's provenance (workload/instance keys).

        At the ``context`` telemetry level or above
        (``telemetry.observe``, ``REPRO_OBSERVE``), each call mints a
        pipeline-entry context: stage trace events, service job
        events, and worker-side spans all carry the same
        ``trace_id``, which is also recorded in the plan's provenance.
        """
        return self._run([(instance, config, provenance)])[0]

    def optimize_workload(self, instances: Sequence[Any], *,
                          configs: Optional[Sequence[
                              Optional[SolverConfig]]] = None,
                          provenance: Optional[Dict[str, Any]] = None
                          ) -> List[AnnotatedPlan]:
        """Run a batch of instances; order is preserved.

        The same loop as :meth:`optimize`, over every instance at
        once; each plan's provenance also records its
        ``workload_index``.
        """
        items = list(instances)
        if configs is None:
            configs = [None] * len(items)
        configs = list(configs)
        if len(configs) != len(items):
            raise ValueError(
                f"configs length {len(configs)} != "
                f"instances length {len(items)}"
            )
        return self._run([
            (instance, config, {**(provenance or {}),
                                "workload_index": index})
            for index, (instance, config) in enumerate(zip(items, configs))
        ])

    def _run(self, items: List[Tuple[Any, Optional[SolverConfig],
                                     Optional[Dict[str, Any]]]]
             ) -> List[AnnotatedPlan]:
        """The one loop behind :meth:`optimize` and
        :meth:`optimize_workload`, over ``(instance, config,
        provenance)`` items; each instance keeps one trace context
        across its three passes."""
        contexts = [self._mint_context() for _ in items]
        compiled = []
        for (instance, _, provenance), context in zip(items, contexts):
            with self._scoped(context):
                compiled.append(self._pre_and_compile(instance,
                                                      provenance))
        # Submit only once every instance is compiled, back to back:
        # same-model jobs then sit in the queue together and fold into
        # one dispatch.
        jobs: List[Optional[Tuple[float, Any]]] = [None] * len(items)
        if self.service is not None and not self.solve_strategy.is_classical:
            for index, ((_, config, _), (_, problem, failure), context) \
                    in enumerate(zip(items, compiled, contexts)):
                if failure is None:
                    with self._scoped(context):
                        jobs[index] = self._submit(problem, config)
        plans = []
        for (instance, config, provenance), (stages, problem, failure), \
                job, context in zip(items, compiled, jobs, contexts):
            with self._scoped(context):
                plan = failure if failure is not None else \
                    self._solve_and_assemble(instance, problem, stages,
                                             config, provenance, job)
            if context is not None:
                plan.provenance["trace_id"] = context.trace_id
            plans.append(plan)
        return plans

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, stages: List[StageReport],
              report: StageReport) -> None:
        """Append a stage report, mirroring it into metrics/trace."""
        stages.append(report)
        self._note_stage(report)

    def _note_stage(self, report: StageReport) -> None:
        """Observe one stage into ``pipeline_stage_seconds`` and the
        event trace. Both layers are off by default; the disabled cost
        is two attribute reads."""
        registry = _metrics.get_registry()
        if registry is not None:
            registry.histogram(
                "pipeline_stage_seconds",
                "wall clock per pipeline stage, by formulation",
                ("stage", "formulation"),
            ).labels(stage=report.stage,
                     formulation=self.formulation.name,
                     ).observe(report.seconds)
        tracer = _trace.get_tracer()
        if tracer is not None:
            tracer.complete(
                f"pipeline.{report.stage}",
                tracer.timestamp_us() - report.seconds * 1e6,
                category="stage",
                args={"status": report.status,
                      "formulation": self.formulation.name},
            )

    def _mint_context(self):
        """A fresh pipeline-entry context, or ``None`` when off."""
        state = _context.get_context_state()
        if state is None:
            return None
        return state.mint(stage="pipeline")

    @staticmethod
    def _scoped(context):
        """Activate ``context`` for a ``with`` block (no-op when off)."""
        state = _context.get_context_state()
        if state is None or context is None:
            return nullcontext()
        return state.activate(context)

    def _pre_and_compile(self, instance: Any,
                         provenance: Optional[Dict[str, Any]]
                         ) -> Tuple[List[StageReport],
                                    Optional[CompiledProblem],
                                    Optional[AnnotatedPlan]]:
        """Stages 1-2; returns (reports, problem, failure plan)."""
        stages: List[StageReport] = []
        started = perf_counter()
        check = self.pre_check.run(instance)
        self._push(stages, StageReport(
            STAGE_PRE_CHECK,
            "ok" if check.passed else "rejected",
            perf_counter() - started,
            {"checked": check.checked, "failures": check.failures},
        ))
        if not check.passed:
            return stages, None, self.assembly.failure(
                self.formulation, self.solve_strategy, STATUS_REJECTED,
                stages, provenance,
            )

        if self.solve_strategy.is_classical:
            self._push(stages, StageReport(
                STAGE_FORMULATION, "skipped", 0.0,
                {"reason": "classical baseline needs no compiled "
                           "problem"},
            ))
            return stages, None, None

        started = perf_counter()
        try:
            problem = self.formulation.compile(instance)
        except Exception as exc:  # noqa: BLE001 — becomes the plan
            self._push(stages, self._error_report(
                STAGE_FORMULATION, exc, perf_counter() - started,
            ))
            return stages, None, self.assembly.failure(
                self.formulation, self.solve_strategy,
                STATUS_INFEASIBLE, stages, provenance,
            )
        self._push(stages, StageReport(
            STAGE_FORMULATION, "ok", perf_counter() - started, {
                "problem": problem.name,
                "num_variables": problem.num_variables,
            },
        ))
        return stages, problem, None

    def _submit(self, problem: CompiledProblem,
                config: Optional[SolverConfig]) -> Tuple[float, Any]:
        """Queue one solve on the service: ``(started, handle)``, or
        ``(started, error)`` when the submit itself raised."""
        started = perf_counter()
        try:
            return started, self.service.submit(
                problem, self.solve_strategy.solver,
                self.solve_strategy.resolve_config(self.formulation,
                                                   config),
                repair=self.solve_strategy.repair, block=True,
            )
        except Exception as exc:  # noqa: BLE001 — becomes the plan
            return started, exc

    def _solve_and_assemble(self, instance: Any,
                            problem: Optional[CompiledProblem],
                            stages: List[StageReport],
                            config: Optional[SolverConfig],
                            provenance: Optional[Dict[str, Any]],
                            job: Optional[Tuple[float, Any]]
                            ) -> AnnotatedPlan:
        """Stages 3-4: solve in-process, or gather the service ``job``
        from :meth:`_submit`, then assemble the plan."""
        started, handle = job if job is not None else (perf_counter(),
                                                       None)
        try:
            if isinstance(handle, Exception):
                raise handle
            if self.solve_strategy.is_classical:
                solution = self.formulation.classical_baseline(instance)
                feasible = self.formulation.feasible(instance, solution)
                result = None
                detail: Dict[str, Any] = {"solver": CLASSICAL}
            else:
                result = handle.result() if handle is not None else \
                    dispatch_solve(
                        problem, solver=self.solve_strategy.solver,
                        config=self.solve_strategy.resolve_config(
                            self.formulation, config),
                        repair=self.solve_strategy.repair,
                    )
                solution = result.solution
                feasible = result.feasible
                detail = {
                    "solver": self.solve_strategy.solver,
                    "via_service": handle is not None,
                    "energy": result.energy,
                }
        except Exception as exc:  # noqa: BLE001 — becomes the plan
            self._push(stages, self._error_report(
                STAGE_SOLVE, exc, perf_counter() - started,
                solver=self.solve_strategy.solver,
            ))
            return self.assembly.failure(
                self.formulation, self.solve_strategy,
                STATUS_INFEASIBLE, stages, provenance,
            )
        self._push(stages, StageReport(
            STAGE_SOLVE, "ok", perf_counter() - started, detail
        ))
        return self._assemble(instance, solution, feasible, result,
                              stages, provenance)

    def _assemble(self, instance: Any, solution: Any, feasible: bool,
                  result: Any, stages: List[StageReport],
                  provenance: Optional[Dict[str, Any]]
                  ) -> AnnotatedPlan:
        started = perf_counter()
        try:
            plan = self.assembly.assemble(
                self.formulation, instance, self.solve_strategy,
                solution, feasible, stages, result=result,
                extra_provenance=provenance,
            )
        except Exception as exc:  # noqa: BLE001 — becomes the plan
            self._push(stages, self._error_report(
                STAGE_ASSEMBLY, exc, perf_counter() - started,
            ))
            return self.assembly.failure(
                self.formulation, self.solve_strategy,
                STATUS_INFEASIBLE, stages, provenance,
            )
        # The assembly stage's own report is appended post hoc — the
        # plan's provenance already rendered the earlier reports.
        report = StageReport(
            STAGE_ASSEMBLY, "ok", perf_counter() - started,
            {"status": plan.status},
        )
        plan.provenance["stages"].append(report.to_dict())
        self._note_stage(report)
        return plan

    @staticmethod
    def _error_report(stage: str, exc: BaseException, seconds: float,
                      **extra: Any) -> StageReport:
        detail = {"error_type": type(exc).__name__, "error": str(exc)}
        detail.update(extra)
        return StageReport(stage, "error", seconds, detail)

    def __repr__(self) -> str:
        return (
            f"OptimizationPipeline(formulation="
            f"{self.formulation.name!r}, "
            f"solver={self.solve_strategy.solver!r}, "
            f"service={'attached' if self.service else 'none'})"
        )

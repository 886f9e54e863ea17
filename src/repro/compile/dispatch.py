"""String-addressable solver registry and the ``solve`` front door.

Every annealing-style backend in :mod:`repro.annealing` registers here
under a short name (``"sa"``, ``"sqa"``, ``"tabu"``, ``"qaoa"``,
``"exact"``, ``"pt"``), so swapping solvers is a config/CLI knob
rather than a code change::

    from repro.compile import SolverConfig, solve
    result = solve(problem, solver="sqa",
                   config=SolverConfig(num_sweeps=400, num_reads=20,
                                       seed=7))

``solve`` validates the config, threads the seed into the backend,
wraps the run in a telemetry span, decodes every read through the
problem's hooks and returns a uniform :class:`SolveResult` (best
decoded solution, feasibility flag, per-read energy trajectory,
provenance).

The uniform knobs map onto each backend's closest notion:

========  =====================  =====================
solver    ``num_sweeps``         ``num_reads``
========  =====================  =====================
sa        Metropolis sweeps      restarts
sqa       PIMC sweeps            restarts
pt        sweeps per replica     restarts
tabu      ``max_iterations``     ``num_restarts``
qaoa      optimizer ``maxiter``  ``restarts``
exact     ignored                ignored
========  =====================  =====================

Backend-specific knobs (``num_slices``, ``tenure``, ``p``, ...) ride
in ``SolverConfig.options`` and are forwarded to the constructor.
"""

from __future__ import annotations

import numbers
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from .. import telemetry
from ..telemetry import metrics as _metrics
from ..telemetry import profiler as _profiler
from ..telemetry.progress import ProgressTrace
from ..annealing.exact import solve_ising_exact, solve_qubo_exact
from ..annealing.ising import IsingModel, spins_to_bits
from ..annealing.qaoa import QAOASolver
from ..annealing.qubo import QUBO
from ..annealing.results import Sample, SampleSet
from ..annealing.simulated_annealing import SimulatedAnnealingSolver
from ..annealing.sqa import SimulatedQuantumAnnealingSolver
from ..annealing.tabu import TabuSearchSolver
from ..annealing.tempering import ParallelTemperingSolver
from .ir import CompiledProblem, Model


@dataclass
class SolverConfig:
    """Uniform solver configuration threaded through the registry.

    ``None`` fields fall back to the backend's own constructor
    defaults; ``options`` carries backend-specific keyword arguments
    verbatim.

    ``convergence`` controls the per-iteration convergence trace
    attached to :attr:`SolveResult.convergence`: ``True`` always
    records it, ``False`` never does, and the default ``None`` enables
    it automatically while event tracing
    (:func:`repro.telemetry.enable_tracing`) is active.
    """

    num_sweeps: Optional[int] = None
    num_reads: Optional[int] = None
    seed: Optional[int] = None
    convergence: Optional[bool] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("num_sweeps", "num_reads"):
            value = getattr(self, name)
            if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise ValueError(
                    f"{name} must be None or an integer >= 1, got {value!r}"
                )
        if self.seed is not None and not isinstance(self.seed, (int,
                                                                np.integer)):
            raise ValueError("seed must be an integer")
        if self.convergence is not None and not isinstance(
                self.convergence, bool):
            raise ValueError("convergence must be True, False or None")
        if not isinstance(self.options, dict):
            raise ValueError("options must be a dict")
        reserved = {"num_sweeps", "num_reads", "seed"}
        clashes = reserved & set(self.options)
        if clashes:
            raise ValueError(
                f"options may not override uniform knobs: {sorted(clashes)}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_sweeps": self.num_sweeps,
            "num_reads": self.num_reads,
            "seed": None if self.seed is None else int(self.seed),
            "convergence": self.convergence,
            "options": dict(self.options),
        }

    def convergence_active(self) -> bool:
        """Resolve the tri-state flag against the live tracer."""
        if self.convergence is None:
            return telemetry.get_tracer() is not None
        return self.convergence

    def resolve_convergence(self) -> "SolverConfig":
        """A copy with the convergence tri-state pinned to a bool.

        The ``None`` ("auto-on while tracing") state is resolved
        against *this* process's tracer. Cross-process dispatch must
        call this before shipping the config to a worker — the worker
        has its own (empty) tracer state, so an unresolved ``None``
        would silently flip the semantics there.
        """
        if self.convergence is not None:
            return self
        return replace(self, convergence=self.convergence_active())

    def require_picklable(self) -> "SolverConfig":
        """Validate the config round-trips through pickle; return it.

        Cross-process dispatch pickles the config into the worker. A
        callable or pre-configured solver instance smuggled into
        ``options`` would otherwise crash deep inside the worker with
        an opaque pickling traceback; this surfaces the offending keys
        as a clear :class:`ValueError` *before* the job is enqueued.
        """
        try:
            restored = pickle.loads(pickle.dumps(self))
        except Exception as error:
            bad_keys = []
            for key, value in self.options.items():
                try:
                    pickle.dumps(value)
                except Exception:
                    bad_keys.append(key)
            detail = (f" (unpicklable options: {sorted(bad_keys)})"
                      if bad_keys else "")
            raise ValueError(
                "SolverConfig does not survive pickling for "
                f"cross-process dispatch{detail}: {error}"
            ) from error
        if restored.to_dict() != self.to_dict():
            raise ValueError(
                "SolverConfig does not round-trip through pickle: "
                f"{restored.to_dict()} != {self.to_dict()}"
            )
        return self


#: Adapter signature: ``run(model, config, progress)`` where
#: ``progress`` is an optional :class:`ProgressTrace` the backend
#: should feed one uniform convergence row per iteration.
RunAdapter = Callable[[Model, SolverConfig, Optional[ProgressTrace]],
                      SampleSet]


@dataclass(frozen=True)
class SolverSpec:
    """One registry entry: a name, a description and a run adapter."""

    name: str
    description: str
    run: RunAdapter


_REGISTRY: Dict[str, SolverSpec] = {}


def register_solver(name: str, description: str,
                    run: RunAdapter) -> None:
    """Register a solver adapter under a string name."""
    if name in _REGISTRY:
        raise ValueError(f"solver {name!r} registered twice")
    _REGISTRY[name] = SolverSpec(name=name, description=description,
                                 run=run)


def available_solvers() -> Dict[str, str]:
    """Mapping of registered solver name -> description."""
    return {name: spec.description for name, spec in
            sorted(_REGISTRY.items())}


def _unknown_solver_error(name: str) -> ValueError:
    names = ", ".join(sorted(_REGISTRY))
    return ValueError(
        f"unknown solver {name!r}; registered solvers: {names}"
    )


# ----------------------------------------------------------------------
# Backend adapters
# ----------------------------------------------------------------------
def _config_kwargs(config: SolverConfig,
                   sweeps_key: Optional[str] = "num_sweeps",
                   reads_key: Optional[str] = "num_reads"
                   ) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = dict(config.options)
    if sweeps_key is not None and config.num_sweeps is not None:
        kwargs[sweeps_key] = config.num_sweeps
    if reads_key is not None and config.num_reads is not None:
        kwargs[reads_key] = config.num_reads
    return kwargs


def _seed_int(config: SolverConfig) -> Optional[int]:
    return None if config.seed is None else int(config.seed)


def _run_sa(model: Model, config: SolverConfig,
            progress: Optional[ProgressTrace] = None) -> SampleSet:
    solver = SimulatedAnnealingSolver(seed=_seed_int(config),
                                      progress=progress,
                                      **_config_kwargs(config))
    return solver.solve(model)


def _run_sqa(model: Model, config: SolverConfig,
             progress: Optional[ProgressTrace] = None) -> SampleSet:
    solver = SimulatedQuantumAnnealingSolver(seed=_seed_int(config),
                                             progress=progress,
                                             **_config_kwargs(config))
    return solver.solve(model)


def _run_pt(model: Model, config: SolverConfig,
            progress: Optional[ProgressTrace] = None) -> SampleSet:
    solver = ParallelTemperingSolver(seed=_seed_int(config),
                                     progress=progress,
                                     **_config_kwargs(config))
    return solver.solve(model)


def _run_tabu(model: Model, config: SolverConfig,
              progress: Optional[ProgressTrace] = None) -> SampleSet:
    kwargs = _config_kwargs(config, sweeps_key="max_iterations",
                            reads_key="num_restarts")
    solver = TabuSearchSolver(seed=_seed_int(config), progress=progress,
                              **kwargs)
    if isinstance(model, IsingModel):
        model = model.to_qubo()
    return solver.solve(model)


def _run_qaoa(model: Model, config: SolverConfig,
              progress: Optional[ProgressTrace] = None) -> SampleSet:
    kwargs = _config_kwargs(config, sweeps_key="maxiter",
                            reads_key="restarts")
    solver = QAOASolver(seed=_seed_int(config), progress=progress,
                        **kwargs)
    return solver.solve(model).samples


def _run_exact(model: Model, config: SolverConfig,
               progress: Optional[ProgressTrace] = None) -> SampleSet:
    if isinstance(model, QUBO):
        samples = SampleSet([solve_qubo_exact(model)])
    else:
        spins, energy = solve_ising_exact(model)
        bits = tuple(int(b) for b in spins_to_bits(spins))
        samples = SampleSet([Sample(bits, energy)])
    if progress is not None:
        # Enumeration has no iterations; one terminal row keeps the
        # convergence schema uniform across every registered solver.
        progress.record(iteration=0,
                        best_energy=samples.best_energy,
                        current_energy=samples.best_energy)
    return samples


register_solver("sa", "simulated (thermal) annealing", _run_sa)
register_solver("sqa", "simulated quantum annealing (path-integral "
                       "Monte Carlo)", _run_sqa)
register_solver("tabu", "tabu search over single-bit flips", _run_tabu)
register_solver("qaoa", "QAOA on the statevector simulator", _run_qaoa)
register_solver("exact", "exhaustive enumeration (ground truth)",
                _run_exact)
register_solver("pt", "parallel tempering (replica exchange)", _run_pt)


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
@dataclass
class SolveResult:
    """Uniform result of ``solve``: one best decoded solution plus the
    evidence behind it.

    ``solutions`` aligns 1:1 with ``samples`` (distinct reads, sorted
    by energy ascending); ``energies`` is the per-read energy
    trajectory expanded by occurrence counts, so its minimum is the
    best energy the backend reached.

    ``convergence`` — populated when the config's convergence flag
    resolves active — is a list of uniform per-iteration dicts
    (``iteration``, ``best_energy``, ``current_energy``,
    ``acceptance_rate``, ``schedule_value``) every registered backend
    emits through the shared :class:`ProgressTrace` hook.
    """

    problem: str
    solver: str
    solution: Any
    feasible: bool
    energy: float
    energies: np.ndarray
    samples: SampleSet
    solutions: List[Any]
    config: SolverConfig
    provenance: Dict[str, Any]
    convergence: Optional[List[Dict[str, Any]]] = None

    def __repr__(self) -> str:
        return (
            f"SolveResult(problem={self.problem!r}, "
            f"solver={self.solver!r}, feasible={self.feasible}, "
            f"energy={self.energy:g}, reads={len(self.samples)})"
        )


def _solver_name(solver: Union[str, Any]) -> str:
    """The name telemetry and provenance use for ``solver``.

    Solver classes carry their registry name (``solver_name``) so
    counters stay consistent between string dispatch and
    pre-configured instances.
    """
    if isinstance(solver, str):
        return solver
    return getattr(type(solver), "solver_name", type(solver).__name__)


def _adapter(solver: Union[str, Any]) -> RunAdapter:
    """The run adapter for a registry name or a pre-configured
    instance (:func:`solve`'s escape hatch)."""
    if isinstance(solver, str):
        if solver not in _REGISTRY:
            raise _unknown_solver_error(solver)
        return _REGISTRY[solver].run
    if not hasattr(solver, "solve"):
        raise _unknown_solver_error(str(solver))

    def run(model: Model, _config: SolverConfig,
            progress: Optional[ProgressTrace] = None) -> SampleSet:
        # Attach the trace through the solver's own ``progress`` slot
        # when it has one and the caller left it empty, restoring after.
        attach = (progress is not None
                  and getattr(solver, "progress", False) is None)
        if attach:
            solver.progress = progress
        try:
            raw = solver.solve(model)
        finally:
            if attach:
                solver.progress = None
        # QAOA-style results carry their reads in ``.samples``.
        samples = (raw if isinstance(raw, SampleSet)
                   else getattr(raw, "samples", raw))
        if not isinstance(samples, SampleSet):
            raise TypeError(
                f"solver {_solver_name(solver)} returned "
                f"{type(raw).__name__}, expected a SampleSet"
            )
        return samples

    return run


def _solve_seconds(registry: "_metrics.MetricsRegistry"):
    """The backend-run histogram :func:`run_backend` observes into."""
    return registry.histogram(
        "solver_solve_seconds",
        "backend execution wall clock per registered solver",
        ("solver",))


def run_backend(model: Model, solver: Union[str, Any],
                config: SolverConfig, span: str,
                profile: Optional[bool] = None) -> Dict[str, Any]:
    """The backend step: run one solver on a bare binary model.

    :func:`solve` runs it in-process under span
    ``compile.solve.<problem>``; the solve service's job step runs
    it in a warm worker or on a dispatcher thread under
    ``service.worker.<solver>``. Whatever it records lands in the
    process that runs it: the convergence trace, the profiler capture
    (``profile`` as in :func:`solve`) and its ``profile.<solver>``
    trace instant, the span, the truncated-row count and
    ``solver_solve_seconds``.

    Returns a picklable record: ``samples``, ``convergence`` (rows, or
    ``None``), ``duration`` (the backend run alone, the same seconds
    ``solver_solve_seconds`` observes) and, when the profiler sampled
    the run, ``profile``.
    """
    name = _solver_name(solver)
    run = _adapter(solver)
    progress = (ProgressTrace(label=name)
                if config.convergence_active() else None)
    capture = _profiler.maybe_capture(profile)
    with telemetry.span(span):
        with capture if capture is not None else nullcontext():
            start = time.perf_counter()
            samples = run(model, config, progress)
            duration = time.perf_counter() - start
    registry = _metrics.get_registry()
    if registry is not None:
        _solve_seconds(registry).labels(solver=name).observe(duration)
    record: Dict[str, Any] = {"samples": samples, "convergence": None,
                              "duration": duration}
    if progress is not None:
        progress.note_truncation()
        record["convergence"] = progress.rows()
    if capture is not None:
        record["profile"] = capture.summary()
        _profiler.mirror_to_trace(record["profile"], f"profile.{name}")
    return record


def decode_samples(problem: CompiledProblem,
                   samples: SampleSet) -> List[Any]:
    """Decode every read through the problem's ``decode`` hook."""
    return [problem.decode(sample.assignment) for sample in samples]


def select_best_solution(problem: CompiledProblem,
                         solutions: List[Any],
                         repair: bool = False) -> Any:
    """Pick the strictly-best scored solution, optionally repaired.

    Ties keep the earliest (lowest-energy) read — the same strict
    ``<`` rule :func:`solve` has always used, factored out so the
    service's parent-side assembly is bit-for-bit identical.
    """
    best = solutions[0]
    best_score = problem.score(best)
    for candidate in solutions[1:]:
        score = problem.score(candidate)
        if score < best_score:
            best, best_score = candidate, score
    if repair and problem.repair is not None:
        best = problem.repair(best)
        registry = _metrics.get_registry()
        if registry is not None:
            registry.counter("compile_repairs_total",
                             "best solutions passed through a problem's "
                             "repair hook").inc()
    return best


def assemble_result(problem: CompiledProblem, solver_name: str,
                    config: SolverConfig, samples: SampleSet,
                    solutions: List[Any], duration: float,
                    convergence: Optional[List[Dict[str, Any]]] = None,
                    repair: bool = False,
                    provenance_extra: Optional[Dict[str, Any]] = None
                    ) -> SolveResult:
    """Assemble the uniform :class:`SolveResult` from solver output.

    Shared by :func:`solve` (in-process) and the solve service (which
    runs the backend in a worker and assembles here in the parent, so
    both paths produce bit-for-bit identical results).
    """
    registry = _metrics.get_registry()
    if registry is not None:
        registry.counter(
            "compile_decoded_samples_total",
            "distinct samples decoded into solutions, per solver",
            ("solver",)).labels(solver=solver_name).inc(len(samples))

    best = select_best_solution(problem, solutions, repair=repair)

    from .. import __version__

    provenance: Dict[str, Any] = {
        "problem": problem.name,
        "solver": solver_name,
        "config": config.to_dict(),
        "seed": None if config.seed is None else int(config.seed),
        "num_variables": problem.num_variables,
        "version": __version__,
        "duration_seconds": duration,
        "convergence_rows": (len(convergence) if convergence is not None
                             else 0),
    }
    if provenance_extra:
        provenance.update(provenance_extra)

    return SolveResult(
        problem=problem.name,
        solver=solver_name,
        solution=best,
        feasible=bool(problem.feasible(best)),
        energy=float(samples.best_energy),
        energies=samples.energies(),
        samples=samples,
        solutions=solutions,
        config=config,
        provenance=provenance,
        convergence=convergence,
    )


def finish_solve(problem: CompiledProblem, solver_name: str,
                 config: SolverConfig, record: Dict[str, Any],
                 repair: bool = False,
                 provenance_extra: Optional[Dict[str, Any]] = None
                 ) -> SolveResult:
    """The finish step: decode a :func:`run_backend` record's reads
    through the problem's hooks, then assemble the result.

    :func:`solve` runs it right after the backend step; the solve
    service runs it parent-side on the record a worker shipped back.
    A ``profile`` in the record joins ``provenance_extra``.
    """
    extra = dict(provenance_extra or {})
    if "profile" in record:
        extra["profile"] = record["profile"]
    samples = record["samples"]
    return assemble_result(
        problem, solver_name, config, samples,
        decode_samples(problem, samples), record["duration"],
        convergence=record["convergence"], repair=repair,
        provenance_extra=extra,
    )


def solve(problem: CompiledProblem,
          solver: Union[str, Any] = "sa",
          config: Optional[SolverConfig] = None,
          repair: bool = False,
          profile: Optional[bool] = None) -> SolveResult:
    """Solve a compiled problem with a registered (or ad-hoc) solver.

    ``solver`` is a registry name, or any object with a
    ``solve(model)`` method (an escape hatch for pre-configured solver
    instances; ``config`` is ignored for those). ``repair=True``
    additionally applies the problem's optional ``repair`` hook to the
    best decoded solution before the feasibility check.

    ``profile`` controls the sampling wall-clock profiler
    (:mod:`repro.telemetry.profiler`): ``True`` captures this call,
    ``False`` never does, and the default ``None`` profiles at the
    ``trace`` level of :func:`~repro.telemetry.observe`.
    The aggregated stack summary lands in
    ``result.provenance["profile"]`` and mirrors onto the event trace.
    The sampler only *reads* frames from a helper thread — it never
    interrupts the backend, so results are bit-for-bit unchanged.

    ``provenance["duration_seconds"]`` times the backend run alone,
    as it does for a solve-service job.
    """
    config = config if config is not None else SolverConfig()
    record = run_backend(problem.model, solver, config,
                         f"compile.solve.{problem.name}", profile)
    return finish_solve(problem, _solver_name(solver), config, record,
                        repair=repair)

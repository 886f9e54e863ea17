"""Portfolio racing: several solvers, first feasible answer wins.

Heuristic solvers dominate each other unpredictably per instance —
simulated annealing wins flat landscapes, tabu wins rugged ones,
parallel tempering wins multimodal ones. A *portfolio* hedges: submit
the same problem to several registry solvers at once, return the first
feasible result that lands, and cancel the losers (queued losers are
withdrawn; running process-mode losers are reaped mid-flight).

Built entirely on public :class:`~repro.service.SolveService`
machinery: entrants are ordinary jobs, completion order is observed
through handle callbacks, and the winner's provenance is annotated
with the full race record (entrants, statuses, winner) so a portfolio
answer is as auditable as a single solve.
"""

from __future__ import annotations

import queue as _queue
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..telemetry import metrics as _metrics
from ..compile.dispatch import SolveResult, SolverConfig
from ..compile.ir import CompiledProblem
from .queue import JobStatus

__all__ = ["PortfolioError", "race"]

#: One portfolio entrant: a solver name, optionally with its own config.
Entrant = Union[str, Tuple[str, Optional[SolverConfig]]]

#: Grace seconds added on top of the budget when waiting for racers.
_BUDGET_SLACK_SECONDS = 30.0


class PortfolioError(RuntimeError):
    """No portfolio entrant produced a usable result."""


def _normalize_entrants(solvers: Sequence[Entrant],
                        config: Optional[SolverConfig]
                        ) -> List[Tuple[str, Optional[SolverConfig]]]:
    entrants: List[Tuple[str, Optional[SolverConfig]]] = []
    for entry in solvers:
        if isinstance(entry, str):
            entrants.append((entry, config))
        elif isinstance(entry, tuple) and len(entry) == 2:
            entrants.append((entry[0], entry[1]))
        else:
            raise ValueError(
                "portfolio entrants are solver names or (name, config) "
                f"pairs, got {entry!r}"
            )
    if not entrants:
        raise ValueError("portfolio needs at least one entrant")
    return entrants


def race(service, problem: CompiledProblem,
         solvers: Sequence[Entrant] = ("sa", "tabu", "pt"),
         config: Optional[SolverConfig] = None,
         budget: Optional[float] = None,
         repair: bool = False, priority: int = 0) -> SolveResult:
    """Race ``solvers`` on ``problem``; first feasible result wins.

    Every entrant is submitted with ``deadline=budget`` (when given),
    so a wedged solver cannot stall the race. As soon as a feasible
    result lands, every other entrant is cancelled and reaped; the
    function then waits for the losers to reach a terminal state so no
    orphan workers outlive the call. If no entrant finds a feasible
    solution, the best-energy infeasible result is returned instead;
    if *nothing* completes, :class:`PortfolioError` carries each
    entrant's failure.

    The returned result is the winner's, with
    ``provenance["portfolio"]`` describing the whole race.
    """
    entrants = _normalize_entrants(solvers, config)
    completion: "_queue.Queue" = _queue.Queue()
    handles = []
    with telemetry.span("service.portfolio"):
        for solver, entrant_config in entrants:
            handle = service.submit(
                problem, solver, entrant_config, priority=priority,
                deadline=budget, repair=repair, block=True,
            )
            handle.add_done_callback(completion.put)
            handles.append(handle)
        registry = _metrics.get_registry()
        if registry is not None:
            registry.counter("service_portfolio_races_total",
                             "portfolio races started").inc()

        wait_timeout = (None if budget is None
                        else budget * len(entrants)
                        + _BUDGET_SLACK_SECONDS)
        winner = None
        winner_result: Optional[SolveResult] = None
        completed: List[Tuple[Any, SolveResult]] = []
        pending = len(handles)
        while pending:
            try:
                handle = completion.get(timeout=wait_timeout)
            except _queue.Empty:
                for open_handle in handles:
                    open_handle.cancel()
                raise PortfolioError(
                    f"portfolio race on {problem.name!r} stalled: no "
                    f"entrant finished within {wait_timeout:g}s"
                ) from None
            pending -= 1
            if handle.status is not JobStatus.DONE:
                continue
            result = handle.result(timeout=0)
            if result.feasible:
                winner, winner_result = handle, result
                break
            completed.append((handle, result))

        cancelled = 0
        for handle in handles:
            if handle is winner:
                continue
            if handle.cancel():
                cancelled += 1
        # Wait the losers out so their workers are reaped before we
        # return — the race leaves no orphan processes behind.
        for handle in handles:
            if handle is not winner:
                try:
                    handle.exception(timeout=wait_timeout)
                except TimeoutError:
                    pass

        if winner_result is None:
            if completed:
                winner, winner_result = min(
                    completed, key=lambda pair: pair[1].energy)
            else:
                failures = "; ".join(
                    f"{handle.solver}: {handle.status.value}"
                    for handle in handles)
                raise PortfolioError(
                    f"no portfolio entrant completed on "
                    f"{problem.name!r} ({failures})"
                )
        if registry is not None:
            registry.counter(
                "service_portfolio_wins_total",
                "portfolio races won, by winning solver",
                ("solver",)).labels(solver=winner.solver).inc()

    import dataclasses

    record: Dict[str, Any] = {
        "entrants": [solver for solver, _ in entrants],
        "winner": winner.solver,
        "winner_feasible": winner_result.feasible,
        "budget": budget,
        "cancelled": cancelled,
        "statuses": {f"{handle.solver}#{handle.job_id}":
                     handle.status.value for handle in handles},
    }
    return dataclasses.replace(
        winner_result,
        provenance={**winner_result.provenance, "portfolio": record},
    )

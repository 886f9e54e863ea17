"""Problem compilation and solver dispatch.

The library's central recipe — cast a database optimization problem as
QUBO/Ising, hand it to an interchangeable solver — implemented once:

* :mod:`repro.compile.ir` — the :class:`CompiledProblem` intermediate
  representation: a binary model plus a named-variable registry and
  ``decode`` / ``score`` / ``feasible`` / ``repair`` hooks.
* :mod:`repro.compile.constraints` — :class:`ProblemBuilder` with the
  reusable constraint primitives (``exactly_one``, ``at_most_one``,
  ``implication``, ``linear_leq`` with binary slack) and the audited
  penalty-weight rule shared by every formulation.
* :mod:`repro.compile.dispatch` — the string-addressable solver
  registry (``"sa"``, ``"sqa"``, ``"tabu"``, ``"qaoa"``, ``"exact"``,
  ``"pt"``) behind the single front door :func:`solve`.

Typical use::

    from repro.compile import SolverConfig, solve
    from repro.db.joinorder import JoinOrderQUBO

    problem = JoinOrderQUBO(graph).compile()
    result = solve(problem, solver="sqa",
                   config=SolverConfig(num_sweeps=400, num_reads=20,
                                       seed=7))
    result.solution.order, result.feasible
"""

from .constraints import (
    ProblemBuilder,
    analytic_penalty_weight,
    binary_slack_coefficients,
    validate_penalty_scale,
)
from .dispatch import (
    SolveResult,
    SolverConfig,
    SolverSpec,
    assemble_result,
    available_solvers,
    decode_samples,
    make_solver,
    register_solver,
    run_registry_backend,
    select_best_solution,
    solve,
)
from .ir import CompiledProblem, VariableRegistry, check_bits

__all__ = [
    "ProblemBuilder",
    "analytic_penalty_weight",
    "binary_slack_coefficients",
    "validate_penalty_scale",
    "SolveResult",
    "SolverConfig",
    "SolverSpec",
    "assemble_result",
    "available_solvers",
    "decode_samples",
    "make_solver",
    "register_solver",
    "run_registry_backend",
    "select_best_solution",
    "solve",
    "CompiledProblem",
    "VariableRegistry",
    "check_bits",
]

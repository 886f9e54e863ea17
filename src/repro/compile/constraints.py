"""Reusable constraint primitives and the problem builder.

This module is the single audited place for the modelling boilerplate
the five ``repro.db`` formulations used to duplicate:

* ``penalty_scale`` validation (:func:`validate_penalty_scale`),
* the analytic penalty-weight rule (:func:`analytic_penalty_weight`):
  every formulation derives a bound ``span`` on the objective swing a
  single constraint violation can buy, and the penalty weight is
  ``penalty_scale * (span + 1.0)`` so violations never pay for
  themselves at the default scale,
* constraint wiring — ``exactly_one`` / ``at_most_one`` /
  ``implication`` penalties and the binary-slack ``linear_leq``
  (knapsack) encoding.

:class:`ProblemBuilder` records objective terms and constraints as an
ordered op list and materializes the model only in :meth:`finish`, so
variables may keep being registered while constraints are added (the
slack trick needs this) and the coefficient-accumulation order — and
therefore the floating-point result — is exactly the recording order.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry import metrics as _metrics
from ..annealing.ising import IsingModel
from ..annealing.qubo import QUBO
from .ir import CompiledProblem, VariableRegistry


def validate_penalty_scale(penalty_scale: float) -> float:
    """Reject non-positive penalty scales (shared by all formulations)."""
    if penalty_scale <= 0:
        raise ValueError("penalty_scale must be positive")
    return float(penalty_scale)


def analytic_penalty_weight(span: float, penalty_scale: float = 1.0
                            ) -> float:
    """The analytic penalty rule: ``penalty_scale * (span + 1.0)``.

    ``span`` bounds the objective improvement any single constraint
    violation can yield; the ``+ 1.0`` margin makes the penalized
    ground state strictly feasible at ``penalty_scale = 1``.
    """
    if span < 0:
        raise ValueError("span must be non-negative")
    return float(penalty_scale) * (float(span) + 1.0)


def binary_slack_coefficients(bound: int) -> List[int]:
    """Binary-expansion slack weights covering exactly ``[0, bound]``.

    Powers of two followed by a remainder term, the standard
    inequality-to-equality trick for knapsack-style constraints.
    """
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    num_slack = max(1, int(bound).bit_length())
    weights: List[int] = []
    remaining = int(bound)
    power = 1
    while len(weights) < num_slack - 1:
        weights.append(power)
        remaining -= power
        power *= 2
    weights.append(max(1, remaining))
    return weights


class ProblemBuilder:
    """Ordered recorder of variables, objective terms and constraints.

    One builder produces one :class:`~repro.compile.ir.CompiledProblem`.
    ``mode="qubo"`` (default) materializes a :class:`QUBO`;
    ``mode="ising"`` materializes an :class:`IsingModel` from recorded
    field/coupling ops (used by the partitioning formulation, whose
    spins need no auxiliary variables).
    """

    def __init__(self, name: str, penalty_scale: float = 1.0,
                 mode: str = "qubo"):
        if mode not in ("qubo", "ising"):
            raise ValueError("mode must be 'qubo' or 'ising'")
        self.name = str(name)
        self.penalty_scale = validate_penalty_scale(penalty_scale)
        self.mode = mode
        self.variables = VariableRegistry()
        self._ops: List[Tuple[str, tuple]] = []
        self._constraint_counts: Dict[str, int] = {}

    # -- variables -------------------------------------------------------
    def add_variable(self, *name: Any) -> int:
        """Register a logical variable; returns its bit/spin index."""
        return self.variables.add(*name)

    def add_variables(self, names: Sequence[Sequence[Any]]) -> List[int]:
        """Register several variables; returns their indices in order."""
        return [self.variables.add(*name) for name in names]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    # -- objective terms -------------------------------------------------
    def add_linear(self, variable: int, coefficient: float) -> "ProblemBuilder":
        """Add ``coefficient * x_variable`` to the objective."""
        self._require_mode("qubo")
        self._ops.append(("linear", (variable, float(coefficient))))
        return self

    def add_quadratic(self, u: int, v: int,
                      coefficient: float) -> "ProblemBuilder":
        """Add ``coefficient * x_u * x_v`` to the objective."""
        self._require_mode("qubo")
        self._ops.append(("quadratic", (u, v, float(coefficient))))
        return self

    def add_offset(self, value: float) -> "ProblemBuilder":
        """Add a constant to the objective."""
        self._require_mode("qubo")
        self._ops.append(("offset", (float(value),)))
        return self

    def add_field(self, spin: int, value: float) -> "ProblemBuilder":
        """Add a local field ``value * s_spin`` (Ising mode)."""
        self._require_mode("ising")
        self._ops.append(("field", (spin, float(value))))
        return self

    def add_coupling(self, a: int, b: int, value: float) -> "ProblemBuilder":
        """Add a coupling ``value * s_a s_b`` (Ising mode)."""
        self._require_mode("ising")
        self._ops.append(("coupling", (a, b, float(value))))
        return self

    # -- constraint primitives -------------------------------------------
    def exactly_one(self, variables: Sequence[int],
                    weight: float) -> "ProblemBuilder":
        """One-hot constraint: penalize ``(sum_i x_i - 1)^2 * weight``."""
        self._require_mode("qubo")
        self._record_constraint("exactly_one")
        self._ops.append(("exactly_one", (tuple(variables), float(weight))))
        return self

    def at_most_one(self, variables: Sequence[int],
                    weight: float) -> "ProblemBuilder":
        """Penalize any pair of the variables being set together."""
        self._require_mode("qubo")
        self._record_constraint("at_most_one")
        self._ops.append(("at_most_one", (tuple(variables), float(weight))))
        return self

    def implication(self, u: int, v: int,
                    weight: float) -> "ProblemBuilder":
        """Penalize ``x_u = 1 and x_v = 0`` (u implies v)."""
        self._require_mode("qubo")
        self._record_constraint("implication")
        self._ops.append(("implication", (u, v, float(weight))))
        return self

    def forbid_together(self, u: int, v: int,
                        weight: float) -> "ProblemBuilder":
        """Penalize ``x_u = x_v = 1`` (conflict-pair constraint)."""
        self._require_mode("qubo")
        self._record_constraint("forbid_together")
        self._ops.append(("quadratic", (u, v, float(weight))))
        return self

    def linear_leq(self, coefficients: Sequence[Tuple[int, float]],
                   bound: int, weight: float,
                   slack_label: Any = "slack") -> List[int]:
        """Knapsack constraint ``sum c_i x_i <= bound`` via binary slack.

        Registers slack variables ``(slack_label, k)``, then records the
        squared-equality penalty ``weight * (sum c_i x_i + sum w_k z_k
        - bound)^2``. Returns the slack variable indices.
        """
        self._require_mode("qubo")
        self._record_constraint("linear_leq")
        slack_weights = binary_slack_coefficients(bound)
        slack_indices = [
            self.add_variable(slack_label, k)
            for k in range(len(slack_weights))
        ]
        terms = [(int(v), float(c)) for v, c in coefficients]
        terms += [
            (index, float(c))
            for index, c in zip(slack_indices, slack_weights)
        ]
        bound = float(bound)
        for position, (a, ca) in enumerate(terms):
            self._ops.append(
                ("linear", (a, weight * (ca * ca - 2.0 * bound * ca)))
            )
            for b, cb in terms[position + 1:]:
                self._ops.append(
                    ("quadratic", (a, b, weight * 2.0 * ca * cb))
                )
        self._ops.append(("offset", (weight * bound * bound,)))
        return slack_indices

    # -- materialization -------------------------------------------------
    def finish(self, decode: Callable[..., Any],
               score: Callable[[Any], Any],
               feasible: Callable[[Any], bool],
               repair: Optional[Callable[[Any], Any]] = None,
               metadata: Optional[Dict[str, Any]] = None
               ) -> CompiledProblem:
        """Replay the recorded ops into a model and assemble the IR."""
        if self.num_variables < 1:
            raise ValueError("no variables registered")
        registry = _metrics.get_registry()
        if registry is not None:
            constraints = registry.counter(
                "compile_constraints_total",
                "constraints compiled into problems, by kind", ("kind",))
            for kind, count in self._constraint_counts.items():
                constraints.labels(kind=kind).inc(count)
            registry.counter("compile_problems_total",
                             "problems compiled").inc()
        model = (self._build_qubo() if self.mode == "qubo"
                 else self._build_ising())
        info: Dict[str, Any] = {
            "penalty_scale": self.penalty_scale,
            "constraints": dict(self._constraint_counts),
        }
        info.update(metadata or {})
        return CompiledProblem(
            name=self.name,
            model=model,
            variables=self.variables,
            decode=decode,
            score=score,
            feasible=feasible,
            repair=repair,
            metadata=info,
        )

    def _build_qubo(self) -> QUBO:
        qubo = QUBO(self.num_variables)
        for kind, args in self._ops:
            if kind == "linear":
                qubo.add_linear(*args)
            elif kind == "quadratic":
                qubo.add_quadratic(*args)
            elif kind == "offset":
                qubo.add_offset(*args)
            elif kind == "exactly_one":
                qubo.add_penalty_exactly_one(list(args[0]), args[1])
            elif kind == "at_most_one":
                qubo.add_penalty_at_most_one(list(args[0]), args[1])
            elif kind == "implication":
                qubo.add_penalty_implication(*args)
            else:  # pragma: no cover - guarded by _require_mode
                raise AssertionError(f"op {kind} in qubo mode")
        return qubo

    def _build_ising(self) -> IsingModel:
        h: Dict[int, float] = {}
        j: Dict[Tuple[int, int], float] = {}
        for kind, args in self._ops:
            if kind == "field":
                spin, value = args
                h[spin] = h.get(spin, 0.0) + value
            elif kind == "coupling":
                a, b, value = args
                key = (min(a, b), max(a, b))
                j[key] = j.get(key, 0.0) + value
            else:  # pragma: no cover - guarded by _require_mode
                raise AssertionError(f"op {kind} in ising mode")
        return IsingModel(self.num_variables, h=h, j=j)

    def _record_constraint(self, kind: str) -> None:
        self._constraint_counts[kind] = (
            self._constraint_counts.get(kind, 0) + 1
        )

    def _require_mode(self, mode: str) -> None:
        if self.mode != mode:
            raise ValueError(
                f"operation requires mode={mode!r}, builder is "
                f"mode={self.mode!r}"
            )

    def __repr__(self) -> str:
        return (
            f"ProblemBuilder(name={self.name!r}, mode={self.mode!r}, "
            f"num_variables={self.num_variables}, ops={len(self._ops)})"
        )

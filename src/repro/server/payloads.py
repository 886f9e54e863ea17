"""Wire formats for job submission and results.

A ``POST /v1/jobs`` body is one JSON object in one of two shapes:

**Compiled-problem submission** — raw binary-model terms::

    {"problem": {"kind": "qubo", "num_variables": 4,
                 "linear": {"0": -1.0}, "quadratic": [[0, 1, 2.0]],
                 "offset": 0.0},
     "solver": "sa", "config": {"num_sweeps": 200, "seed": 7}}

**Pipeline-workload submission** — a generated join-order instance run
through :class:`~repro.pipeline.OptimizationPipeline`::

    {"workload": {"topologies": ["chain"], "sizes": [6],
                  "seed": 11, "index": 0, "formulation": "joinorder"},
     "solver": "sa", "config": {"seed": 7}}

Either shape accepts ``solver``, ``config``, ``repair``, ``priority``,
``deadline`` and a free-form ``tag``. The tag participates in the
idempotency key but **not** in the solve, so clients resubmit the same
problem under a fresh job id (which still hits the result cache —
idempotency and caching are deliberately separate layers).

Idempotency keys are content-addressed: the sha256 of the canonical
JSON body (sorted keys, minimal separators), truncated to 32 hex
chars for the public job id. Two byte-different bodies that parse to
the same JSON value land on the same job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..annealing.ising import IsingModel
from ..annealing.qubo import QUBO
from ..compile.dispatch import SolveResult, SolverConfig
from ..compile.ir import CompiledProblem, VariableRegistry
from ..pipeline.plan import json_safe
from .http import HttpError


class PayloadError(HttpError):
    """A submission body the server cannot act on (HTTP 400)."""

    def __init__(self, message: str):
        super().__init__(400, message)


#: Keys accepted at the top level of a submission body.
_SUBMISSION_KEYS = {"problem", "workload", "solver", "config", "repair",
                    "priority", "deadline", "tag"}
_PROBLEM_KEYS = {"kind", "name", "num_variables", "num_spins", "linear",
                 "quadratic", "h", "j", "offset"}
_CONFIG_KEYS = {"num_sweeps", "num_reads", "seed", "convergence",
                "options"}
_WORKLOAD_KEYS = {"topologies", "sizes", "instances_per_cell", "seed",
                  "index", "formulation"}


def canonical_body(body: Any) -> bytes:
    """The canonical JSON encoding idempotency keys are hashed over."""
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def idempotency_key(body: Any) -> str:
    """Content-addressed public job id (32 hex chars) for a body."""
    return hashlib.sha256(canonical_body(body)).hexdigest()[:32]


# -- picklable problem hooks ----------------------------------------------
# Process-mode workers require picklable problems, so the hooks are
# classes/functions at module scope, never closures.

def decode_bits(bits: Any) -> Tuple[int, ...]:
    """The generic decoder: the raw assignment as a bit tuple."""
    return tuple(int(b) for b in np.asarray(bits).reshape(-1))


def always_feasible(solution: Any) -> bool:
    """Raw-model submissions carry no domain constraints."""
    return True


class ModelEnergy:
    """Picklable score hook: the model's own energy function."""

    __slots__ = ("model",)

    def __init__(self, model: Any):
        self.model = model

    def __call__(self, solution: Any) -> float:
        bits = np.asarray(solution, dtype=float).reshape(1, -1)
        if isinstance(self.model, QUBO):
            return float(self.model.energies(bits)[0])
        spins = 2.0 * bits - 1.0
        return float(self.model.energies(spins)[0])


def _coerce_terms(value: Any, what: str) -> Dict[int, float]:
    """``{"0": -1.0}`` or ``[[0, -1.0], ...]`` -> ``{0: -1.0}``."""
    if value is None:
        return {}
    items: List[Tuple[Any, Any]]
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = []
        for entry in value:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise PayloadError(
                    f"{what} entries must be [index, coefficient] pairs")
            items.append((entry[0], entry[1]))
    else:
        raise PayloadError(f"{what} must be an object or a pair list")
    terms: Dict[int, float] = {}
    for raw_index, raw_value in items:
        try:
            index = int(raw_index)
            coefficient = float(raw_value)
        except (TypeError, ValueError):
            raise PayloadError(
                f"{what} has non-numeric entry "
                f"[{raw_index!r}, {raw_value!r}]") from None
        terms[index] = terms.get(index, 0.0) + coefficient
    return terms


def _coerce_pairs(value: Any, what: str) -> List[Tuple[int, int, float]]:
    """``[[u, v, c], ...]`` (or ``{"u,v": c}``) -> triple list."""
    if value is None:
        return []
    triples: List[Tuple[int, int, float]] = []
    if isinstance(value, dict):
        entries = []
        for key, coefficient in value.items():
            parts = str(key).replace(",", " ").split()
            if len(parts) != 2:
                raise PayloadError(
                    f"{what} object keys must look like 'u,v', "
                    f"got {key!r}")
            entries.append((parts[0], parts[1], coefficient))
    elif isinstance(value, list):
        entries = []
        for entry in value:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise PayloadError(
                    f"{what} entries must be [u, v, coefficient] triples")
            entries.append(tuple(entry))
    else:
        raise PayloadError(f"{what} must be a triple list or an object")
    for raw_u, raw_v, raw_c in entries:
        try:
            triples.append((int(raw_u), int(raw_v), float(raw_c)))
        except (TypeError, ValueError):
            raise PayloadError(
                f"{what} has non-numeric triple "
                f"[{raw_u!r}, {raw_v!r}, {raw_c!r}]") from None
    return triples


def build_problem(spec: Any) -> CompiledProblem:
    """A submission's ``problem`` object -> :class:`CompiledProblem`."""
    if not isinstance(spec, dict):
        raise PayloadError("problem must be a JSON object")
    unknown = set(spec) - _PROBLEM_KEYS
    if unknown:
        raise PayloadError(
            f"unknown problem keys: {', '.join(sorted(unknown))}")
    kind = spec.get("kind", "qubo")
    if kind not in ("qubo", "ising"):
        raise PayloadError(
            f"problem kind must be 'qubo' or 'ising', got {kind!r}")
    try:
        offset = float(spec.get("offset", 0.0))
    except (TypeError, ValueError):
        raise PayloadError("offset must be a number") from None

    if kind == "qubo":
        linear = _coerce_terms(spec.get("linear"), "linear")
        quadratic = _coerce_pairs(spec.get("quadratic"), "quadratic")
        declared = spec.get("num_variables")
        highest = max(
            [index for index in linear] +
            [max(u, v) for u, v, _ in quadratic] + [-1])
        num_variables = (int(declared) if declared is not None
                         else highest + 1)
        if num_variables < 1:
            raise PayloadError("problem declares no variables")
        if highest >= num_variables:
            raise PayloadError(
                f"term index {highest} out of range for "
                f"{num_variables} variables")
        model: Any = QUBO(num_variables, offset=offset)
        for index, coefficient in linear.items():
            model.add_linear(index, coefficient)
        for u, v, coefficient in quadratic:
            if u == v:
                model.add_linear(u, coefficient)
            else:
                model.add_quadratic(u, v, coefficient)
    else:
        h = _coerce_terms(spec.get("h"), "h")
        j = _coerce_pairs(spec.get("j"), "j")
        declared = spec.get("num_spins", spec.get("num_variables"))
        highest = max([index for index in h] +
                      [max(u, v) for u, v, _ in j] + [-1])
        num_spins = int(declared) if declared is not None else highest + 1
        if num_spins < 1:
            raise PayloadError("problem declares no spins")
        if highest >= num_spins:
            raise PayloadError(
                f"term index {highest} out of range for "
                f"{num_spins} spins")
        couplings = {}
        for u, v, coefficient in j:
            if u == v:
                raise PayloadError("j couplings must link distinct spins")
            key = (min(u, v), max(u, v))
            couplings[key] = couplings.get(key, 0.0) + coefficient
        model = IsingModel(num_spins, h=h, j=couplings, offset=offset)

    variables = VariableRegistry()
    for index in range(model.num_variables
                       if kind == "qubo" else model.num_spins):
        variables.add("x", index)
    name = spec.get("name") or f"http_{kind}"
    if not isinstance(name, str):
        raise PayloadError("problem name must be a string")
    return CompiledProblem(
        name=name,
        model=model,
        variables=variables,
        decode=decode_bits,
        score=ModelEnergy(model),
        feasible=always_feasible,
        metadata={"source": "http", "kind": kind},
    )


def build_config(spec: Any) -> SolverConfig:
    if spec is None:
        return SolverConfig()
    if not isinstance(spec, dict):
        raise PayloadError("config must be a JSON object")
    unknown = set(spec) - _CONFIG_KEYS
    if unknown:
        raise PayloadError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        return SolverConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise PayloadError(f"bad config: {exc}") from None


@dataclass
class Submission:
    """A parsed, validated ``POST /v1/jobs`` body."""

    kind: str  # "problem" | "workload"
    solver: str
    config: SolverConfig
    repair: bool
    priority: int
    deadline: Optional[float]
    tag: Optional[str]
    problem: Optional[CompiledProblem] = None
    workload_spec: Dict[str, Any] = field(default_factory=dict)


def parse_submission(body: Any) -> Submission:
    """Validate a request body into a :class:`Submission` (400 on any
    shape problem; solver-name validation happens in the service)."""
    if not isinstance(body, dict):
        raise PayloadError("submission must be a JSON object")
    unknown = set(body) - _SUBMISSION_KEYS
    if unknown:
        raise PayloadError(
            f"unknown submission keys: {', '.join(sorted(unknown))}")
    has_problem = "problem" in body
    has_workload = "workload" in body
    if has_problem == has_workload:
        raise PayloadError(
            "submission needs exactly one of 'problem' or 'workload'")

    solver = body.get("solver", "sa")
    if not isinstance(solver, str):
        raise PayloadError("solver must be a registry name string")
    config = build_config(body.get("config"))
    repair = bool(body.get("repair", False))
    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise PayloadError("priority must be an integer")
    deadline = body.get("deadline")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise PayloadError("deadline must be a number") from None
        if deadline <= 0:
            raise PayloadError("deadline must be positive")
    tag = body.get("tag")
    if tag is not None and not isinstance(tag, (str, int)):
        raise PayloadError("tag must be a string or integer")

    if has_problem:
        return Submission(
            kind="problem", solver=solver, config=config, repair=repair,
            priority=priority, deadline=deadline, tag=tag,
            problem=build_problem(body["problem"]),
        )

    spec = body["workload"]
    if not isinstance(spec, dict):
        raise PayloadError("workload must be a JSON object")
    unknown = set(spec) - _WORKLOAD_KEYS
    if unknown:
        raise PayloadError(
            f"unknown workload keys: {', '.join(sorted(unknown))}")
    return Submission(
        kind="workload", solver=solver, config=config, repair=repair,
        priority=priority, deadline=deadline, tag=tag,
        workload_spec=dict(spec),
    )


def problem_payload(problem: CompiledProblem) -> Dict[str, Any]:
    """The inverse of :func:`build_problem`: a compiled problem's model
    as a submission ``problem`` object (benchmarks and tests replay
    real compiled workloads over HTTP with it)."""
    model = problem.model
    if isinstance(model, QUBO):
        return {
            "kind": "qubo",
            "name": problem.name,
            "num_variables": model.num_variables,
            "offset": model.offset,
            "linear": {str(k): v for k, v in sorted(model.linear.items())},
            "quadratic": [[u, v, c] for (u, v), c
                          in sorted(model.quadratic.items())],
        }
    return {
        "kind": "ising",
        "name": problem.name,
        "num_spins": model.num_spins,
        "offset": model.offset,
        "h": {str(k): v for k, v in sorted(model.h.items())},
        "j": [[u, v, c] for (u, v), c in sorted(model.j.items())],
    }


def result_document(result: SolveResult) -> Dict[str, Any]:
    """A :class:`SolveResult` as the JSON document clients receive.

    Floats round-trip exactly through JSON (shortest-repr encoding),
    so equality of two result documents is the bit-for-bit parity
    check the HTTP tests and the soak bench rely on.
    """
    return {
        "problem": result.problem,
        "solver": result.solver,
        "solution": json_safe(result.solution),
        "feasible": bool(result.feasible),
        "energy": float(result.energy),
        "energies": [float(value) for value in result.energies],
        "num_reads": int(len(result.samples)),
        "num_solutions": len(result.solutions),
        "config": json_safe(result.config.to_dict()),
        "provenance": json_safe(result.provenance),
        "convergence_rows": (len(result.convergence)
                             if result.convergence is not None else 0),
    }

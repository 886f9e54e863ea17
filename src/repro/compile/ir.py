"""Problem-compilation IR: named variables plus pluggable hooks.

Every database optimization problem in this library follows one
recipe — register logical variables, add an objective, wire constraint
penalties, then decode/repair/score solver bits back into the domain.
:class:`CompiledProblem` is the intermediate representation that makes
the recipe explicit: a binary model (QUBO or Ising) paired with a
:class:`VariableRegistry` mapping logical variable names to bit
indices and the domain hooks the solver-dispatch layer needs
(``decode``, ``score``, ``feasible``, optional ``repair``).

The IR deliberately stays backend-agnostic: any solver registered in
:mod:`repro.compile.dispatch` consumes a ``CompiledProblem`` without
knowing which database problem produced it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..annealing.ising import IsingModel
from ..annealing.qubo import QUBO

Model = Union[QUBO, IsingModel]
VariableName = Tuple[Any, ...]


class VariableRegistry:
    """Bidirectional map between logical variable names and bit indices.

    Names are tuples such as ``("x", relation, position)``; indices are
    assigned densely in registration order, so the registry also fixes
    the bit layout of the compiled model.
    """

    def __init__(self) -> None:
        self._names: List[VariableName] = []
        self._indices: Dict[VariableName, int] = {}

    def add(self, *name: Any) -> int:
        """Register a logical variable; returns its bit index."""
        if not name:
            raise ValueError("variable name must be non-empty")
        if name in self._indices:
            raise ValueError(f"variable {name!r} registered twice")
        index = len(self._names)
        self._names.append(name)
        self._indices[name] = index
        return index

    def index(self, *name: Any) -> int:
        """Bit index of a registered variable."""
        try:
            return self._indices[name]
        except KeyError:
            raise KeyError(
                f"unknown variable {name!r}; registry holds "
                f"{len(self._names)} variables"
            ) from None

    def name(self, index: int) -> VariableName:
        """Logical name of a bit index."""
        if not 0 <= index < len(self._names):
            raise IndexError(
                f"variable index {index} out of range "
                f"[0, {len(self._names)})"
            )
        return self._names[index]

    def group(self, *prefix: Any) -> List[int]:
        """Indices of all variables whose name starts with ``prefix``."""
        k = len(prefix)
        return [
            i for i, name in enumerate(self._names) if name[:k] == prefix
        ]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: VariableName) -> bool:
        return tuple(name) in self._indices

    def __iter__(self) -> Iterator[VariableName]:
        return iter(self._names)

    def __repr__(self) -> str:
        return f"VariableRegistry(num_variables={len(self._names)})"


def check_bits(bits: Sequence[int], num_variables: int) -> np.ndarray:
    """Validate and flatten a solver assignment.

    The single audited implementation of the ``expected N bits`` check
    every formulation's decoder used to duplicate.
    """
    array = np.asarray(bits).reshape(-1)
    if array.size != num_variables:
        raise ValueError(
            f"expected {num_variables} bits, got {array.size}"
        )
    return array


@dataclass
class CompiledProblem:
    """A database problem lowered to a binary model plus domain hooks.

    Parameters
    ----------
    name:
        Problem-family identifier (``"join_order"``, ``"mqo"``, ...),
        used in telemetry counter names and provenance records.
    model:
        The binary objective: a :class:`~repro.annealing.qubo.QUBO` or
        :class:`~repro.annealing.ising.IsingModel`. Solvers minimize.
    variables:
        Registry fixing the logical-name -> bit-index layout.
    decode:
        Bits -> domain solution (applies the formulation's built-in
        per-read repair, e.g. one-hot fixing).
    score:
        Domain solution -> comparable score (float or tuple); *lower*
        is better. The dispatch layer picks the best decoded read with
        a strict ``<`` comparison, so ties keep the earliest
        (lowest-energy) read.
    feasible:
        Domain solution -> whether all hard constraints hold.
    repair:
        Optional stronger repair applied only when ``solve(...,
        repair=True)`` asks for it (e.g. re-slotting conflicting
        transactions). ``None`` means decode's repair is already
        complete.
    metadata:
        Free-form compilation facts (penalty weights, scales, slack
        layout) for audits and tests.
    """

    name: str
    model: Model
    variables: VariableRegistry
    decode: Callable[[np.ndarray], Any]
    score: Callable[[Any], Any]
    feasible: Callable[[Any], bool]
    repair: Optional[Callable[[Any], Any]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Lazily memoized :meth:`content_key` digest. The solve service
    #: hashes every seeded submission for its cache key and coalescing
    #: map, often the same problem object many times (resubmissions,
    #: several seeds of one model); recomputing a sha256 over the full
    #: term set per lookup would dominate small problems.
    _content_key_cache: Optional[str] = field(default=None, repr=False,
                                              compare=False)

    @property
    def num_variables(self) -> int:
        if isinstance(self.model, QUBO):
            return self.model.num_variables
        return self.model.num_spins

    def content_key(self) -> str:
        """Deterministic, process-stable content hash of the problem.

        The key covers everything that determines what a solver
        computes: the problem-family name, the model kind, the variable
        count, the offset and every nonzero term (linear and quadratic
        / field and coupling) in canonical index order with exact IEEE
        float bytes. It deliberately excludes the domain hooks and
        metadata — two compilations of the same instance hash equal
        even though their closures are distinct objects.

        Unlike ``hash()`` or ``repr()`` of arrays, the digest is stable
        across processes and interpreter runs (no ``PYTHONHASHSEED``
        dependence, no ``id()`` leakage), which is what lets the solve
        service's result cache and request coalescer key on it.

        The digest is memoized on first call: compiled problems are
        treated as immutable by every consumer (mutating ``model``
        after ``compile()`` voids all guarantees anyway), and the
        service may hash one problem object for many submissions.
        """
        if self._content_key_cache is not None:
            return self._content_key_cache
        digest = hashlib.sha256()

        def put_float(value: float) -> None:
            # Normalize -0.0 to 0.0: both evaluate identically in every
            # energy function, so they must hash identically too.
            value = float(value)
            if value == 0.0:
                value = 0.0
            digest.update(struct.pack("<d", value))

        digest.update(self.name.encode("utf-8"))
        digest.update(b"\x00")
        model = self.model
        digest.update(type(model).__name__.encode("ascii"))
        digest.update(struct.pack("<q", self.num_variables))
        put_float(model.offset)
        if isinstance(model, QUBO):
            terms = {**{(u, u): c for u, c in model.linear.items()},
                     **model.quadratic}
            for (u, v), coefficient in sorted(terms.items()):
                if coefficient != 0.0:
                    digest.update(struct.pack("<qq", u, v))
                    put_float(coefficient)
        else:
            for spin, value in sorted(model.h.items()):
                if value != 0.0:
                    digest.update(struct.pack("<q", spin))
                    put_float(value)
            digest.update(b"\x01")
            for (a, b), value in sorted(model.j.items()):
                if value != 0.0:
                    digest.update(struct.pack("<qq", a, b))
                    put_float(value)
        self._content_key_cache = digest.hexdigest()
        return self._content_key_cache

    def energy(self, bits: Sequence[int]) -> float:
        """Model energy of a binary assignment (Ising takes bits too)."""
        array = check_bits(bits, self.num_variables)
        if isinstance(self.model, QUBO):
            return self.model.energy(array)
        spins = 2 * array.astype(float) - 1.0
        return float(self.model.energies(spins[None, :])[0])

    def __repr__(self) -> str:
        kind = type(self.model).__name__
        return (
            f"CompiledProblem(name={self.name!r}, model={kind}, "
            f"num_variables={self.num_variables})"
        )

"""Pauli-string observables and Hamiltonians.

:class:`PauliString` is a tensor product of single-qubit Paulis with a
real or complex coefficient, written as a label such as ``"ZZI"`` (qubit
0 first, matching the simulator's big-endian convention).
:class:`PauliSum` is a linear combination of Pauli strings — the
observable type consumed by the simulators, the QML models and QAOA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

import numpy as np

from .gates import I2, PAULI_X, PAULI_Y, PAULI_Z

_PAULI_MATRICES = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
_VALID = frozenset("IXYZ")
_DIAGONAL = frozenset("IZ")
_SIGNS = {"I": np.array([1.0, 1.0]), "Z": np.array([1.0, -1.0])}


def _z_signs(label: str) -> np.ndarray:
    """The diagonal of an ``I``/``Z`` string: ``-1`` where an odd number
    of its ``Z`` qubits are set, qubit 0 the most significant bit."""
    signs = np.ones(1)
    for char in label:
        signs = (signs[:, None] * _SIGNS[char]).reshape(-1)
    return signs


@dataclass(frozen=True)
class PauliString:
    """A weighted Pauli tensor product, e.g. ``0.5 * XZI``."""

    label: str
    coefficient: complex = 1.0

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")
        bad = set(self.label) - _VALID
        if bad:
            raise ValueError(f"invalid Pauli characters: {sorted(bad)}")

    @property
    def num_qubits(self) -> int:
        return len(self.label)

    @property
    def is_identity(self) -> bool:
        return set(self.label) == {"I"}

    def support(self) -> Tuple[int, ...]:
        """Qubits on which the string acts non-trivially."""
        return tuple(i for i, c in enumerate(self.label) if c != "I")

    def matrix(self) -> np.ndarray:
        """Dense matrix of the full string (exponential in qubits)."""
        out = np.array([[self.coefficient]], dtype=complex)
        for char in self.label:
            out = np.kron(out, _PAULI_MATRICES[char])
        return out

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Apply the string to a statevector in ``O(2**n)`` per factor.

        A ``(batch, 2**n)`` stack is transformed row by row in one
        batched contraction per factor. A string of ``I`` and ``Z``
        factors only is diagonal: it is one multiply by its ``±1`` sign
        per basis state, equal bit for bit to applying the factors.
        """
        from .statevector import apply_matrix, apply_matrix_batch

        n = self.num_qubits
        out = np.asarray(state, dtype=complex)
        if _DIAGONAL.issuperset(self.label):
            return self.coefficient * (out * _z_signs(self.label))
        apply = apply_matrix if out.ndim == 1 else apply_matrix_batch
        for qubit, char in enumerate(self.label):
            if char != "I":
                out = apply(out, _PAULI_MATRICES[char], (qubit,), n)
        return self.coefficient * out

    def expectation(self, state: np.ndarray) -> Union[float, np.ndarray]:
        """Expectation ``<psi|P|psi>`` (real part; imaginary is ~0).

        A ``(batch, 2**n)`` stack gives one value per row.
        """
        if np.ndim(state) == 1:
            return float(np.vdot(state, self.apply(state)).real)
        states = np.asarray(state, dtype=complex)
        return np.einsum("ij,ij->i", states.conj(), self.apply(states)).real

    def __mul__(self, scalar: complex) -> "PauliString":
        return PauliString(self.label, self.coefficient * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{self.coefficient:g} * {self.label}"


def single_z(qubit: int, num_qubits: int, coefficient: complex = 1.0
             ) -> PauliString:
    """Convenience: the ``Z`` observable on one qubit."""
    label = "".join("Z" if i == qubit else "I" for i in range(num_qubits))
    return PauliString(label, coefficient)


def zz(qubit_a: int, qubit_b: int, num_qubits: int,
       coefficient: complex = 1.0) -> PauliString:
    """Convenience: ``Z_a Z_b`` coupling term."""
    if qubit_a == qubit_b:
        raise ValueError("qubits must differ")
    label = "".join(
        "Z" if i in (qubit_a, qubit_b) else "I" for i in range(num_qubits)
    )
    return PauliString(label, coefficient)


class PauliSum:
    """A linear combination of Pauli strings on a common qubit count."""

    def __init__(self, terms: Iterable[PauliString] = ()):
        self.terms: List[PauliString] = list(terms)
        if self.terms:
            n = self.terms[0].num_qubits
            for t in self.terms:
                if t.num_qubits != n:
                    raise ValueError(
                        "all terms must act on the same number of qubits"
                    )

    @property
    def num_qubits(self) -> int:
        if not self.terms:
            raise ValueError("empty PauliSum has no qubit count")
        return self.terms[0].num_qubits

    def add(self, term: PauliString) -> "PauliSum":
        """Append a term (in place) and return self."""
        if self.terms and term.num_qubits != self.num_qubits:
            raise ValueError("term qubit count mismatch")
        self.terms.append(term)
        return self

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + list(other.terms))

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum([t * scalar for t in self.terms])

    __rmul__ = __mul__

    def simplify(self, atol: float = 1e-12) -> "PauliSum":
        """Merge equal labels and drop negligible coefficients."""
        merged: Dict[str, complex] = {}
        for t in self.terms:
            merged[t.label] = merged.get(t.label, 0.0) + t.coefficient
        return PauliSum(
            PauliString(label, coeff)
            for label, coeff in merged.items()
            if abs(coeff) > atol
        )

    def matrix(self) -> np.ndarray:
        """Dense matrix (exponential in qubits; testing only)."""
        if not self.terms:
            raise ValueError("empty PauliSum")
        dim = 2 ** self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for t in self.terms:
            out += t.matrix()
        return out

    def expectation(self, state: np.ndarray,
                    num_qubits: int) -> Union[float, np.ndarray]:
        """Expectation value against a statevector.

        A ``(batch, 2**n)`` stack gives one value per row.
        """
        if self.terms and self.num_qubits != num_qubits:
            raise ValueError("observable qubit count mismatch")
        if np.ndim(state) == 1:
            return float(sum(t.expectation(state) for t in self.terms))
        values = np.zeros(len(state))
        for t in self.terms:
            values += t.expectation(state)
        return values

    def expectation_from_counts(self, counts: Mapping[str, int]) -> float:
        """Estimate the expectation from Z-basis measurement counts.

        Only valid when every term is diagonal (labels over ``I`` and
        ``Z``), which covers Ising Hamiltonians and the parity readouts
        the QML models use with shots.
        """
        for t in self.terms:
            if set(t.label) - {"I", "Z"}:
                raise ValueError(
                    f"term {t.label} is not diagonal in the Z basis"
                )
        total_shots = sum(counts.values())
        if total_shots == 0:
            raise ValueError("empty counts")
        value = 0.0
        for bitstring, freq in counts.items():
            weight = freq / total_shots
            for t in self.terms:
                sign = 1.0
                for char, bit in zip(t.label, bitstring):
                    if char == "Z" and bit == "1":
                        sign = -sign
                value += weight * t.coefficient.real * sign
        return value

    def __repr__(self) -> str:
        if not self.terms:
            return "PauliSum([])"
        return " + ".join(repr(t) for t in self.terms)


def ising_hamiltonian(linear: Mapping[int, float],
                      quadratic: Mapping[Tuple[int, int], float],
                      num_qubits: int,
                      constant: float = 0.0) -> PauliSum:
    """Build ``H = const + sum h_i Z_i + sum J_ij Z_i Z_j`` as a PauliSum.

    This is the bridge from :class:`repro.annealing.ising.IsingModel`
    to the gate-model solvers (QAOA, exact diagonalization).
    """
    out = PauliSum()
    if constant:
        out.add(PauliString("I" * num_qubits, constant))
    for qubit, h in linear.items():
        if h:
            out.add(single_z(qubit, num_qubits, h))
    for (a, b), j in quadratic.items():
        if j:
            out.add(zz(a, b, num_qubits, j))
    return out

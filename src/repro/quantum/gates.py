"""Quantum gate library.

Every gate used anywhere in the library is defined here, either as a
fixed unitary matrix (:data:`FIXED_GATES`) or as a factory mapping
parameter values to a unitary (:data:`PARAMETRIC_GATES`).

Conventions
-----------
* Matrices act on column statevectors in the computational basis.
* For multi-qubit gates the first qubit passed to the circuit is the
  most significant bit of the matrix index (big-endian within the gate).
* All parametric rotation gates are of the form
  ``exp(-i * theta / 2 * G)`` for a Hermitian generator ``G`` with
  eigenvalues +-1, which is exactly the family covered by the two-term
  parameter-shift rule used in :mod:`repro.qml.gradients`.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

Matrix = np.ndarray

_SQRT2 = math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_GATE = np.array([[1, 0], [0, -1j]], dtype=complex)
T_GATE = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
TDG_GATE = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)
SX_GATE = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]],
    dtype=complex,
)
ISWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1j, 0],
     [0, 1j, 0, 0],
     [0, 0, 0, 1]],
    dtype=complex,
)
TOFFOLI = np.eye(8, dtype=complex)
TOFFOLI[[6, 7], :] = TOFFOLI[[7, 6], :]
FREDKIN = np.eye(8, dtype=complex)
FREDKIN[[5, 6], :] = FREDKIN[[6, 5], :]


def rx_matrix(theta: float) -> Matrix:
    """Rotation about the X axis: ``exp(-i theta X / 2)``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> Matrix:
    """Rotation about the Y axis: ``exp(-i theta Y / 2)``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> Matrix:
    """Rotation about the Z axis: ``exp(-i theta Z / 2)``."""
    phase = cmath.exp(-1j * theta / 2.0)
    return np.array([[phase, 0], [0, phase.conjugate()]], dtype=complex)


def phase_matrix(lam: float) -> Matrix:
    """Diagonal phase gate ``diag(1, exp(i lam))``."""
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def u3_matrix(theta: float, phi: float, lam: float) -> Matrix:
    """Generic single-qubit unitary in the standard U3 parameterization."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s],
         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


def crx_matrix(theta: float) -> Matrix:
    """Controlled-RX (control is the first / most significant qubit)."""
    return _controlled(rx_matrix(theta))


def cry_matrix(theta: float) -> Matrix:
    """Controlled-RY."""
    return _controlled(ry_matrix(theta))


def crz_matrix(theta: float) -> Matrix:
    """Controlled-RZ."""
    return _controlled(rz_matrix(theta))


def cphase_matrix(lam: float) -> Matrix:
    """Controlled phase gate ``diag(1, 1, 1, exp(i lam))``."""
    return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * lam)]).astype(complex)


def rxx_matrix(theta: float) -> Matrix:
    """Two-qubit XX interaction: ``exp(-i theta XX / 2)``."""
    return _two_qubit_rotation(np.kron(PAULI_X, PAULI_X), theta)


def ryy_matrix(theta: float) -> Matrix:
    """Two-qubit YY interaction: ``exp(-i theta YY / 2)``."""
    return _two_qubit_rotation(np.kron(PAULI_Y, PAULI_Y), theta)


def rzz_matrix(theta: float) -> Matrix:
    """Two-qubit ZZ interaction: ``exp(-i theta ZZ / 2)``.

    An Ising coupling term as a gate; ``qaoa_circuit`` builds its cost
    layers from these.
    """
    return _two_qubit_rotation(np.kron(PAULI_Z, PAULI_Z), theta)


def _two_qubit_rotation(generator: Matrix, theta: float) -> Matrix:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return c * np.eye(4, dtype=complex) - 1j * s * generator


def _controlled(unitary: Matrix) -> Matrix:
    dim = unitary.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = unitary
    return out


def controlled(unitary: Matrix, num_controls: int = 1) -> Matrix:
    """Return the controlled version of an arbitrary unitary.

    Controls are prepended as the most significant qubits.
    """
    if num_controls < 1:
        raise ValueError("num_controls must be >= 1")
    out = np.asarray(unitary, dtype=complex)
    for _ in range(num_controls):
        out = _controlled(out)
    return out


#: Fixed (non-parametric) gates, keyed by lowercase name.
FIXED_GATES: Dict[str, Matrix] = {
    "i": I2,
    "x": PAULI_X,
    "y": PAULI_Y,
    "z": PAULI_Z,
    "h": HADAMARD,
    "s": S_GATE,
    "sdg": SDG_GATE,
    "t": T_GATE,
    "tdg": TDG_GATE,
    "sx": SX_GATE,
    "cx": CNOT,
    "cz": CZ,
    "swap": SWAP,
    "iswap": ISWAP,
    "ccx": TOFFOLI,
    "cswap": FREDKIN,
}

#: Parametric gate factories, keyed by lowercase name.
PARAMETRIC_GATES: Dict[str, Callable[..., Matrix]] = {
    "rx": rx_matrix,
    "ry": ry_matrix,
    "rz": rz_matrix,
    "p": phase_matrix,
    "u3": u3_matrix,
    "crx": crx_matrix,
    "cry": cry_matrix,
    "crz": crz_matrix,
    "cp": cphase_matrix,
    "rxx": rxx_matrix,
    "ryy": ryy_matrix,
    "rzz": rzz_matrix,
}

#: Number of qubits each gate acts on.
GATE_ARITY: Dict[str, int] = {
    "i": 1, "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1,
    "t": 1, "tdg": 1, "sx": 1, "rx": 1, "ry": 1, "rz": 1, "p": 1,
    "u3": 1,
    "cx": 2, "cz": 2, "swap": 2, "iswap": 2, "crx": 2, "cry": 2,
    "crz": 2, "cp": 2, "rxx": 2, "ryy": 2, "rzz": 2,
    "ccx": 3, "cswap": 3,
}

#: Number of scalar parameters each parametric gate takes.
GATE_NUM_PARAMS: Dict[str, int] = {
    name: 0 for name in FIXED_GATES
}
GATE_NUM_PARAMS.update({
    "rx": 1, "ry": 1, "rz": 1, "p": 1, "u3": 3,
    "crx": 1, "cry": 1, "crz": 1, "cp": 1,
    "rxx": 1, "ryy": 1, "rzz": 1,
})

#: Gates whose single parameter obeys the exact two-term shift rule.
SHIFT_RULE_GATES = frozenset({"rx", "ry", "rz", "rxx", "ryy", "rzz"})

#: Gates whose matrix is diagonal in the computational basis. The
#: batched simulator applies these as elementwise phase multiplications
#: instead of tensor contractions.
DIAGONAL_GATES = frozenset(
    {"i", "z", "s", "sdg", "t", "tdg", "cz", "rz", "p", "cp", "crz", "rzz"}
)

#: Gates whose matrix permutes the computational basis. The batched
#: simulator applies these as row gathers, with no arithmetic.
PERMUTATION_GATES = frozenset({"x", "cx", "swap", "ccx", "cswap"})


@lru_cache(maxsize=4096)
def _cached_gate_matrix(key: str, params: Tuple[float, ...]) -> Matrix:
    """Memoized gate resolution; returns a read-only array.

    Keyed by ``(name, params)`` so repeated evaluations of the same
    bound circuit (gradient shifts, kernel rows, batched runs) reuse
    one matrix object instead of rebuilding it per call.
    """
    if key in FIXED_GATES:
        matrix = FIXED_GATES[key]
    else:
        matrix = PARAMETRIC_GATES[key](*params)
    matrix.setflags(write=False)
    return matrix


def gate_matrix(name: str, params: Sequence[float] = ()) -> Matrix:
    """Resolve a gate name plus parameter values to its unitary matrix.

    The result is cached (LRU, keyed by name and parameter values) and
    returned read-only; copy before mutating.

    Raises
    ------
    KeyError
        If the gate name is unknown.
    ValueError
        If the wrong number of parameters is supplied.
    """
    key = name.lower()
    expected = GATE_NUM_PARAMS.get(key)
    if expected is None:
        raise KeyError(f"unknown gate {name!r}")
    if len(params) != expected:
        raise ValueError(
            f"gate {name!r} takes {expected} parameter(s), got {len(params)}"
        )
    return _cached_gate_matrix(key, tuple(float(p) for p in params))


def gate_diagonal(name: str, params: Sequence[float] = ()) -> Optional[Matrix]:
    """Diagonal of a gate's matrix, or ``None`` for non-diagonal gates."""
    key = name.lower()
    if key not in DIAGONAL_GATES:
        return None
    return np.ascontiguousarray(np.diagonal(gate_matrix(key, params)))


def _batch_rz_diagonal(theta: np.ndarray) -> np.ndarray:
    phase = np.exp(-0.5j * theta)
    return np.stack([phase, phase.conj()], axis=1)


def _batch_p_diagonal(lam: np.ndarray) -> np.ndarray:
    ones = np.ones_like(lam, dtype=complex)
    return np.stack([ones, np.exp(1j * lam)], axis=1)


def _batch_cp_diagonal(lam: np.ndarray) -> np.ndarray:
    ones = np.ones_like(lam, dtype=complex)
    return np.stack([ones, ones, ones, np.exp(1j * lam)], axis=1)


def _batch_crz_diagonal(theta: np.ndarray) -> np.ndarray:
    ones = np.ones_like(theta, dtype=complex)
    phase = np.exp(-0.5j * theta)
    return np.stack([ones, ones, phase, phase.conj()], axis=1)


def _batch_rzz_diagonal(theta: np.ndarray) -> np.ndarray:
    phase = np.exp(-0.5j * theta)
    return np.stack([phase, phase.conj(), phase.conj(), phase], axis=1)


_BATCH_DIAGONALS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "rz": _batch_rz_diagonal,
    "p": _batch_p_diagonal,
    "cp": _batch_cp_diagonal,
    "crz": _batch_crz_diagonal,
    "rzz": _batch_rzz_diagonal,
}


def _batch_rx_matrix(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty((theta.size, 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = -1j * s
    out[:, 1, 0] = -1j * s
    out[:, 1, 1] = c
    return out


def _batch_ry_matrix(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty((theta.size, 2, 2), dtype=complex)
    out[:, 0, 0] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 1, 1] = c
    return out


_BATCH_MATRICES: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "rx": _batch_rx_matrix,
    "ry": _batch_ry_matrix,
}


def batch_gate_diagonal(name: str,
                        params: np.ndarray) -> Optional[np.ndarray]:
    """Stacked diagonals ``(batch, 2**k)`` for a one-parameter diagonal
    gate evaluated at many parameter values, or ``None`` if the gate is
    not diagonal. ``params`` has shape ``(batch,)`` or ``(batch, 1)``.
    """
    key = name.lower()
    builder = _BATCH_DIAGONALS.get(key)
    if builder is not None:
        return builder(np.asarray(params, dtype=float).reshape(-1))
    if key in DIAGONAL_GATES:  # fixed diagonal gate: broadcast one copy
        rows = np.asarray(params).shape[0]
        return np.broadcast_to(gate_diagonal(key), (rows, 2 ** GATE_ARITY[key]))
    return None


def batch_gate_matrix(name: str, params: np.ndarray) -> np.ndarray:
    """Stacked unitaries ``(batch, 2**k, 2**k)`` for one gate at many
    parameter values. Vectorized for the common rotation gates; other
    gates fall back to stacking cached per-value matrices.
    """
    key = name.lower()
    params = np.atleast_2d(np.asarray(params, dtype=float))
    builder = _BATCH_MATRICES.get(key)
    if builder is not None:
        return builder(params[:, 0])
    return np.stack([
        _cached_gate_matrix(key, tuple(row)) for row in params
    ])


def is_unitary(matrix: Matrix, atol: float = 1e-10) -> bool:
    """Check whether a matrix is unitary within tolerance."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))

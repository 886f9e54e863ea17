"""Classical-data-to-quantum-state encodings.

The tutorial's foundations section presents four standard encodings,
all implemented here behind one interface:

* :class:`BasisEncoding` — bit strings to computational basis states.
* :class:`AngleEncoding` — one feature per qubit as a rotation angle.
* :class:`IQPEncoding` — diagonal-interaction feature map (the circuit
  family behind quantum-kernel methods), with repeatable depth.
* :class:`AmplitudeEncoding` — ``2**n`` features in state amplitudes,
  prepared with the Möttönen uniformly-controlled-rotation scheme.

Every encoding builds a bound :class:`~repro.quantum.Circuit` from a
feature vector via :meth:`Encoding.circuit`, and can also return the
encoded statevector directly via :meth:`Encoding.state` (simulated by
default, exact for amplitude encoding). Angle and IQP encodings emit
the same gates for every row, only the angles differ, so they also
have a batch form: one :meth:`Encoding.template` circuit and the
``(rows, slots)`` :meth:`Encoding.angle_matrix` of every row's angles.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..quantum.circuit import Circuit
from ..quantum.statevector import StatevectorSimulator


class Encoding(ABC):
    """Interface: a fixed-width feature map from R^d to n-qubit states."""

    #: number of classical features consumed per data point
    num_features: int
    #: number of qubits in the encoded state
    num_qubits: int

    @abstractmethod
    def circuit(self, x: Sequence[float]) -> Circuit:
        """Bound circuit preparing ``|phi(x)>`` from ``|0...0>``."""

    def state(self, x: Sequence[float]) -> np.ndarray:
        """The encoded statevector (default: simulate the circuit)."""
        return StatevectorSimulator().run(self.circuit(x))

    def template(self) -> Optional[Circuit]:
        """The circuit every row shares up to its gate angles.

        Row ``x``'s circuit is this template with its angles replaced
        by ``angle_matrix([x])[0]``. ``None`` (the default) when the
        gates themselves depend on the row; such encodings are run one
        circuit per row.
        """
        return None

    def angle_matrix(self, X: np.ndarray) -> np.ndarray:
        """Gate angles of every row's circuit, ``(rows, slots)``.

        Equal to :func:`~repro.quantum.statevector.gate_angles` of
        ``[self.circuit(x) for x in X]``, computed without building
        the circuits. Only encodings with a :meth:`template` have it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no fixed template"
        )

    def state_batch(self, X: np.ndarray) -> np.ndarray:
        """Encoded statevectors for every row of X, ``(batch, 2**n)``.

        Encodings with a :meth:`template` run it once over the
        :meth:`angle_matrix` of all rows
        (:meth:`StatevectorSimulator.run_angles`); the others route
        one circuit per row through
        :meth:`StatevectorSimulator.run_batch`. Subclasses with a
        closed form override this entirely.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("state_batch needs at least one data point")
        template = self.template()
        if template is not None:
            return StatevectorSimulator().run_angles(
                template, self.angle_matrix(X))
        circuits = [self.circuit(x) for x in X]
        return StatevectorSimulator().run_batch(circuits)

    def _validate(self, x: Sequence[float]) -> np.ndarray:
        vec = np.asarray(x, dtype=float).reshape(-1)
        if vec.size != self.num_features:
            raise ValueError(
                f"{type(self).__name__} expects {self.num_features} "
                f"features, got {vec.size}"
            )
        return vec

    def _validate_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValueError(
                f"{type(self).__name__} expects {self.num_features} "
                f"features, got {X.shape[-1]}"
            )
        return X


class BasisEncoding(Encoding):
    """Encode a bit vector as the matching computational basis state."""

    def __init__(self, num_bits: int):
        if num_bits < 1:
            raise ValueError("num_bits must be positive")
        self.num_features = num_bits
        self.num_qubits = num_bits

    def circuit(self, x: Sequence[float]) -> Circuit:
        bits = self._validate(x)
        if not np.isin(bits, (0.0, 1.0)).all():
            raise ValueError("basis encoding requires 0/1 features")
        qc = Circuit(self.num_qubits)
        for qubit, bit in enumerate(bits):
            if bit == 1.0:
                qc.x(qubit)
        return qc

    def state_batch(self, X: np.ndarray) -> np.ndarray:
        """Closed form: one-hot rows at each bit pattern's index."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("state_batch needs at least one data point")
        X = self._validate_batch(X)
        if not np.isin(X, (0.0, 1.0)).all():
            raise ValueError("basis encoding requires 0/1 features")
        weights = 1 << np.arange(self.num_qubits - 1, -1, -1)
        indices = (X.astype(int) * weights).sum(axis=1)
        states = np.zeros((X.shape[0], 2 ** self.num_qubits), dtype=complex)
        states[np.arange(X.shape[0]), indices] = 1.0
        return states


class AngleEncoding(Encoding):
    """One feature per qubit: ``R(x_i)`` on qubit i, optional CX chain.

    Parameters
    ----------
    num_features:
        Number of features = number of qubits.
    rotation:
        Which rotation axis carries the data: ``"rx"``, ``"ry"``
        or ``"rz"`` (``rz`` is preceded by an H so the data is not a
        global phase).
    entangle:
        If true, append a nearest-neighbour CX chain after the
        rotations, giving the encoded states entanglement structure.
    scaling:
        Features are multiplied by this factor before use; the common
        choice pi keeps [0, 1]-normalized data within one period.
    """

    _ROTATIONS = ("rx", "ry", "rz")

    def __init__(self, num_features: int, rotation: str = "ry",
                 entangle: bool = False, scaling: float = 1.0):
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if rotation not in self._ROTATIONS:
            raise ValueError(f"rotation must be one of {self._ROTATIONS}")
        self.num_features = num_features
        self.num_qubits = num_features
        self.rotation = rotation
        self.entangle = entangle
        self.scaling = float(scaling)

    def circuit(self, x: Sequence[float]) -> Circuit:
        vec = self._validate(x) * self.scaling
        qc = Circuit(self.num_qubits)
        for qubit, value in enumerate(vec):
            if self.rotation == "rz":
                qc.h(qubit)
            qc.append(self.rotation, [qubit], [float(value)])
        if self.entangle:
            for qubit in range(self.num_qubits - 1):
                qc.cx(qubit, qubit + 1)
        return qc

    def template(self) -> Circuit:
        return self.circuit(np.zeros(self.num_features))

    def angle_matrix(self, X: np.ndarray) -> np.ndarray:
        """``X * scaling``: one rotation angle per feature."""
        return self._validate_batch(X) * self.scaling


class IQPEncoding(Encoding):
    """Instantaneous-quantum-polynomial feature map.

    Each repetition applies H on every qubit, single-qubit phases
    ``RZ(scaling * x_i)`` and pairwise interactions
    ``RZZ(scaling * x_i * x_j)`` on neighbouring (or all) pairs. This is
    the feature-map family conjectured hard to simulate classically and
    is the default kernel circuit in experiment E3.
    """

    def __init__(self, num_features: int, depth: int = 2,
                 full_entanglement: bool = False, scaling: float = 1.0):
        if num_features < 1:
            raise ValueError("num_features must be positive")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.num_features = num_features
        self.num_qubits = num_features
        self.depth = depth
        self.full_entanglement = full_entanglement
        self.scaling = float(scaling)

    def _pairs(self) -> Sequence[Tuple[int, int]]:
        n = self.num_qubits
        if self.full_entanglement:
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        return [(i, i + 1) for i in range(n - 1)]

    def circuit(self, x: Sequence[float]) -> Circuit:
        vec = self._validate(x) * self.scaling
        qc = Circuit(self.num_qubits)
        for _ in range(self.depth):
            for qubit in range(self.num_qubits):
                qc.h(qubit)
            for qubit, value in enumerate(vec):
                qc.rz(float(value), qubit)
            for a, b in self._pairs():
                qc.rzz(float(vec[a] * vec[b]), a, b)
        return qc

    def template(self) -> Circuit:
        return self.circuit(np.zeros(self.num_features))

    def angle_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per repetition: the scaled features, then their pair products."""
        scaled = self._validate_batch(X) * self.scaling
        a, b = np.array(self._pairs(), dtype=int).reshape(-1, 2).T
        layer = np.hstack([scaled, scaled[:, a] * scaled[:, b]])
        return np.tile(layer, (1, self.depth))


class AmplitudeEncoding(Encoding):
    """Pack up to ``2**n`` real features into state amplitudes.

    The input vector is zero-padded to the next power of two and
    normalized; signs are preserved. :meth:`circuit` emits the Möttönen
    state-preparation network (uniformly controlled RY rotations
    decomposed into single-qubit RY and CX via the Gray-code walk),
    while :meth:`state` returns the exact amplitudes directly.
    """

    def __init__(self, num_features: int):
        if num_features < 2:
            raise ValueError("amplitude encoding needs >= 2 features")
        self.num_features = num_features
        self.num_qubits = max(1, math.ceil(math.log2(num_features)))

    def state(self, x: Sequence[float]) -> np.ndarray:
        vec = self._validate(x)
        padded = np.zeros(2 ** self.num_qubits)
        padded[: vec.size] = vec
        norm = np.linalg.norm(padded)
        if norm == 0:
            raise ValueError("cannot amplitude-encode the zero vector")
        return (padded / norm).astype(complex)

    def state_batch(self, X: np.ndarray) -> np.ndarray:
        """Closed form: pad and normalize all rows in one pass."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("state_batch needs at least one data point")
        X = self._validate_batch(X)
        padded = np.zeros((X.shape[0], 2 ** self.num_qubits))
        padded[:, : X.shape[1]] = X
        norms = np.linalg.norm(padded, axis=1, keepdims=True)
        if (norms == 0).any():
            raise ValueError("cannot amplitude-encode the zero vector")
        return (padded / norms).astype(complex)

    def circuit(self, x: Sequence[float]) -> Circuit:
        amplitudes = self.state(x).real
        return mottonen_state_preparation(amplitudes)


def mottonen_state_preparation(amplitudes: Sequence[float]) -> Circuit:
    """Exact state preparation for a real amplitude vector.

    Implements Möttönen et al. (2004): a cascade of uniformly
    controlled RY rotations, one per qubit level, each decomposed into
    ``2**k`` plain RY rotations interleaved with CX gates following the
    Gray code. Handles arbitrary signs; requires a normalized vector of
    power-of-two length.
    """
    amps = np.asarray(amplitudes, dtype=float).reshape(-1)
    n = int(round(math.log2(amps.size)))
    if 2 ** n != amps.size:
        raise ValueError("amplitude vector length must be a power of two")
    if not math.isclose(float(np.linalg.norm(amps)), 1.0, abs_tol=1e-9):
        raise ValueError("amplitude vector must be normalized")
    qc = Circuit(max(n, 1))
    if n == 0:
        return qc
    for level in range(n):
        alphas = _rotation_angles(amps, level, n)
        _apply_uniformly_controlled_ry(
            qc, alphas, controls=list(range(level)), target=level
        )
    return qc


def _rotation_angles(amps: np.ndarray, level: int, n: int) -> np.ndarray:
    """RY angles for one tree level of the Möttönen construction.

    At ``level`` the vector is viewed as ``2**level`` blocks; each block
    splits into a left and right half and the angle steers the norm from
    left to right. Signs are resolved at the leaf level (blocks of 2)
    via ``atan2``, which is what makes negative amplitudes exact.
    """
    num_blocks = 2 ** level
    block = amps.size // num_blocks
    half = block // 2
    angles = np.zeros(num_blocks)
    for b in range(num_blocks):
        left = amps[b * block: b * block + half]
        right = amps[b * block + half: (b + 1) * block]
        if half == 1:
            angles[b] = 2.0 * math.atan2(float(right[0]), float(left[0]))
        else:
            norm_left = float(np.linalg.norm(left))
            norm_right = float(np.linalg.norm(right))
            angles[b] = 2.0 * math.atan2(norm_right, norm_left)
    return angles


def _apply_uniformly_controlled_ry(qc: Circuit, alphas: np.ndarray,
                                   controls: Sequence[int],
                                   target: int) -> None:
    """Multiplexed RY: rotation ``alphas[pattern]`` for each control
    pattern, decomposed into RY/CX pairs along the Gray-code walk."""
    k = len(controls)
    if k == 0:
        if abs(alphas[0]) > 1e-12:
            qc.ry(float(alphas[0]), target)
        return
    thetas = _multiplex_angles(alphas)
    for i, theta in enumerate(thetas):
        if abs(theta) > 1e-12:
            qc.ry(float(theta), target)
        # The CX after step i sits on the control where gray(i) and
        # gray(i+1) differ; the last one wraps to close the cycle.
        change = _gray_change_position(i, k)
        qc.cx(controls[change], target)


def _multiplex_angles(alphas: np.ndarray) -> np.ndarray:
    """Solve ``M theta = alpha`` for the Gray-code multiplexer, where
    ``M[b, i] = (-1)^{b . gray(i)}``; M is orthogonal up to 2**k."""
    size = alphas.size
    m = np.empty((size, size))
    for b in range(size):
        for i in range(size):
            g = i ^ (i >> 1)
            m[b, i] = (-1.0) ** bin(b & g).count("1")
    return m.T @ alphas / size


def _gray_change_position(step: int, k: int) -> int:
    """Control index whose bit flips between gray(step) and gray(step+1).

    Returns an index into the controls list, with bit 0 = last control
    (least significant in the pattern). The final step (step == 2**k-1)
    flips the most significant bit, closing the Gray cycle.
    """
    if step == 2 ** k - 1:
        return 0
    lsb = (step + 1) & -(step + 1)
    bit = lsb.bit_length() - 1
    return k - 1 - bit

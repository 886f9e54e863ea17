"""QAOA — the gate-model route to Ising optimization.

The quantum approximate optimization algorithm alternates ``p`` cost
layers ``exp(-i gamma H_problem)`` with mixer layers
``exp(-i beta sum X)``. The problem Hamiltonian is diagonal in the
computational basis, so the solver applies each cost layer as one
elementwise phase ``exp(-i gamma E)`` over the :func:`basis_energies`
vector and each mixer ``rx(2 beta)^{(x)n}`` as a few dense Kronecker
factors of at most five qubits, one matrix product each; no circuit is
built per objective evaluation. :func:`qaoa_circuit` prepares the
same state (up to a global phase) as a gate circuit with RZ/RZZ cost
layers. Angles are optimized classically; solutions are sampled from
the final state. Experiment E12 sweeps the depth ``p`` and shows the
approximation ratio climbing toward 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import optimize as scipy_optimize

from .. import telemetry
from ..quantum.circuit import Circuit
from ..quantum.gates import rx_matrix
from ..quantum.statevector import count_shots
from ..telemetry import metrics as _metrics
from ..telemetry.progress import ProgressTrace
from .ising import IsingModel
from .qubo import QUBO
from .results import Sample, SampleSet

Model = Union[QUBO, IsingModel]


def qaoa_circuit(model: IsingModel, gammas: Sequence[float],
                 betas: Sequence[float]) -> Circuit:
    """Bound QAOA circuit for the given angle vectors (depth = len)."""
    if len(gammas) != len(betas):
        raise ValueError("gammas and betas must have equal length")
    n = model.num_spins
    qc = Circuit(n)
    for q in range(n):
        qc.h(q)
    for gamma, beta in zip(gammas, betas):
        for spin, field in model.h.items():
            if field:
                qc.rz(2.0 * gamma * field, spin)
        for (a, b), coupling in model.j.items():
            if coupling:
                qc.rzz(2.0 * gamma * coupling, a, b)
        for q in range(n):
            qc.rx(2.0 * beta, q)
    return qc


def basis_energies(model: IsingModel) -> np.ndarray:
    """Diagonal of the problem Hamiltonian in the computational basis.

    Index convention matches the simulator: qubit 0 is the most
    significant bit; bit 0 means spin +1. Spins are kept as one int8
    row per qubit and terms accumulate one at a time, so the peak
    memory stays near one float vector of ``2**n`` entries.
    """
    n = model.num_spins
    indices = np.arange(2 ** n)
    spins = [(1 - 2 * ((indices >> (n - 1 - q)) & 1)).astype(np.int8)
             for q in range(n)]
    energies = np.full(2 ** n, model.offset)
    for spin, field in model.h.items():
        energies += field * spins[spin]
    for (a, b), coupling in model.j.items():
        energies += coupling * (spins[a] * spins[b])
    return energies


#: Widest mixer factor, in qubits: ``rx(2 beta)^{(x)5}`` is a 32 x 32
#: matrix, large enough that its matrix product runs in zgemm and small
#: enough that building it per layer stays cheap.
_MIXER_FACTOR_QUBITS = 5

#: Amplitudes one zgemm call of a mixer factor covers. OpenBLAS splits
#: calls from about 2**16 multiply-adds across threads, which buys
#: nothing at these sizes, and on a 2-vCPU host with its second core
#: idle such a split call was seen to stall for about 8 ms. Blocks of
#: 2**10 amplitudes keep every call at or below 2**15 multiply-adds,
#: on the calling thread.
_MIXER_BLOCK_AMPLITUDES = 2 ** 10


def _xor_popcount(k: int) -> np.ndarray:
    """``popcount(i ^ j)`` for every ``(i, j)`` in ``range(2**k)``."""
    index = np.arange(2 ** k)
    xor = index[:, None] ^ index
    return sum((xor >> bit) & 1 for bit in range(k))


#: Where each entry of a ``k``-qubit mixer factor takes its power of
#: the off-diagonal ``rx`` entry, per factor width ``k``.
_FACTOR_EXPONENTS = {k: _xor_popcount(k)
                     for k in range(1, _MIXER_FACTOR_QUBITS + 1)}


def _mixer_layout(num_qubits: int) -> List[Tuple[int, int, int]]:
    """``(lead, k, trail)`` per mixer factor, most significant first.

    The qubits split into ``ceil(n / _MIXER_FACTOR_QUBITS)`` contiguous
    groups whose sizes differ by at most one. A group of ``k`` qubits
    views the state as ``(lead, 2**k, trail)``, where ``lead`` and
    ``trail`` are ``2**`` the qubit counts before and after it.
    """
    count = -(-num_qubits // _MIXER_FACTOR_QUBITS)
    layout, start = [], 0
    for group in range(count):
        k = num_qubits // count + (group < num_qubits % count)
        layout.append((2 ** start, k, 2 ** (num_qubits - start - k)))
        start += k
    return layout


def _mixer_factor(beta: float, k: int) -> np.ndarray:
    """``rx(2 beta)`` tensored ``k`` times, a symmetric ``2**k``-square
    matrix: entry ``(i, j)`` is ``cos(beta)**(k - d) * (-i
    sin(beta))**d`` with ``d = popcount(i ^ j)``."""
    # Optimizer angles never repeat, so the mixer skips the LRU
    # behind gate_matrix: caching them would only evict its entries.
    rx = rx_matrix(2.0 * beta)
    diagonal, off_diagonal = rx[0, 0], rx[0, 1]
    powers = np.array([diagonal ** (k - d) * off_diagonal ** d
                       for d in range(k + 1)])
    return powers[_FACTOR_EXPONENTS[k]]


def _qaoa_state(energies: np.ndarray, gammas: Sequence[float],
                betas: Sequence[float]) -> np.ndarray:
    """QAOA statevector straight from the Hamiltonian diagonal.

    Equals ``StatevectorSimulator().run(qaoa_circuit(...))`` up to the
    global phase ``exp(-i gamma offset)`` per layer: the RZ/RZZ cost
    gates multiply basis state ``k`` by ``exp(-i gamma (E_k -
    offset))``. Each mixer layer ``rx(2 beta)^{(x)n}`` is applied as
    the product of its Kronecker factors (:func:`_mixer_layout`), one
    stacked ``np.matmul`` per factor into the other of two state
    buffers, each of its zgemm calls covering at most
    ``_MIXER_BLOCK_AMPLITUDES`` amplitudes. The amplitudes agree with
    one ``rx`` update per qubit to float precision (within about
    2e-16), not bit for bit. Returns a fresh ``(2**n,)`` complex
    vector; ``energies`` is not modified.
    """
    n = energies.size.bit_length() - 1
    layout = _mixer_layout(n)
    widths = {k for _, k, _ in layout}
    state = np.full(energies.size, 2.0 ** (-n / 2), dtype=complex)
    scratch = np.empty_like(state)
    for gamma, beta in zip(gammas, betas):
        state *= np.exp(-1j * gamma * energies)
        factors = {k: _mixer_factor(beta, k) for k in widths}
        for lead, k, trail in layout:
            factor, width = factors[k], 2 ** k
            block = _MIXER_BLOCK_AMPLITUDES // width
            if trail == 1:
                # The last group's qubits are each row's contiguous
                # tail: right-multiplying the rows applies the factor
                # because it is symmetric, as rx is.
                rows = min(lead, block)
                shape = (lead // rows, rows, width)
                np.matmul(state.reshape(shape), factor,
                          out=scratch.reshape(shape))
            else:
                # Each lead index's (width, trail) slab, its columns
                # split into blocks; the transposes are strided views,
                # so nothing is copied.
                columns = min(trail, block)
                shape = (lead, width, trail // columns, columns)
                np.matmul(factor, state.reshape(shape).transpose(0, 2, 1, 3),
                          out=scratch.reshape(shape).transpose(0, 2, 1, 3))
            state, scratch = scratch, state
    return state


@dataclass
class QAOAResult:
    """Outcome of a QAOA run."""

    gammas: np.ndarray
    betas: np.ndarray
    expectation: float
    samples: SampleSet
    approximation_ratio: float
    nfev: int


class QAOASolver:
    """Depth-p QAOA with classical angle optimization.

    Parameters
    ----------
    p:
        Number of alternating cost/mixer layers.
    optimizer:
        ``"cobyla"`` or ``"nelder-mead"`` (scipy), operating on the
        exact expectation computed from the statevector.
    restarts:
        Random-restart count for the angle optimization.
    shots:
        Number of solution samples drawn from the final distribution.
    maxiter:
        Iteration cap of each restart's angle search. ``p``,
        ``restarts``, ``shots`` and ``maxiter`` must be integers >= 1
        (numpy integers too, bools not).
    progress:
        Optional :class:`~repro.telemetry.progress.ProgressTrace`
        receiving one convergence row per objective evaluation
        (running best expectation, current expectation).
    """

    #: Registry name in :mod:`repro.compile.dispatch`.
    solver_name = "qaoa"

    def __init__(self, p: int = 1, optimizer: str = "cobyla",
                 restarts: int = 3, shots: int = 256, maxiter: int = 200,
                 seed: Optional[int] = None,
                 progress: Optional[ProgressTrace] = None):
        for name, value in (("p", p), ("restarts", restarts),
                            ("shots", shots), ("maxiter", maxiter)):
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)
                    or value < 1):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")
        if optimizer not in ("cobyla", "nelder-mead"):
            raise ValueError("optimizer must be 'cobyla' or 'nelder-mead'")
        self.p = int(p)
        self.optimizer = optimizer
        self.restarts = int(restarts)
        self.shots = int(shots)
        self.maxiter = int(maxiter)
        self.progress = progress
        self._rng = np.random.default_rng(seed)

    def solve(self, model: Model) -> QAOAResult:
        ising = model.to_ising() if isinstance(model, QUBO) else model
        energies = basis_energies(ising)
        # A discarded draw keeps each seed's start angles and shots
        # where the circuit-based solver put them.
        self._rng.integers(2 ** 31)
        nfev = 0
        progress = self.progress
        running_best = math.inf

        def expectation(angles: np.ndarray) -> float:
            nonlocal nfev, running_best
            nfev += 1
            gammas, betas = angles[: self.p], angles[self.p:]
            state = _qaoa_state(energies, gammas, betas)
            probabilities = np.abs(state) ** 2
            value = float(probabilities @ energies)
            if progress is not None:
                running_best = min(running_best, value)
                progress.record(
                    iteration=nfev - 1,
                    best_energy=running_best,
                    current_energy=value,
                )
            return value

        best_angles: Optional[np.ndarray] = None
        best_value = math.inf
        with telemetry.span("annealing.qaoa.solve"):
            for _ in range(self.restarts):
                start = np.concatenate([
                    self._rng.uniform(0, math.pi, self.p),     # gammas
                    self._rng.uniform(0, math.pi / 2, self.p),  # betas
                ])
                method = ("COBYLA" if self.optimizer == "cobyla"
                          else "Nelder-Mead")
                result = scipy_optimize.minimize(
                    expectation, start, method=method,
                    options={"maxiter": self.maxiter},
                )
                if result.fun < best_value:
                    best_value = float(result.fun)
                    best_angles = np.asarray(result.x)
        registry = _metrics.get_registry()
        if registry is not None:
            registry.counter(
                "qaoa_energy_evaluations_total",
                "QAOA objective evaluations (state preparation plus "
                "energy expectation)").inc(nfev)

        gammas, betas = best_angles[: self.p], best_angles[self.p:]
        final_state = _qaoa_state(energies, gammas, betas)
        probabilities = np.abs(final_state) ** 2
        probabilities = probabilities / probabilities.sum()
        samples = self._sample(probabilities, energies, ising.num_spins)
        ratio = approximation_ratio(best_value, energies)
        return QAOAResult(
            gammas=gammas, betas=betas, expectation=best_value,
            samples=samples, approximation_ratio=ratio, nfev=nfev,
        )

    def _sample(self, probabilities: np.ndarray, energies: np.ndarray,
                num_spins: int) -> SampleSet:
        count_shots(self.shots)
        outcomes = self._rng.choice(
            probabilities.size, size=self.shots, p=probabilities
        )
        values, counts = np.unique(outcomes, return_counts=True)
        # Basis bit 0 is spin +1, which is x = 1 under the
        # x = (1 + s) / 2 map every other solver emits.
        bits = 1 - ((values[:, None] >> np.arange(num_spins - 1, -1, -1))
                    & 1)
        return SampleSet([
            Sample(tuple(assignment), energy, count)
            for assignment, energy, count in zip(
                bits.tolist(), energies[values].tolist(), counts.tolist())
        ])


def approximation_ratio(value: float, energies: np.ndarray) -> float:
    """Normalized quality in [0, 1]: 1 at the minimum, 0 at the maximum."""
    lowest = float(energies.min())
    highest = float(energies.max())
    if highest == lowest:
        return 1.0
    return (highest - value) / (highest - lowest)

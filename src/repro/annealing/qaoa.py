"""QAOA — the gate-model route to Ising optimization.

The quantum approximate optimization algorithm alternates ``p`` cost
layers ``exp(-i gamma H_problem)`` with mixer layers
``exp(-i beta sum X)``. The problem Hamiltonian is diagonal in the
computational basis, so the solver applies each cost layer as one
elementwise phase ``exp(-i gamma E)`` over the :func:`basis_energies`
vector and each mixer as ``n`` single-qubit ``rx`` updates; no circuit
is built per objective evaluation. :func:`qaoa_circuit` prepares the
same state (up to a global phase) as a gate circuit with RZ/RZZ cost
layers. Angles are optimized classically; solutions are sampled from
the final state. Experiment E12 sweeps the depth ``p`` and shows the
approximation ratio climbing toward 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy import optimize as scipy_optimize

from .. import telemetry
from ..quantum.circuit import Circuit
from ..quantum.gates import rx_matrix
from ..quantum.statevector import apply_matrix, count_shots
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


def _qaoa_state(energies: np.ndarray, gammas: Sequence[float],
                betas: Sequence[float]) -> np.ndarray:
    """QAOA statevector straight from the Hamiltonian diagonal.

    Equals ``StatevectorSimulator().run(qaoa_circuit(...))`` up to the
    global phase ``exp(-i gamma offset)`` per layer: the RZ/RZZ cost
    gates multiply basis state ``k`` by ``exp(-i gamma (E_k -
    offset))``.
    """
    n = energies.size.bit_length() - 1
    state = np.full(energies.size, 2.0 ** (-n / 2), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        state *= np.exp(-1j * gamma * energies)
        # Optimizer angles never repeat, so the mixer skips the LRU
        # behind gate_matrix: caching them would only evict its entries.
        mixer = rx_matrix(2.0 * beta)
        for q in range(n):
            state = apply_matrix(state, mixer, (q,), n)
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
        if p < 1:
            raise ValueError("p must be >= 1")
        if optimizer not in ("cobyla", "nelder-mead"):
            raise ValueError("optimizer must be 'cobyla' or 'nelder-mead'")
        if restarts < 1:
            raise ValueError("restarts must be positive")
        self.p = p
        self.optimizer = optimizer
        self.restarts = restarts
        self.shots = shots
        self.maxiter = maxiter
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
        samples: List[Sample] = []
        for outcome, count in zip(*np.unique(outcomes, return_counts=True)):
            # Basis bit 0 is spin +1, which is x = 1 under the
            # x = (1 + s) / 2 map every other solver emits.
            bits = tuple(
                1 - ((int(outcome) >> (num_spins - 1 - q)) & 1)
                for q in range(num_spins)
            )
            samples.append(
                Sample(bits, float(energies[outcome]), int(count))
            )
        return SampleSet(samples)


def approximation_ratio(value: float, energies: np.ndarray) -> float:
    """Normalized quality in [0, 1]: 1 at the minimum, 0 at the maximum."""
    lowest = float(energies.min())
    highest = float(energies.max())
    if highest == lowest:
        return 1.0
    return (highest - value) / (highest - lowest)

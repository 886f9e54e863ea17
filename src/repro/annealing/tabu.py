"""Tabu search over QUBO assignments.

A deterministic local-search baseline: greedy single-bit flips with a
recency-based tabu list and aspiration, restarted from random points.
Included because the quantum-annealing database papers routinely report
tabu as the strong classical heuristic.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import telemetry
from ..telemetry.progress import ProgressTrace
from .qubo import QUBO
from .results import Sample, SampleSet


class TabuSearchSolver:
    """Single-flip tabu search with aspiration.

    Parameters
    ----------
    tenure:
        Sweeps a flipped bit stays tabu. Defaults to ``n // 4 + 1``.
    num_restarts:
        Independent random restarts.
    max_iterations:
        Flip moves per restart.
    progress:
        Optional :class:`~repro.telemetry.progress.ProgressTrace`
        receiving one convergence row per flip move (global best,
        current energy, tenure as the schedule value).
    """

    #: Registry name in :mod:`repro.compile.dispatch`.
    solver_name = "tabu"

    def __init__(self, tenure: Optional[int] = None, num_restarts: int = 5,
                 max_iterations: int = 500, seed: Optional[int] = None,
                 progress: Optional[ProgressTrace] = None):
        if num_restarts < 1:
            raise ValueError("num_restarts must be positive")
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        self.tenure = tenure
        self.num_restarts = num_restarts
        self.max_iterations = max_iterations
        self.progress = progress
        self._rng = np.random.default_rng(seed)

    def solve(self, model: QUBO) -> SampleSet:
        n = model.num_variables
        tenure = self.tenure if self.tenure is not None else n // 4 + 1
        q = model.matrix()
        q_sym = q + q.T  # for fast flip deltas; diagonal handled apart
        diagonal = np.diag(q)
        samples: List[Sample] = []
        with telemetry.span("annealing.tabu.solve"):
            self._solve_restarts(model, n, tenure, q_sym, diagonal, samples)
        return SampleSet(samples)

    def _solve_restarts(self, model: QUBO, n: int, tenure: int,
                        q_sym: np.ndarray, diagonal: np.ndarray,
                        samples: List[Sample]) -> None:
        progress = self.progress
        global_best = np.inf
        global_iteration = 0
        for _ in range(self.num_restarts):
            bits = self._rng.integers(0, 2, size=n).astype(float)
            energy = float(model.energies(bits[None, :])[0])
            best_bits = bits.copy()
            best_energy = energy
            tabu_until = np.zeros(n, dtype=int)
            for iteration in range(self.max_iterations):
                # Delta of flipping bit i:
                #   (1 - 2 x_i) * (diag_i + sum_j q_sym[i, j] x_j
                #                  - q_sym[i, i] x_i)
                coupling_term = q_sym @ bits - np.diag(q_sym) * bits
                deltas = (1.0 - 2.0 * bits) * (diagonal + coupling_term)
                candidate_energies = energy + deltas
                allowed = (tabu_until <= iteration) | (
                    candidate_energies < best_energy - 1e-12
                )
                if not allowed.any():
                    allowed = np.ones(n, dtype=bool)
                masked = np.where(allowed, candidate_energies, np.inf)
                move = int(np.argmin(masked))
                bits[move] = 1.0 - bits[move]
                energy = float(candidate_energies[move])
                tabu_until[move] = iteration + tenure
                if energy < best_energy - 1e-12:
                    best_energy = energy
                    best_bits = bits.copy()
                if progress is not None:
                    global_best = min(global_best, best_energy)
                    progress.record(
                        iteration=global_iteration,
                        best_energy=global_best,
                        current_energy=energy,
                        # Tabu always takes the best allowed move.
                        acceptance_rate=1.0,
                        schedule_value=float(tenure),
                    )
                    global_iteration += 1
            samples.append(
                Sample(tuple(int(b) for b in best_bits), best_energy)
            )

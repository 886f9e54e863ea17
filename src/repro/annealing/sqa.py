"""Simulated quantum annealing (path-integral Monte Carlo).

The Suzuki-Trotter mapping turns the transverse-field Ising
Hamiltonian ``H = H_problem - Gamma sum_i X_i`` into a classical model
of ``P`` coupled replicas ("Trotter slices"): each slice feels the
problem couplings scaled by ``1/P``, plus a ferromagnetic inter-slice
coupling

    J_perp(Gamma) = -(1 / (2 beta)) * ln( tanh(beta * Gamma / P) )

that weakens as the transverse field Gamma is annealed to zero. Local
Metropolis updates on this replica stack emulate quantum tunnelling:
a spin can flip in one slice at a time, letting the system thread tall,
thin energy barriers that defeat purely thermal annealing. Experiment
E14 reproduces exactly that separation.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..telemetry import metrics as _metrics
from ..telemetry.progress import ProgressTrace
from .ising import IsingModel, spins_to_bits
from .qubo import QUBO
from .results import Sample, SampleSet
from .schedules import default_transverse_field_schedule

Model = Union[QUBO, IsingModel]


class SimulatedQuantumAnnealingSolver:
    """Path-integral Monte Carlo annealer.

    Parameters
    ----------
    num_sweeps:
        Monte Carlo sweeps (each updates every spin in every slice).
    num_reads:
        Independent restarts.
    num_slices:
        Trotter slices P; more slices = finer quantum fluctuations at
        higher cost. The E14 ablation sweeps this.
    beta:
        Inverse temperature of the quantum system (fixed during the
        anneal; the transverse field does the annealing).
    gamma_schedule:
        Transverse field per sweep, decreasing; defaults to a linear
        ramp 3.0 -> 0.01.
    progress:
        Optional :class:`~repro.telemetry.progress.ProgressTrace`
        receiving one convergence row per sweep (best slice energy so
        far, local-move acceptance rate, gamma). Incremental slice
        energies are only tracked while a trace is attached.
    """

    #: Registry name in :mod:`repro.compile.dispatch`.
    solver_name = "sqa"

    def __init__(self, num_sweeps: int = 200, num_reads: int = 10,
                 num_slices: int = 20, beta: float = 10.0,
                 gamma_schedule: Optional[Sequence[float]] = None,
                 seed: Optional[int] = None,
                 progress: Optional[ProgressTrace] = None):
        if num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        if num_slices < 2:
            raise ValueError("num_slices must be >= 2")
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.num_sweeps = num_sweeps
        self.num_reads = num_reads
        self.num_slices = num_slices
        self.beta = beta
        self.gamma_schedule = gamma_schedule
        self.progress = progress
        self._rng = np.random.default_rng(seed)

    def solve(self, model: Model) -> SampleSet:
        """Anneal and return the best slice of each read (as bits)."""
        ising = model.to_ising() if isinstance(model, QUBO) else model
        fields = ising.local_fields()
        couplings = ising.coupling_matrix()
        # Normalize coefficients so the fixed beta / gamma schedules are
        # problem-scale-invariant (configurations are unaffected; final
        # energies are evaluated against the original model).
        scale = max(
            float(np.abs(fields).max(initial=0.0)),
            float(np.abs(couplings).max(initial=0.0)),
        )
        if scale > 0:
            fields = fields / scale
            couplings = couplings / scale
        n = ising.num_spins
        p = self.num_slices
        gammas = list(
            self.gamma_schedule
            if self.gamma_schedule is not None
            else default_transverse_field_schedule(self.num_sweeps)
        )
        if len(gammas) != self.num_sweeps:
            raise ValueError("gamma_schedule length must equal num_sweeps")

        registry = _metrics.get_registry()
        progress = self.progress
        samples: List[Sample] = []
        accepted_local = 0
        accepted_global = 0
        with telemetry.span("annealing.sqa.solve"):
            replicas = self._rng.choice((-1.0, 1.0),
                                        size=(self.num_reads, p, n))
            # Cached per-slice local fields, shape (reads, P, n),
            # incrementally updated on accepted flips.
            local = replicas @ couplings + fields
            # Per-slice energies (in the normalized model), tracked
            # incrementally from accepted deltas for the convergence
            # trace only; rows report original-model units via `scale`.
            if progress is not None:
                running = _slice_energies(replicas, fields, couplings)
                best_running = float(running.min())
                unit = scale if scale > 0 else 1.0
                offset = float(getattr(ising, "offset", 0.0))
                moves_per_sweep = self.num_reads * p * n
            else:
                running = None
            for sweep_index, gamma in enumerate(gammas):
                j_perp = self._interslice_coupling(gamma)
                accepted = self._sweep(
                    replicas, local, j_perp, couplings, energies=running
                )
                accepted_local += accepted
                accepted_global += self._global_sweep(
                    replicas, local, couplings, energies=running
                )
                if progress is not None:
                    current = float(running.min())
                    best_running = min(best_running, current)
                    progress.record(
                        iteration=sweep_index,
                        best_energy=best_running * unit + offset,
                        current_energy=current * unit + offset,
                        acceptance_rate=accepted / moves_per_sweep,
                        schedule_value=gamma,
                    )
            slice_energies = ising.energies(
                replicas.reshape(self.num_reads * p, n)
            ).reshape(self.num_reads, p)
            best_slices = np.argmin(slice_energies, axis=1)
            read_energies = slice_energies[np.arange(self.num_reads),
                                           best_slices]
            for read, best_slice in enumerate(best_slices):
                spins = replicas[read, best_slice].astype(int)
                samples.append(
                    Sample(tuple(spins_to_bits(spins)),
                           float(read_energies[read]))
                )
        if registry is not None:
            sweeps = self.num_sweeps * self.num_reads
            registry.counter(
                "solver_sweeps_total",
                "annealing sweeps executed (reads x schedule steps)",
                ("solver",)).labels(solver=self.solver_name).inc(sweeps)
            moves = registry.counter(
                "solver_moves_total",
                "Metropolis move proposals by outcome",
                ("solver", "outcome"))
            moves.labels(solver=self.solver_name,
                         outcome="accepted").inc(accepted_local)
            moves.labels(solver=self.solver_name,
                         outcome="rejected").inc(
                             sweeps * p * n - accepted_local)
            registry.counter(
                "sqa_worldline_moves_accepted_total",
                "accepted moves flipping one spin in every Trotter "
                "slice").inc(accepted_global)
        return SampleSet(samples)

    def _interslice_coupling(self, gamma: float) -> float:
        argument = self.beta * max(gamma, 1e-12) / self.num_slices
        return -0.5 / self.beta * math.log(math.tanh(argument))

    def _sweep(self, replicas: np.ndarray, local: np.ndarray,
               j_perp: float, couplings: np.ndarray,
               energies: Optional[np.ndarray] = None) -> int:
        """Slice-local Metropolis pass over all reads at once.

        Spins are visited per (slice, position) in a random order
        shared across reads; each step decides the flip for every read
        simultaneously from the cached local fields. When ``energies``
        (shape ``(reads, P)``) is given, accepted problem-energy
        deltas are accumulated into it for convergence tracing.
        """
        reads, p, n = replicas.shape
        beta_slice = self.beta / p
        accepted = 0
        for k in range(p):
            up = (k + 1) % p
            down = (k - 1) % p
            order = self._rng.permutation(n)
            thresholds = self._rng.random((n, reads))
            for position, i in enumerate(order):
                spins = replicas[:, k, i]
                delta_problem = -2.0 * spins * local[:, k, i]
                delta_perp = (-2.0 * spins * j_perp
                              * (replicas[:, up, i] + replicas[:, down, i]))
                # Problem term is weighted 1/P inside the effective
                # action but sampled at beta, i.e. beta/P overall.
                exponent = (-beta_slice * delta_problem
                            - self.beta * delta_perp)
                accept = thresholds[position] < np.exp(
                    np.minimum(exponent, 0.0)
                )
                if accept.any():
                    flipped = replicas[accept, k, i]
                    replicas[accept, k, i] = -flipped
                    local[accept, k, :] -= (2.0 * flipped[:, None]
                                            * couplings[i])
                    if energies is not None:
                        energies[accept, k] += delta_problem[accept]
                    accepted += int(accept.sum())
        return accepted

    def _global_sweep(self, replicas: np.ndarray, local: np.ndarray,
                      couplings: np.ndarray,
                      energies: Optional[np.ndarray] = None) -> int:
        """Flip one spin in *all* slices at once, across all reads.

        These worldline moves leave the interslice coupling invariant
        and are the standard trick that lets PIMC realize tunnelling
        through barriers local single-slice updates cannot cross.
        """
        reads, p, n = replicas.shape
        beta_slice = self.beta / p
        order = self._rng.permutation(n)
        thresholds = self._rng.random((n, reads))
        accepted = 0
        for position, i in enumerate(order):
            per_slice = -2.0 * replicas[:, :, i] * local[:, :, i]
            delta = per_slice.sum(axis=1)
            accept = thresholds[position] < np.exp(
                np.minimum(-beta_slice * delta, 0.0)
            )
            if accept.any():
                flipped = replicas[accept, :, i]
                replicas[accept, :, i] = -flipped
                local[accept] -= (2.0 * flipped[:, :, None]
                                  * couplings[i])
                if energies is not None:
                    energies[accept] += per_slice[accept]
                accepted += int(accept.sum())
        return accepted


def _slice_energies(replicas: np.ndarray, fields: np.ndarray,
                    couplings: np.ndarray) -> np.ndarray:
    """Problem energy of every slice, shape ``(reads, P)``.

    Evaluated against the (possibly normalized) ``fields`` /
    ``couplings`` actually used by the sweeps, so incremental deltas
    accumulated on top stay consistent.
    """
    interaction = np.einsum("rpi,ij,rpj->rp", replicas, couplings,
                            replicas) / 2.0
    return interaction + replicas @ fields

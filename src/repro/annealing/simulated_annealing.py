"""Simulated (thermal) annealing.

The classical baseline the quantum-annealing literature measures
against: single-spin Metropolis dynamics with a rising inverse
temperature schedule. Accepts both QUBO and Ising inputs, returns a
:class:`~repro.annealing.results.SampleSet` of binary assignments.

The inner loop is *read-vectorized*: all ``num_reads`` restarts are
stored as one ``(num_reads, n)`` spin matrix and advance in lock-step,
one spin column per Metropolis step. Local fields are cached and
incrementally updated on accepted flips, and acceptance thresholds are
drawn with batched numpy RNG, so the per-sweep Python overhead is
O(n) instead of O(num_reads * n).
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..telemetry import metrics as _metrics
from ..telemetry.progress import ProgressTrace
from .ising import IsingModel, spins_to_bits
from .qubo import QUBO
from .results import Sample, SampleSet
from .schedules import default_beta_schedule

Model = Union[QUBO, IsingModel]


class SimulatedAnnealingSolver:
    """Metropolis single-spin-flip annealer.

    Parameters
    ----------
    num_sweeps:
        Full passes over all spins per read.
    num_reads:
        Independent restarts; the sample set aggregates all of them.
    beta_schedule:
        Inverse temperatures, one per sweep. By default the range is
        *auto-scaled to the problem*: the hot end accepts typical
        uphill moves with probability ~1/2 and the cold end freezes
        the smallest nonzero move, the heuristic used by production
        annealing samplers. A fixed mis-scaled schedule silently
        freezes (or never cools) models with large coefficients such
        as penalty-heavy QUBOs.
    progress:
        Optional :class:`~repro.telemetry.progress.ProgressTrace`
        receiving one uniform convergence row per sweep (running best
        energy, per-sweep acceptance rate, beta). Incremental energy
        tracking is only maintained while a trace is attached, so the
        hot path is untouched otherwise.
    """

    #: Registry name in :mod:`repro.compile.dispatch`.
    solver_name = "sa"

    def __init__(self, num_sweeps: int = 200, num_reads: int = 10,
                 beta_schedule: Optional[Sequence[float]] = None,
                 seed: Optional[int] = None,
                 progress: Optional[ProgressTrace] = None):
        if num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        self.num_sweeps = num_sweeps
        self.num_reads = num_reads
        self.beta_schedule = beta_schedule
        self.progress = progress
        self._rng = np.random.default_rng(seed)

    def solve(self, model: Model) -> SampleSet:
        """Anneal and return all reads as binary assignments."""
        ising = model.to_ising() if isinstance(model, QUBO) else model
        fields = ising.local_fields()
        couplings = ising.coupling_matrix()
        n = ising.num_spins
        betas = list(
            self.beta_schedule
            if self.beta_schedule is not None
            else auto_beta_schedule(ising, self.num_sweeps)
        )
        if len(betas) != self.num_sweeps:
            raise ValueError("beta_schedule length must equal num_sweeps")

        registry = _metrics.get_registry()
        progress = self.progress
        accepted_total = 0
        solve_start = (time.perf_counter()
                       if registry is not None else 0.0)
        with telemetry.span("annealing.sa.solve"):
            spins = self._rng.choice((-1.0, 1.0),
                                     size=(self.num_reads, n))
            # Cached local fields: local[r, i] = h_i + sum_j J_ij s_rj,
            # updated incrementally as flips are accepted.
            local = spins @ couplings + fields
            # Per-read energies, tracked incrementally from accepted
            # flip deltas, feed the convergence trace only.
            running = ising.energies(spins) if progress is not None else None
            best_running = (float(running.min())
                            if running is not None else math.inf)
            moves_per_sweep = self.num_reads * n
            for sweep_index, beta in enumerate(betas):
                accepted = self._sweep(spins, local, couplings, beta,
                                       energies=running)
                accepted_total += accepted
                if progress is not None:
                    current = float(running.min())
                    best_running = min(best_running, current)
                    progress.record(
                        iteration=sweep_index,
                        best_energy=best_running,
                        current_energy=current,
                        acceptance_rate=accepted / moves_per_sweep,
                        schedule_value=beta,
                    )
            energies = ising.energies(spins)
            samples = [
                Sample(tuple(spins_to_bits(row.astype(int))), float(energy))
                for row, energy in zip(spins, energies)
            ]
        if registry is not None:
            sweeps = self.num_sweeps * self.num_reads
            elapsed = time.perf_counter() - solve_start
            registry.counter(
                "solver_sweeps_total",
                "annealing sweeps executed (reads x schedule steps)",
                ("solver",)).labels(solver=self.solver_name).inc(sweeps)
            moves = registry.counter(
                "solver_moves_total",
                "Metropolis move proposals by outcome",
                ("solver", "outcome"))
            moves.labels(solver=self.solver_name,
                         outcome="accepted").inc(accepted_total)
            moves.labels(solver=self.solver_name,
                         outcome="rejected").inc(
                             sweeps * n - accepted_total)
            if elapsed > 0:
                registry.gauge(
                    "solver_sweep_rate",
                    "sweeps per second of the most recent solve",
                    ("solver",)).labels(
                        solver=self.solver_name).set(sweeps / elapsed)
        return SampleSet(samples)

    def _sweep(self, spins: np.ndarray, local: np.ndarray,
               couplings: np.ndarray, beta: float,
               energies: Optional[np.ndarray] = None) -> int:
        """One Metropolis pass over all reads; returns accepted flips.

        Visits spins in one random order shared by every read; at each
        position all reads decide their flip simultaneously from the
        cached local fields, which are then updated in place for the
        accepted rows only. When ``energies`` is given, accepted flip
        deltas are accumulated into it (per read) for convergence
        tracing.

        No field changes before the first accepted flip, so one
        vectorized test over the whole order finds the position where
        the per-position loop starts; a sweep with no acceptable flip
        at all returns without visiting any position. The flip
        energy ``-2*s*l`` enters the exponent as ``(2*beta) * (s*l)``,
        the same correctly rounded product as ``-beta * (-2*s*l)``
        because the factor 2 scales exactly.
        """
        reads, n = spins.shape
        order = self._rng.permutation(n)
        thresholds = self._rng.random((n, reads))
        two_beta = 2.0 * beta
        # exp(min(x, 0)) is 1 for downhill moves, so the uniform
        # threshold in [0, 1) always accepts them without overflowing
        # exp. Every exp runs on a contiguous float64 buffer: numpy
        # may pick another routine for strided input, and the prefix
        # test must decide exactly as the loop would.
        exponent = spins[:, order] * local[:, order]
        exponent *= two_beta
        np.minimum(exponent, 0.0, out=exponent)
        np.exp(exponent, out=exponent)
        live = (thresholds.T < exponent).any(axis=0)
        start = int(live.argmax())
        if not live[start]:
            return 0
        x = np.empty(reads)
        accept = np.empty(reads, dtype=bool)
        accept_rows = accept[:, None]
        term = np.empty_like(local)
        accepted = 0
        for position, i in enumerate(order[start:].tolist(), start):
            s = spins[:, i]
            field = local[:, i]
            np.multiply(s, field, out=x)
            x *= two_beta
            np.minimum(x, 0.0, out=x)
            np.exp(x, out=x)
            np.less(thresholds[position], x, out=accept)
            count = np.count_nonzero(accept)
            if count:
                if energies is not None:
                    np.add(energies, -2.0 * s * field, out=energies,
                           where=accept)
                np.multiply.outer(s + s, couplings[i], out=term)
                np.subtract(local, term, out=local, where=accept_rows)
                # Not np.negative: on AVX-512 builds of numpy 2.4 it
                # writes wrong values into a float64 column with a
                # 64-byte stride, i.e. whenever n = 8.
                np.multiply(s, -1.0, out=s, where=accept)
                accepted += count
        return int(accepted)


def auto_beta_schedule(ising: IsingModel, num_sweeps: int
                       ) -> List[float]:
    """Problem-scaled geometric beta ramp.

    Hot end: ``ln(2) / dE_max`` where ``dE_max`` is the largest
    possible single-flip energy change, so early sweeps accept almost
    anything. Cold end: ``ln(1000) / dE_min`` with ``dE_min`` the
    smallest nonzero flip, so the final sweeps are effectively greedy.
    """
    fields = ising.local_fields()
    couplings = ising.coupling_matrix()
    per_spin = np.abs(fields) + np.abs(couplings).sum(axis=1)
    hottest = 2.0 * float(per_spin.max())
    magnitudes = np.concatenate([
        np.abs(fields[fields != 0]),
        np.abs(couplings[couplings != 0]),
    ])
    if magnitudes.size:
        # Floor the smallest move at a fraction of the largest:
        # near-zero stray coefficients (e.g. tiny mutual-information
        # scores) would otherwise stretch the cold end so far that the
        # whole schedule is spent frozen.
        coldest = 2.0 * max(float(magnitudes.min()),
                            1e-3 * float(magnitudes.max()))
    else:
        coldest = 1.0
    if hottest <= 0:
        return default_beta_schedule(num_sweeps)
    beta_hot = math.log(2.0) / hottest
    beta_cold = math.log(1000.0) / max(coldest, 1e-12)
    if beta_cold <= beta_hot:
        beta_cold = beta_hot * 100.0
    from .schedules import geometric_schedule

    return geometric_schedule(beta_hot, beta_cold, num_sweeps)


def anneal_qubo(model: QUBO, num_sweeps: int = 200, num_reads: int = 10,
                seed: Optional[int] = None) -> SampleSet:
    """One-call convenience wrapper around the solver."""
    solver = SimulatedAnnealingSolver(
        num_sweeps=num_sweeps, num_reads=num_reads, seed=seed
    )
    return solver.solve(model)

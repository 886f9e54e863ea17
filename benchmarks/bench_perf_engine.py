"""Batched-vs-loop execution engine benchmark (perf-trajectory gate).

Measures the wall-clock win of the batched execution engine against
faithful re-implementations of the pre-batching Python loops, on two
reference workloads:

* **kernel Gram** — a fidelity-kernel Gram matrix (IQP encoding),
  batched ``Encoding.state_batch`` / ``StatevectorSimulator.run_batch``
  vs one simulator call per data point;
* **SA sweeps** — simulated annealing, read-vectorized ``(reads, n)``
  lock-step sweeps vs the per-read single-spin-flip Python loop;
* **compile dispatch** — the ``repro.compile`` front door
  (``solve(problem, solver="sa", config=...)``) vs calling the same
  seeded backend directly on the compiled model and hand-picking the
  best decode. The gate here is *overhead*, not speedup: dispatch must
  cost < 5% over the direct call;
* **metrics overhead** — the shipped (instrumented) hot paths with the
  live-metrics registry *disabled* vs bare replicas of the same code
  with the instrumentation stripped. This pins the cheap-when-off
  guarantee of ``repro.telemetry.metrics``: fetching ``get_registry()``
  and branching on ``None`` must stay inside the workload's embedded
  ``gate_max_overhead`` budget (2% at full scale). The same record
  covers the whole observability stack's disabled branches — the
  ``repro.compile.solve`` front door (telemetry span + profiler +
  metrics guards) vs a guard-free replica (``frontdoor_overhead``);
* **obs overhead** — the service-throughput batch with the
  trace-context and flight-recorder layers *enabled* vs the identical
  batch with them off: minting contexts, tagging jobs, ring-buffer
  recording and drain attribution must stay under the embedded
  ``gate_max_overhead`` (5% at full scale) with bit-for-bit identical
  results;
* **pipeline throughput** — a generated JOB-style join-order workload
  (``repro.db.workloads``) pushed through the staged
  ``repro.pipeline.OptimizationPipeline`` vs the direct
  compile-then-dispatch loop over the same graphs and configs. The
  gate is overhead: the pre-check / stage-report / plan-assembly
  machinery must cost < 5% over the raw formulation+solve path at
  full scale, with bit-for-bit identical decoded orders;
* **server throughput** — the HTTP front end (``repro.server``) under
  concurrent stdlib clients: a mixed cache-miss/cache-hit soak with
  request-latency quantiles and SSE stream-row lag, a backpressure
  phase against a tiny job queue (the 429 + ``Retry-After`` path must
  shed load without hanging while every accepted job completes).
  Results coming back over HTTP must match a direct in-process solve
  bit for bit;
* **QAOA eval** — one QAOA objective evaluation (state preparation plus
  the energy expectation) as ``QAOASolver`` runs it, one elementwise
  phase per cost layer over the Hamiltonian diagonal, vs building
  ``qaoa_circuit`` and running it gate by gate on
  ``StatevectorSimulator``. Clique Ising models with fields; the
  record keeps evaluations per second per ``(qubits, p)`` cell, its
  ``speedup`` is the slowest cell's, and the declared
  ``gate_min_speedup`` catches a fall back to circuit speed;
* **QML gradient** — one minibatch gradient of a variational regressor
  as training computes it (one batched output pass plus one batched
  parameter-shift call over every row) vs the per-row loop it
  replaced (one ``expectation`` and one single-circuit
  ``parameter_shift_gradient`` per row). Per ``(qubits, layers,
  rows)`` cell the record keeps median seconds over interleaved
  repeats with telemetry off; its ``speedup`` is the 4-qubit cell's;
* **SA sweep** — ``SimulatedAnnealingSolver.solve`` with the shipped
  sweep (frozen-prefix start, flips applied in place) vs the same
  solver running the previous sweep, which visits every position and
  applies flips through boolean fancy indexing. Join-order QUBOs at
  the ``pipeline_batch`` and ``http_jobs`` shapes plus the
  ``sa_sweeps`` Ising model; per cell the record keeps median seconds
  over interleaved repeats with telemetry off, and both sides must
  return identical samples. Its ``speedup`` is the 8-relation cell's
  (the 5-relation cell's at smoke scale);
* **VQC fit** — one ``qml_train``-shaped fit (angle encoding, 2
  ansatz layers, 12 epochs of 24-row minibatches) of the shipped
  ``VariationalRegressor``, which runs every evaluation as one model
  template plus one angle matrix, vs a subclass keeping the previous
  per-row methods, which build and bind one circuit per row. Per
  qubit count the record keeps median seconds over interleaved
  repeats with telemetry off; loss histories and predictions must be
  identical. Its ``speedup`` is the 4-qubit cell's;
* **batch gates** — ``StatevectorSimulator.run_angles`` on the
  ``qml_train`` model template (angle encoding plus 2 ansatz layers)
  with the amplitude-major kernels (row gathers, phase multiplies and
  ``2**k``-group updates on one ``(2**n, batch)`` stack) vs the
  previous batched path, kept verbatim, which moved the gate axes of
  a ``(batch, 2**n)`` stack to the back and ran one stacked matmul or
  broadcast phase multiply per gate. Cells are a 24-row output pass
  and a 768-row gradient block at 4 qubits plus gradient blocks of
  ``2**14`` amplitudes at 8 and 12 qubits; per cell the record keeps
  median seconds over interleaved repeats with telemetry off and the
  largest amplitude difference. Its ``speedup`` is the 768-row cell's;
* **shift fork** — one minibatch gradient with its outputs (the
  ``qml_train`` model template, 24 rows) as ``parameter_shift_gradient``
  computes it, one fork pass whose trunks give the outputs, vs the
  previous pass, kept verbatim: one output pass through ``run_angles``,
  then one ``run_angles`` row per shifted copy. Per ``(qubits, layers,
  rows)`` cell the record keeps median seconds over interleaved repeats
  with telemetry off; gradient rows and outputs must be identical. Its
  ``speedup`` is the 4-qubit cell's;
* **QAOA mixer** — ``_qaoa_state`` as ``QAOASolver`` runs it, each
  mixer layer as a few Kronecker factors of at most five qubits with
  one matmul each, vs the previous state preparation, kept verbatim,
  which applied the mixer as one ``apply_matrix`` per qubit. Per
  ``(qubits, p)`` cell (the ``qaoa_solve`` widths) the record keeps
  median seconds over interleaved repeats of a fixed set of angle rows
  and the largest amplitude difference, which is float rounding, not
  zero. Its ``speedup`` is the widest cell's (14 qubits at full scale,
  9 at smoke scale).

Timings come from ``time.perf_counter``. Run as a script to write the
committed perf trajectory::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py

which writes ``BENCH_perf.json`` (schema ``repro-bench/v1``) at the
repo root. Environment knobs: ``REPRO_PERF_SCALE=smoke`` shrinks every
workload for CI smoke runs, ``REPRO_PERF_JSON`` overrides the output
path. The same workloads also run as pytest benchmarks
(``pytest benchmarks/bench_perf_engine.py -s``) at smoke scale.
"""

import json
import math
import os
import sys
import time

import numpy as np

from repro import telemetry
from repro.annealing import (
    IsingModel,
    SimulatedAnnealingSolver,
    basis_energies,
    qaoa_circuit,
)
from repro.annealing.ising import spins_to_bits
from repro.annealing.qaoa import _qaoa_state
from repro.annealing.results import Sample, SampleSet
from repro.annealing.simulated_annealing import auto_beta_schedule
from repro.compile import SolverConfig
from repro.compile import dispatch as compile_dispatch
from repro.compile import solve as dispatch_solve
from repro.db import JoinOrderQUBO, random_join_graph
from repro.qml import (
    AngleEncoding,
    FidelityQuantumKernel,
    IQPEncoding,
    VariationalRegressor,
    parameter_shift_gradient,
)
from repro.qml.gradients import (
    _FD_EPS,
    _SHIFT,
    _as_pauli_sum,
    _parameters,
    _symbolic_slots,
)
from repro.qml.models import _count_evaluations
from repro.quantum import StatevectorSimulator
from repro.quantum.gates import (
    GATE_NUM_PARAMS,
    SHIFT_RULE_GATES,
    batch_gate_diagonal,
    batch_gate_matrix,
    gate_diagonal,
    gate_matrix,
    rx_matrix,
)
from repro.quantum.statevector import (
    _apply_gate,
    _structurally_identical,
    apply_matrix,
    gate_angles,
)
from repro.telemetry import metrics as _metrics
from repro.telemetry.bench_schema import (
    BENCH_SCHEMA,
    MAX_BATCHED_ABS_DIFF,
    MAX_DISPATCH_OVERHEAD,
    effective_speedup_floor,
    validate_document,
)
from repro.telemetry.progress import ProgressTrace

#: Reference scales from the PR-2 issue: the committed BENCH_perf.json
#: must show >= 5x on both workloads at these sizes.
FULL_SCALE = {
    "kernel": {"num_points": 64, "num_features": 6, "depth": 2},
    "sa": {"num_spins": 64, "num_reads": 100, "num_sweeps": 500},
    "compile": {"num_relations": 7, "num_sweeps": 400, "num_reads": 30,
                "repeats": 5},
    "service": {"num_jobs": 8, "num_relations": 7, "num_sweeps": 600,
                "num_reads": 30, "workers": 2,
                "gate_speedup_tolerance": 0.10},
    "metrics": {"num_spins": 48, "num_reads": 60, "num_sweeps": 300,
                "num_points": 160, "num_features": 8, "depth": 2,
                "repeats": 15, "gate_max_overhead": 0.02},
    "pipeline": {"topologies": ("chain", "star", "cycle", "clique"),
                 "size": 6, "instances_per_cell": 12,
                 "num_sweeps": 200, "num_reads": 10, "repeats": 3,
                 "gate_max_overhead": 0.05},
    "obs": {"num_jobs": 8, "num_relations": 7, "num_sweeps": 600,
            "num_reads": 30, "workers": 2, "repeats": 3,
            "gate_max_overhead": 0.05},
    "server": {"num_jobs": 8, "num_clients": 4, "num_sweeps": 300,
               "num_reads": 10, "queue_capacity": 2},
    "qaoa": {"qubits": (8, 12, 14, 16), "depths": (1, 3), "evals": 8},
    "qml": {"cells": ((4, 2, 24), (6, 2, 24), (8, 2, 24)), "repeats": 9},
    "sa_sweep": {"cells": (("join", 6, 300, 20, False),
                           ("join", 8, 300, 20, False),
                           ("join", 10, 300, 20, False),
                           ("join", 5, 50, 10, True),
                           ("ising", 64, 500, 100, False)),
                 "headline": 8, "repeats": 5},
    "vqc_fit": {"qubits": (4, 6, 8), "repeats": 7},
    "batch_gates": {"cells": ((4, 24, False), (4, 768, True),
                              (8, 64, True), (12, 4, True)),
                    "repeats": 15},
    "shift_fork": {"cells": ((4, 2, 24), (6, 2, 24), (8, 2, 24)),
                   "repeats": 15},
    "qaoa_mixer": {"cells": ((9, 1), (12, 1), (12, 2), (14, 1)),
                   "evals": 8, "repeats": 15},
}
SMOKE_SCALE = {
    "kernel": {"num_points": 12, "num_features": 4, "depth": 2},
    "sa": {"num_spins": 24, "num_reads": 10, "num_sweeps": 50},
    "compile": {"num_relations": 5, "num_sweeps": 150, "num_reads": 10,
                "repeats": 3},
    "service": {"num_jobs": 8, "num_relations": 6, "num_sweeps": 400,
                "num_reads": 20, "workers": 2,
                "gate_speedup_tolerance": 0.5},
    "metrics": {"num_spins": 16, "num_reads": 10, "num_sweeps": 60,
                "num_points": 16, "num_features": 5, "depth": 2,
                "repeats": 3, "gate_max_overhead": 0.5},
    "pipeline": {"topologies": ("chain", "star"), "size": 5,
                 "instances_per_cell": 4, "num_sweeps": 100,
                 "num_reads": 5, "repeats": 2,
                 "gate_max_overhead": 0.5},
    "obs": {"num_jobs": 4, "num_relations": 6, "num_sweeps": 300,
            "num_reads": 10, "workers": 2, "repeats": 2,
            "gate_max_overhead": 0.5},
    "server": {"num_jobs": 4, "num_clients": 2, "num_sweeps": 150,
               "num_reads": 5, "queue_capacity": 2},
    "qaoa": {"qubits": (6, 8), "depths": (1, 2), "evals": 40},
    "qml": {"cells": ((2, 1, 8), (4, 2, 24)), "repeats": 5},
    "sa_sweep": {"cells": (("join", 4, 60, 10, False),
                           ("join", 5, 50, 10, True)),
                 "headline": 5, "repeats": 5},
    "vqc_fit": {"qubits": (4,), "repeats": 5},
    "batch_gates": {"cells": ((4, 24, False), (4, 768, True)),
                    "repeats": 7},
    "shift_fork": {"cells": ((4, 2, 24), (6, 2, 24)), "repeats": 7},
    "qaoa_mixer": {"cells": ((6, 1), (9, 1)), "evals": 8, "repeats": 7},
}

#: Speedup floor the service workload must clear when real
#: parallelism is physically possible (declared in its record as
#: ``gate_min_speedup`` and enforced by ``bench_schema --gates``).
SERVICE_MIN_SPEEDUP = 1.5

#: Speedup floor on single-CPU hosts: parity with the sequential loop.
#: The declared ``gate_speedup_tolerance`` absorbs the scheduler and
#: process-pool overhead a one-core box measurably pays (repeated
#: full-scale runs on a 1-CPU container land between 0.88x and 0.96x).
SERVICE_MIN_SPEEDUP_SINGLE_CPU = 1.0

#: Floor on the slowest QAOA-eval cell. On a 2-vCPU host the cells
#: measured 5.2-9.4x at full scale and 6.8-8.5x at smoke scale, while
#: a fall back to the circuit path reads about 1x.
QAOA_EVAL_MIN_SPEEDUP = 3.0

#: Floor on the 4-qubit QML-gradient cell (the ``qml_train`` shape).
#: A 2-vCPU host measured 3.6-4.0x at full scale and 3.7x at smoke
#: scale; a fall back to per-row evaluation reads about 1x.
QML_GRADIENT_MIN_SPEEDUP = 2.5

#: Floor on the headline SA-sweep cell (8 relations, the
#: ``pipeline_batch`` shape). A 2-vCPU host measured 1.7x there,
#: 1.4-2.3x across the full-scale cells and 1.6-1.8x on the 5-relation
#: smoke cell; a fall back to the previous sweep reads about 1x.
SA_SWEEP_MIN_SPEEDUP = 1.4

#: Floor on the 4-qubit VQC-fit cell (the ``qml_train`` shape).
#: A 2-vCPU host measured 1.37-1.52x there over three full-scale runs
#: and 1.29-1.45x at smoke scale (1.29x with a test suite running
#: beside it); the 6- and 8-qubit cells read 1.1-1.3x and 0.9-1.05x,
#: because simulation dominates there. A fall back to building one
#: circuit per row reads about 1x.
VQC_FIT_MIN_SPEEDUP = 1.2

#: Floor on the 768-row, 4-qubit batch-gates cell (one ``qml_train``
#: gradient block), about half the measured gain: a 2-vCPU host read
#: 3.09x there at full scale and 3.14x at smoke scale (the 24-row cell
#: 1.19x, the 8- and 12-qubit cells 1.51x and 1.50x). A fall back to
#: the moveaxis-and-matmul path reads about 1x.
BATCH_GATES_MIN_SPEEDUP = 1.5

#: Floor on the 4-qubit shift-fork cell (the ``qml_train`` minibatch),
#: about 0.8x the measured gain: a 2-vCPU host read 1.51-1.66x there
#: over six full-scale runs and 1.50x at smoke scale (the 6- and
#: 8-qubit cells 1.9-2.0x). A fall back to one run per shifted copy
#: plus an output pass reads about 1x.
SHIFT_FORK_MIN_SPEEDUP = 1.2

#: Floor on the 14-qubit QAOA-mixer cell (the widest ``qaoa_solve``
#: shape), about 0.75x the lowest full-scale reading there: a 2-vCPU
#: host read 1.78-1.82x over five full-scale runs (the 9-qubit cell
#: 4.1-4.3x, the 12-qubit cells 2.4-2.8x). A fall back to one
#: ``apply_matrix`` per qubit reads about 1x.
QAOA_MIXER_MIN_SPEEDUP = 1.3

# The PR-3 dispatch-overhead ceiling (and the schema tag) now live in
# repro.telemetry.bench_schema, shared with bench-compare and CI.


# ----------------------------------------------------------------------
# Loop references: the pre-batching implementations, kept verbatim so
# the perf trajectory always compares against the same baseline.
# ----------------------------------------------------------------------
def loop_encoded_states(encoding, X):
    """One simulator call per data point (pre-batching kernel path)."""
    simulator = StatevectorSimulator()
    return np.array([simulator.run(encoding.circuit(x)) for x in X])


def loop_gram(encoding, X):
    """Gram matrix over per-point encoded states."""
    states = loop_encoded_states(encoding, X)
    return np.abs(states @ states.conj().T) ** 2


def loop_minibatch_gradient(model, rows, targets, weights):
    """Per-row minibatch gradient (pre-batching training closure): one
    ``expectation`` and one single-circuit parameter-shift call per row."""
    binding = dict(zip(model._weight_params, weights))
    grad = np.zeros(model.num_weights)
    for x, target in zip(rows, targets):
        circuit = model._full_circuit(x)
        output = model._sim.expectation(circuit.bind(binding),
                                        model._observable)
        grad += 2.0 * (output - target) * parameter_shift_gradient(
            circuit, model._observable, weights, simulator=model._sim)
    return grad / len(rows)


class PerRowRegressor(VariationalRegressor):
    """The regressor before the template path: every output pass and
    minibatch gradient builds and binds one circuit per row (the
    previous methods, verbatim)."""

    def _batch_raw_outputs(self, rows, weights):
        if self.shots is not None:
            return np.array(
                [self._raw_output(x, weights) for x in rows]
            )
        binding = dict(zip(self._weight_params, weights))
        circuits = [self._full_circuit(x).bind(binding) for x in rows]
        _count_evaluations(len(circuits))
        states = self._sim.run_batch(circuits)
        return self._observable.expectation(states, self.encoding.num_qubits)

    def _minibatch_gradient(self, rows, targets, weights):
        outputs = self._batch_raw_outputs(rows, weights)
        row_gradients = parameter_shift_gradient(
            [self._full_circuit(x) for x in rows], self._observable,
            weights, simulator=self._sim,
        )
        grad = np.zeros(self.num_weights)
        for output, target, row in zip(outputs, targets, row_gradients):
            grad += 2.0 * (output - target) * row
        return grad / len(rows)


def loop_sa_solve(ising, num_sweeps, num_reads, seed):
    """Pre-batching SA: per-read Python loop, one spin flip at a time.

    Returns the list of per-read final energies (ascending reads).
    """
    rng = np.random.default_rng(seed)
    fields = ising.local_fields()
    couplings = ising.coupling_matrix()
    n = ising.num_spins
    betas = auto_beta_schedule(ising, num_sweeps)
    energies = []
    for _ in range(num_reads):
        spins = rng.choice((-1.0, 1.0), size=n)
        for beta in betas:
            order = rng.permutation(n)
            thresholds = rng.random(n)
            for position, i in enumerate(order):
                local = fields[i] + couplings[i] @ spins
                delta = -2.0 * spins[i] * local
                if delta <= 0 or thresholds[position] < math.exp(
                        -beta * delta):
                    spins[i] = -spins[i]
        energies.append(float(ising.energies(spins[None, :])[0]))
    return energies


class FullSweepSolver(SimulatedAnnealingSolver):
    """SA with the sweep that preceded the frozen-prefix start: every
    position is visited and accepted flips go through boolean fancy
    indexing."""

    def _sweep(self, spins, local, couplings, beta, energies=None):
        reads, n = spins.shape
        order = self._rng.permutation(n)
        thresholds = self._rng.random((n, reads))
        accepted = 0
        for position, i in enumerate(order):
            delta = -2.0 * spins[:, i] * local[:, i]
            # exp(min(-beta*delta, 0)) is 1 for downhill moves, so the
            # uniform threshold in [0, 1) always accepts them — same
            # semantics as the scalar `delta <= 0 or ...` test, without
            # overflowing exp for strongly downhill moves.
            accept = thresholds[position] < np.exp(
                np.minimum(-beta * delta, 0.0)
            )
            if accept.any():
                flipped = spins[accept, i]
                spins[accept, i] = -flipped
                local[accept] -= 2.0 * flipped[:, None] * couplings[i]
                if energies is not None:
                    energies[accept] += delta[accept]
                accepted += int(accept.sum())
        return accepted


def parent_apply_matrix_batch(states, matrix, qubits, num_qubits):
    """``apply_matrix_batch`` before the amplitude-major kernels."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise ValueError("states must be a (batch, 2**n) matrix")
    batch = states.shape[0]
    k = len(qubits)
    mat = np.asarray(matrix, dtype=complex)
    psi = states.reshape((batch,) + (2,) * num_qubits)
    # Move the target-qubit axes to the back, flatten everything else,
    # and hit the whole batch with one (batched) matmul.
    axes = tuple(q + 1 for q in qubits)
    back = tuple(range(num_qubits + 1 - k, num_qubits + 1))
    psi = np.moveaxis(psi, axes, back)
    shuffled_shape = psi.shape
    psi = np.ascontiguousarray(psi).reshape(batch, -1, 2 ** k)
    if mat.ndim == 2:
        psi = psi @ mat.T
    elif mat.ndim == 3:
        if mat.shape[0] != batch:
            raise ValueError("per-element matrix stack must match batch size")
        psi = np.matmul(psi, np.swapaxes(mat, -1, -2))
    else:
        raise ValueError("matrix must be 2-D (shared) or 3-D (per-element)")
    psi = psi.reshape(shuffled_shape)
    psi = np.moveaxis(psi, back, axes)
    return np.ascontiguousarray(psi).reshape(batch, -1)


def parent_apply_diagonal_batch(states, diagonal, qubits, num_qubits):
    """``apply_diagonal_batch`` before the amplitude-major kernels."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise ValueError("states must be a (batch, 2**n) matrix")
    batch = states.shape[0]
    k = len(qubits)
    diag = np.asarray(diagonal, dtype=complex)
    if diag.ndim == 1:
        diag = diag.reshape((1,) + (2,) * k)
    elif diag.ndim == 2:
        if diag.shape[0] != batch:
            raise ValueError("per-element diagonal must match batch size")
        diag = diag.reshape((batch,) + (2,) * k)
    else:
        raise ValueError("diagonal must be 1-D (shared) or 2-D (per-element)")
    # Pad trailing singleton axes then move the gate axes onto the
    # target qubit axes so the multiply broadcasts across the rest.
    diag = diag.reshape(diag.shape + (1,) * (num_qubits - k))
    diag = np.moveaxis(diag, range(1, k + 1), [q + 1 for q in qubits])
    psi = states.reshape((batch,) + (2,) * num_qubits)
    return (psi * diag).reshape(batch, -1)


def parent_apply_instruction_batch(states, inst, values, num_qubits):
    """The per-instruction step of ``run_angles`` before the
    amplitude-major kernels: a ``(batch, 2**n)`` stack, a broadcast
    phase multiply for diagonal gates and a stacked matmul otherwise."""
    name, qubits = inst.name, inst.qubits
    if GATE_NUM_PARAMS[name] == 0:
        diag = gate_diagonal(name)
        if diag is not None:
            return parent_apply_diagonal_batch(states, diag, qubits,
                                               num_qubits)
        return parent_apply_matrix_batch(states, gate_matrix(name), qubits,
                                         num_qubits)
    if np.all(values == values[0]):  # one shared matrix for the batch
        diag = gate_diagonal(name, values[0])
        if diag is not None:
            return parent_apply_diagonal_batch(states, diag, qubits,
                                               num_qubits)
        return parent_apply_matrix_batch(states,
                                         gate_matrix(name, values[0]),
                                         qubits, num_qubits)
    diag = batch_gate_diagonal(name, values)
    if diag is not None:
        return parent_apply_diagonal_batch(states, diag, qubits, num_qubits)
    return parent_apply_matrix_batch(states, batch_gate_matrix(name, values),
                                     qubits, num_qubits)


def parent_run_angles(template, angles):
    """``run_angles`` (telemetry off) on the previous batched path."""
    num_qubits = template.num_qubits
    states = np.zeros((len(angles), 2 ** num_qubits), dtype=complex)
    states[:, 0] = 1.0
    column = 0
    for inst in template.instructions:
        width = len(inst.params)
        states = parent_apply_instruction_batch(
            states, inst, angles[:, column:column + width], num_qubits)
        column += width
    return states


def parent_shift_gradients(sim, template, bound_angles, layout, params,
                           obs):
    """``_shift_gradients`` before the fork pass, verbatim but for its
    ``2**14``-amplitude block: one ``run_angles`` row per shifted copy.

    ``layout`` lists the template's symbolic slots. The shift plan is
    built once; angle row ``b * terms + t`` is row ``b``'s bound angles
    with term ``t``'s shift added at its slot.
    """
    registry = _metrics.get_registry()
    if registry is not None:
        registry.counter("qml_gradient_evaluations_total",
                         "parameter-shift gradients evaluated (one per "
                         "point)").inc(len(bound_angles))
    index = {id(p): k for k, p in enumerate(params)}
    plan = []  # (parameter index, slot, shift, chain-rule weight)
    for k, slot, scale, name in sorted(
            (index[id(p)], slot, scale, name)
            for slot, p, scale, name in layout):
        if name in SHIFT_RULE_GATES:
            shift, factor = _SHIFT, 0.5
        else:
            shift, factor = _FD_EPS, 0.5 / _FD_EPS
        plan.append((k, slot, +shift, scale * factor))
        plan.append((k, slot, -shift, -scale * factor))
    points = len(bound_angles)
    gradients = np.zeros((points, len(params)))
    if not plan:
        return gradients
    ks, slots, shifts, weights = (np.array(column) for column in zip(*plan))
    terms = len(plan)
    angles = np.repeat(bound_angles, terms, axis=0)
    rows = np.arange(len(angles))
    angles[rows, np.tile(slots, points)] += np.tile(shifts, points)
    point_of_row = rows // terms
    param_of_row = np.tile(ks, points)
    weight_of_row = np.tile(weights, points)
    num_qubits = template.num_qubits
    block = max(1, (1 << 14) >> num_qubits)
    with telemetry.span("qml.parameter_shift"):
        for start in range(0, len(angles), block):
            chunk = slice(start, start + block)
            states = sim.run_angles(template, angles[chunk])
            np.add.at(gradients,
                      (point_of_row[chunk], param_of_row[chunk]),
                      weight_of_row[chunk]
                      * obs.expectation(states, num_qubits))
    return gradients


def parent_outputs_and_gradients(template, observable, values, angles,
                                 simulator):
    """A minibatch's gradient rows and outputs before the fork pass:
    ``parameter_shift_gradient``'s angle-matrix form on
    :func:`parent_shift_gradients`, then one output pass through
    ``run_angles`` over the same angles."""
    obs = _as_pauli_sum(observable)
    layout = _symbolic_slots(template)
    params = _parameters(layout)
    bound = gate_angles([template.bind(dict(zip(params, values)))])[0]
    angles = np.array(angles, dtype=float)
    columns = [slot for slot, _, _, _ in layout]
    angles[:, columns] = bound[columns]
    rows = parent_shift_gradients(simulator, template, angles, layout,
                                  params, obs)
    outputs = obs.expectation(simulator.run_angles(template, angles),
                              template.num_qubits)
    return rows, outputs


def parent_qaoa_state(energies, gammas, betas):
    """``_qaoa_state`` before the Kronecker-factor mixer: one
    ``apply_matrix`` per qubit and mixer layer."""
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


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _timed(function):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def run_kernel_workload(num_points, num_features, depth,
                        seed=7):
    """Fidelity-kernel Gram: batched engine vs per-point loop."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(num_points, num_features))
    encoding = IQPEncoding(num_features, depth=depth)
    kernel = FidelityQuantumKernel(encoding)

    reference, loop_seconds = _timed(lambda: loop_gram(encoding, X))
    batched, batched_seconds = _timed(lambda: kernel(X))
    repeat = kernel(X)

    return {
        "name": "kernel_gram",
        "params": {
            "num_points": num_points,
            "num_features": num_features,
            "depth": depth,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": loop_seconds / batched_seconds,
        "max_abs_diff": float(np.abs(batched - reference).max()),
        "deterministic": bool(np.array_equal(batched, repeat)),
    }


def run_sa_workload(num_spins, num_reads, num_sweeps,
                    seed=11):
    """SA restarts: read-vectorized sweeps vs the per-read Python loop."""
    ising = IsingModel.random(num_spins, density=0.5, field_scale=0.3,
                              seed=seed)

    loop_energies, loop_seconds = _timed(lambda: loop_sa_solve(
        ising, num_sweeps, num_reads, seed=seed))
    solver = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads, seed=seed)
    batched, batched_seconds = _timed(lambda: solver.solve(ising))
    repeat = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads,
                                      seed=seed).solve(ising)

    return {
        "name": "sa_sweeps",
        "params": {
            "num_spins": num_spins,
            "num_reads": num_reads,
            "num_sweeps": num_sweeps,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": loop_seconds / batched_seconds,
        "loop_best_energy": min(loop_energies),
        "batched_best_energy": batched.best_energy,
        "deterministic": bool(
            batched.best_energy == repeat.best_energy
            and tuple(batched.best.assignment)
            == tuple(repeat.best.assignment)
        ),
    }


def _direct_sa_best(compiled, num_sweeps, num_reads, seed):
    """The pre-dispatch path: seeded backend + hand-rolled best pick.

    Mirrors exactly what ``repro.compile.solve`` does around the
    backend (decode every read, keep the strictly-best score) so the
    timing difference isolates the dispatch layer itself.
    """
    solver = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads, seed=seed)
    samples = solver.solve(compiled.model)
    solutions = [compiled.decode(sample.assignment)
                 for sample in samples]
    best = solutions[0]
    best_score = compiled.score(best)
    for candidate in solutions[1:]:
        score = compiled.score(candidate)
        if score < best_score:
            best, best_score = candidate, score
    return best


def run_compile_workload(num_relations, num_sweeps,
                         num_reads, repeats, seed=13):
    """Compile-layer dispatch vs direct solver call on join ordering."""
    graph = random_join_graph(num_relations, topology="chain", seed=seed)
    compiled = JoinOrderQUBO(graph).compile()
    config = SolverConfig(num_sweeps=num_sweeps, num_reads=num_reads,
                          seed=seed)

    # Warm both paths once (first-call allocation noise), then time
    # min-of-``repeats`` — the stable estimator for sub-second runs.
    direct_warm = _direct_sa_best(compiled, num_sweeps, num_reads, seed)
    dispatch_warm = dispatch_solve(compiled, solver="sa", config=config)
    dispatch_repeat = dispatch_solve(compiled, solver="sa", config=config)

    direct_times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _direct_sa_best(compiled, num_sweeps, num_reads, seed)
        direct_times.append(time.perf_counter() - started)
    dispatch_times = []
    for _ in range(repeats):
        started = time.perf_counter()
        dispatch_solve(compiled, solver="sa", config=config)
        dispatch_times.append(time.perf_counter() - started)

    direct_seconds = min(direct_times)
    dispatch_seconds = min(dispatch_times)
    return {
        "name": "compile_dispatch",
        "params": {
            "num_relations": num_relations,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "direct_seconds": direct_seconds,
        "dispatch_seconds": dispatch_seconds,
        "overhead_fraction": dispatch_seconds / direct_seconds - 1.0,
        "matches_direct": bool(
            dispatch_warm.solution.order == direct_warm.order
            and dispatch_warm.solution.cost == direct_warm.cost
        ),
        "deterministic": bool(
            dispatch_warm.solution.order == dispatch_repeat.solution.order
            and dispatch_warm.solution.cost == dispatch_repeat.solution.cost
        ),
    }


def run_service_workload(num_jobs, num_relations,
                         num_sweeps, num_reads, workers, seed=17,
                         gate_speedup_tolerance=0.10):
    """Solve-service throughput: warm worker pool vs sequential loop.

    The main batch is ``num_jobs`` *independent* seeded join-order SA
    solves — the service's bread-and-butter shape, executed on the
    persistent warm pool (workers spawned once, each job's model
    pickled through the worker pipe). Correctness is bit-for-bit: the
    concurrent results must equal the sequential dispatch results
    sample-for-sample (``matches_direct``), and a second service run
    must reproduce them (``deterministic``). The speedup gate is
    CPU-aware: with >= 2 CPUs the workload declares the
    real-parallelism floor (1.5x); on a single core — where parallel
    speedup is physically impossible — it declares parity (1.0x)
    instead. Both come with the declared ``gate_speedup_tolerance`` so
    scheduler jitter cannot flake the gate (see
    ``bench_schema.effective_speedup_floor``). The pool counters of the
    main run land in ``pool``: one round trip per job.
    """
    from repro.service import SolveService
    from repro.service.bench import build_jobs, results_match

    jobs = build_jobs(num_jobs, num_relations, num_sweeps, num_reads,
                      seed)
    specs = [(problem, "sa", config) for problem, config in jobs]

    sequential, sequential_seconds = _timed(lambda: [
        dispatch_solve(problem, "sa", config=config)
        for problem, config in jobs])
    with SolveService(max_workers=workers) as service:
        concurrent, service_seconds = _timed(
            lambda: service.solve_many(specs))
        pool_stats = service.stats()["pool"]
    # A fresh service (empty cache, new workers) must reproduce the
    # batch exactly.
    with SolveService(max_workers=workers) as service:
        repeat = service.solve_many(specs)

    cpus = os.cpu_count() or 1
    record = {
        "name": "service_throughput",
        "params": {
            "num_jobs": num_jobs,
            "num_relations": num_relations,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "workers": workers,
            "seed": seed,
            "cpu_count": cpus,
        },
        "sequential_seconds": sequential_seconds,
        "service_seconds": service_seconds,
        "speedup": sequential_seconds / service_seconds,
        "matches_direct": all(
            results_match(direct, concurrent_result)
            for direct, concurrent_result in zip(sequential, concurrent)
        ),
        "deterministic": all(
            results_match(first, second)
            for first, second in zip(concurrent, repeat)
        ),
        "pool": {
            "respawns": pool_stats["respawns"],
            "dispatches_warm": pool_stats["dispatches_warm"],
            "dispatches_cold": pool_stats["dispatches_cold"],
            "jobs_run": pool_stats["jobs_run"],
        },
    }
    if cpus >= 2 and workers >= 2:
        record["gate_min_speedup"] = SERVICE_MIN_SPEEDUP
        record["gate_speedup_tolerance"] = gate_speedup_tolerance
    else:
        # Single-core parity runs pay the full process round-trip
        # overhead with zero parallelism to hide it; give the parity
        # floor a wider jitter band than the real-speedup floor.
        record["gate_min_speedup"] = SERVICE_MIN_SPEEDUP_SINGLE_CPU
        record["gate_speedup_tolerance"] = max(
            gate_speedup_tolerance, 0.20)
    return record


# ----------------------------------------------------------------------
# Metrics cheap-when-off workload: shipped instrumented paths (registry
# disabled) vs bare replicas with the instrumentation stripped.
# ----------------------------------------------------------------------
def bare_sa_solve(ising, num_sweeps, num_reads, seed):
    """``SimulatedAnnealingSolver.solve`` minus every accounting hook.

    Byte-for-byte the same numerical work (same RNG consumption, same
    ``_sweep`` inner loop, same sample assembly) with the telemetry
    span, metrics-registry guard and progress
    plumbing stripped — the baseline the shipped path's disabled-mode
    cost is measured against.
    """
    solver = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads, seed=seed)
    fields = ising.local_fields()
    couplings = ising.coupling_matrix()
    n = ising.num_spins
    betas = list(auto_beta_schedule(ising, num_sweeps))
    spins = solver._rng.choice((-1.0, 1.0), size=(num_reads, n))
    local = spins @ couplings + fields
    for beta in betas:
        solver._sweep(spins, local, couplings, beta)
    energies = ising.energies(spins)
    return SampleSet([
        Sample(tuple(spins_to_bits(row.astype(int))), float(energy))
        for row, energy in zip(spins, energies)
    ])


def bare_run_batch(circuits, num_qubits):
    """``StatevectorSimulator.run_batch`` (through ``run_angles``) minus
    the accounting guard."""
    if not _structurally_identical(circuits):
        raise ValueError("metrics workload expects a template batch")
    angles = gate_angles(circuits)
    psi, out, scratch = np.empty((3, 2 ** num_qubits, len(circuits)),
                                 dtype=complex)
    psi[...] = 0.0
    psi[0] = 1.0
    gathers = {}
    column = 0
    for inst in circuits[0].instructions:
        width = len(inst.params)
        _apply_gate(psi, out, scratch, inst,
                    angles[:, column:column + width], num_qubits, gathers)
        psi, out = out, psi
        column += width
    return psi.T.copy()


def bare_frontdoor_solve(problem, config):
    """``repro.compile.solve`` minus every observability guard.

    Same registry backend, same decode, same result assembly — with
    the telemetry span, profiler ``maybe_capture``, metrics-registry
    histogram and convergence plumbing stripped. This is the baseline
    the front door's fully-disabled cost is measured against.
    """
    spec = compile_dispatch._REGISTRY["sa"]
    start = time.perf_counter()
    samples = spec.run(problem.model, config, None)
    duration = time.perf_counter() - start
    solutions = compile_dispatch.decode_samples(problem, samples)
    return compile_dispatch.assemble_result(
        problem, "sa", config, samples, solutions, duration)


def _min_paired_times(bare_fn, shipped_fn, repeats):
    """Interleaved timings; returns (bare_min, shipped_min, overhead).

    The two sides run back to back so slow drift (thermal, page
    cache) hits both equally, and the within-pair order flips every
    repeat so neither side systematically enjoys the warm-cache second
    slot. One untimed warmup pair runs first so compilation/allocator
    effects hit neither side.

    The overhead estimate is the smaller of two estimators of the same
    true ratio: the ratio of the per-side minima (robust as long as
    each side gets *one* clean run) and the median per-pair ratio
    (robust as long as most pairs are clean). On a shared one-core box
    their failure modes are near-disjoint — a short scheduler burst
    corrupts one side's minimum but only one pair's ratio, while a
    long burst spanning many pairs drags the median but leaves clean
    minima outside it. Timing noise only ever *inflates* a
    measurement, while a real regression (say per-sweep accounting
    sneaking into the hot loop) shifts every pair ratio and both
    minima uniformly upward, so sensitivity to real regressions
    survives taking the smaller estimate.
    """
    bare_fn()
    shipped_fn()
    bare_times, shipped_times = [], []
    for index in range(repeats):
        first, second = ((bare_fn, shipped_fn) if index % 2 == 0
                         else (shipped_fn, bare_fn))
        started = time.perf_counter()
        first()
        first_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        second()
        second_elapsed = time.perf_counter() - started
        if index % 2 == 0:
            bare_times.append(first_elapsed)
            shipped_times.append(second_elapsed)
        else:
            shipped_times.append(first_elapsed)
            bare_times.append(second_elapsed)
    ratios = sorted(shipped / bare
                    for bare, shipped in zip(bare_times, shipped_times))
    middle = len(ratios) // 2
    if len(ratios) % 2:
        median_ratio = ratios[middle]
    else:
        median_ratio = (ratios[middle - 1] + ratios[middle]) / 2.0
    bare_min, shipped_min = min(bare_times), min(shipped_times)
    overhead = min(shipped_min / bare_min, median_ratio) - 1.0
    return bare_min, shipped_min, overhead


def run_metrics_overhead_workload(num_spins, num_reads,
                                  num_sweeps, num_points, num_features,
                                  depth, repeats, gate_max_overhead,
                                  seed=19):
    """Cheap-when-off gate for the live-metrics instrumentation.

    Four instrumented hot paths — SA ``solve`` (read-vectorized
    sweeps), ``run_batch`` (template batching), ``run_backend`` (the
    backend step the service workers run, telemetry span + profiler
    + metrics guards around one registry backend) and the
    ``repro.compile.solve`` front door (the same backend step plus
    decode and assembly) — are timed with *all* accounting disabled
    and compared against bare replicas of the identical numerical
    work with the instrumentation stripped. ``overhead_fraction`` is
    the worst of the four and the
    record embeds ``gate_max_overhead`` so ``bench_schema --gates``
    enforces the budget (2% at full scale). Telemetry runs at the
    ``off`` level for the duration (``telemetry.observe("off")``), so
    the timed paths take the fully-disabled branch of every layer;
    the previous level is restored after.
    """
    previous = telemetry.observed_level()
    telemetry.observe("off")
    try:
        ising = IsingModel.random(num_spins, density=0.5,
                                  field_scale=0.3, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(num_points, num_features))
        encoding = IQPEncoding(num_features, depth=depth)
        circuits = [encoding.circuit(x) for x in X]
        simulator = StatevectorSimulator()
        config = SolverConfig(num_sweeps=num_sweeps,
                              num_reads=num_reads, seed=seed)

        # Correctness first: each replica must reproduce its shipped
        # path bit for bit (it is the same numerical code).
        bare_samples = bare_sa_solve(ising, num_sweeps, num_reads, seed)
        shipped_samples = SimulatedAnnealingSolver(
            num_sweeps=num_sweeps, num_reads=num_reads,
            seed=seed).solve(ising)
        num_qubits = circuits[0].num_qubits
        bare_states = bare_run_batch(circuits, num_qubits)
        shipped_states = simulator.run_batch(circuits)
        bare_dispatch = compile_dispatch._REGISTRY["sa"].run(
            ising, config, None)
        shipped_dispatch = compile_dispatch.run_backend(
            ising, "sa", config, "service.worker.sa")["samples"]
        compiled = JoinOrderQUBO(random_join_graph(
            6, "chain", seed=seed)).compile()
        bare_front = bare_frontdoor_solve(compiled, config)
        shipped_front = dispatch_solve(compiled, "sa", config=config)
        deterministic = bool(
            np.array_equal(bare_samples.energies(),
                           shipped_samples.energies())
            and bare_samples.best.assignment
            == shipped_samples.best.assignment
            and np.array_equal(bare_states, shipped_states)
            and np.array_equal(bare_dispatch.energies(),
                               shipped_dispatch.energies())
            and bare_front.solution == shipped_front.solution
            and bare_front.energy == shipped_front.energy
            and np.array_equal(bare_front.energies,
                               shipped_front.energies)
        )

        sa_bare, sa_shipped, sa_over = _min_paired_times(
            lambda: bare_sa_solve(ising, num_sweeps, num_reads, seed),
            lambda: SimulatedAnnealingSolver(
                num_sweeps=num_sweeps, num_reads=num_reads,
                seed=seed).solve(ising),
            repeats)
        batch_bare, batch_shipped, batch_over = _min_paired_times(
            lambda: bare_run_batch(circuits, num_qubits),
            lambda: simulator.run_batch(circuits),
            repeats)
        dispatch_bare, dispatch_shipped, dispatch_over = _min_paired_times(
            lambda: compile_dispatch._REGISTRY["sa"].run(
                ising, config, None),
            lambda: compile_dispatch.run_backend(
                ising, "sa", config, "service.worker.sa"),
            repeats)
        front_bare, front_shipped, front_over = _min_paired_times(
            lambda: bare_frontdoor_solve(compiled, config),
            lambda: dispatch_solve(compiled, "sa", config=config),
            repeats)
    finally:
        telemetry.observe(previous)

    overheads = {
        "sa_overhead": sa_over,
        "batch_overhead": batch_over,
        "dispatch_overhead": dispatch_over,
        "frontdoor_overhead": front_over,
    }
    return {
        "name": "metrics_overhead",
        "params": {
            "num_spins": num_spins,
            "num_reads": num_reads,
            "num_sweeps": num_sweeps,
            "num_points": num_points,
            "num_features": num_features,
            "depth": depth,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "sa_bare_seconds": sa_bare,
        "sa_shipped_seconds": sa_shipped,
        "batch_bare_seconds": batch_bare,
        "batch_shipped_seconds": batch_shipped,
        "dispatch_bare_seconds": dispatch_bare,
        "dispatch_shipped_seconds": dispatch_shipped,
        "frontdoor_bare_seconds": front_bare,
        "frontdoor_shipped_seconds": front_shipped,
        **overheads,
        "overhead_fraction": max(overheads.values()),
        "gate_max_overhead": gate_max_overhead,
        "deterministic": deterministic,
    }


def run_obs_overhead_workload(num_jobs, num_relations,
                              num_sweeps, num_reads, workers, repeats,
                              gate_max_overhead, seed=29):
    """Enabled-cost gate for the ``flight`` telemetry level.

    The service-throughput batch (independent seeded join-order jobs
    on the warm pool) runs once at ``telemetry.observe("off")`` and
    once at ``telemetry.observe("flight")`` — the metrics registry,
    trace contexts and the lifecycle event ring with the flight
    recorder that cuts capsules from it, the level
    ``serve-bench --flight`` ships. The enabled side pays registry
    accounting and the workers' snapshot merge, context minting per
    job, trace-id plumbing over the pipe protocol and one ring instant
    per job fact; the record's ``overhead_fraction``
    caps that cost at the embedded ``gate_max_overhead`` (5% at full
    scale). ``matches_direct`` asserts the observed batch reproduces
    the plain batch bit for bit — observability never touches the
    answer — and ``traced_jobs`` counts the distinct trace ids minted
    (one per job).
    """
    from repro.service import SolveService
    from repro.service.bench import build_jobs, results_match

    jobs = build_jobs(num_jobs, num_relations, num_sweeps, num_reads,
                      seed)
    specs = [(problem, "sa", config) for problem, config in jobs]

    def run_at(level):
        previous = telemetry.observed_level()
        telemetry.observe(level)
        try:
            with SolveService(max_workers=workers) as service:
                return service.solve_many(specs)
        finally:
            telemetry.observe(previous)

    def run_plain():
        return run_at("off")

    def run_observed():
        return run_at("flight")

    # Correctness first: the observed batch must reproduce the plain
    # batch bit for bit, and a second observed run must reproduce the
    # first (fresh service, fresh contexts — same answers).
    plain_warm = run_plain()
    observed_warm = run_observed()
    observed_repeat = run_observed()
    trace_ids = {result.provenance["service"]["trace_id"]
                 for result in observed_warm}

    plain_min, observed_min, overhead = _min_paired_times(
        run_plain, run_observed, repeats)

    return {
        "name": "obs_overhead",
        "params": {
            "num_jobs": num_jobs,
            "num_relations": num_relations,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "workers": workers,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "plain_seconds": plain_min,
        "observed_seconds": observed_min,
        "overhead_fraction": overhead,
        "matches_direct": all(
            results_match(plain, observed)
            for plain, observed in zip(plain_warm, observed_warm)
        ),
        "deterministic": all(
            results_match(first, second)
            for first, second in zip(observed_warm, observed_repeat)
        ),
        "traced_jobs": len(trace_ids),
        "gate_max_overhead": gate_max_overhead,
    }


def run_pipeline_workload(topologies, size,
                          instances_per_cell, num_sweeps, num_reads,
                          repeats, gate_max_overhead, seed=23):
    """Staged pipeline vs direct compile+dispatch on a generated
    join-order workload.

    Both arms run the identical compiled problems at the identical
    seeded configs; the pipeline arm additionally pays pre-check,
    stage reporting and plan assembly per query. ``matches_direct``
    asserts the decoded orders and costs agree bit for bit (the
    polish is off so the pipeline does not improve on the raw
    decode), and the embedded ``gate_max_overhead`` caps the
    machinery's cost relative to the raw formulation+solve loop.
    """
    from repro.db.workloads import generate_join_workload
    from repro.pipeline import JoinOrderFormulation, OptimizationPipeline

    workload = generate_join_workload(
        topologies=topologies, sizes=(size,),
        instances_per_cell=instances_per_cell, seed=seed,
    )
    graphs = workload.graphs()
    configs = [SolverConfig(num_sweeps=num_sweeps, num_reads=num_reads,
                            seed=instance.seed % (2 ** 31))
               for instance in workload.instances]
    pipeline = OptimizationPipeline(
        JoinOrderFormulation(polish=False), solve="sa"
    )

    def run_direct():
        return [dispatch_solve(JoinOrderQUBO(graph).compile(),
                               solver="sa", config=config)
                for graph, config in zip(graphs, configs)]

    def run_pipe():
        return pipeline.optimize_workload(graphs, configs=configs)

    # Warm both paths once and keep the warm outputs for the parity
    # and determinism checks. The arms are then timed in interleaved
    # pairs, so host drift over the run hits both of them.
    direct_warm = run_direct()
    pipeline_warm = run_pipe()
    pipeline_repeat = run_pipe()

    direct_seconds, pipeline_seconds, overhead = _min_paired_times(
        run_direct, run_pipe, repeats)
    return {
        "name": "pipeline_throughput",
        "params": {
            "topologies": list(topologies),
            "size": size,
            "instances_per_cell": instances_per_cell,
            "num_queries": len(workload),
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "repeats": repeats,
            "workload_key": workload.workload_key,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "direct_seconds": direct_seconds,
        "pipeline_seconds": pipeline_seconds,
        "per_query_seconds": pipeline_seconds / len(workload),
        "overhead_fraction": overhead,
        "matches_direct": all(
            plan.status == "ok"
            and plan.solution.order == result.solution.order
            and plan.solution.cost == result.solution.cost
            for plan, result in zip(pipeline_warm, direct_warm)
        ),
        "deterministic": all(
            first.solution.order == second.solution.order
            and first.solution.cost == second.solution.cost
            for first, second in zip(pipeline_warm, pipeline_repeat)
        ),
        "gate_max_overhead": gate_max_overhead,
    }


def _server_problem_body(index, num_sweeps, num_reads, seed, **extra):
    """A small QUBO submission body, distinct per ``index``.

    Distinct coefficients *and* seeds: identical bodies are idempotent
    (same server job) and identical solves coalesce inside the
    service, either of which would silently collapse the load the
    soak and backpressure phases mean to generate.
    """
    n = 4
    body = {
        "problem": {
            "kind": "qubo",
            "num_variables": n,
            "linear": {str(i): -1.0 - 0.1 * index for i in range(n)},
            "quadratic": [[i, i + 1, 2.0 + 0.05 * index]
                          for i in range(n - 1)],
        },
        "solver": "sa",
        "config": {"num_sweeps": num_sweeps, "num_reads": num_reads,
                   "seed": seed * 100 + index, "convergence": True},
    }
    body.update(extra)
    return body


def _strip_provenance(document):
    return {key: value for key, value in document.items()
            if key != "provenance"}


def run_server_workload(num_jobs, num_clients, num_sweeps,
                        num_reads, queue_capacity, seed=31):
    """HTTP front-end soak and backpressure.

    **Soak** — ``num_clients`` stdlib clients drive a thread-mode
    server (HTTP-layer cost, not process-pool cost) through a mixed
    phase: each submits its share of ``num_jobs`` distinct problems
    (cache misses), polls results, then resubmits them under a tag
    (new server jobs that hit the result cache). Every request is
    timed client-side; the record carries p50/p95 request latency and
    aggregate request throughput. One extra job is then streamed live
    over SSE, with per-row lag = client receive time − the row's
    logged ``ts``. ``matches_direct`` asserts the HTTP result document
    equals a direct in-process ``solve()`` bit for bit (config
    resolved the way the service stores it); ``deterministic`` asserts
    the cache-hit resubmission returns the identical document.

    **Backpressure** — a second server with a ``queue_capacity``-deep
    job queue takes a burst of distinct submissions: the record must
    show non-zero ``rejected_429`` (each with a usable ``Retry-After``)
    while every accepted job still completes.
    """
    import threading

    from repro.server import build_problem, result_document
    from repro.server.testing import Client, ServerThread
    from repro.telemetry.metrics import quantile

    latencies = []
    latency_lock = threading.Lock()
    documents = {}

    def timed(client, method, path, body=None):
        started = time.perf_counter()
        result = client.request(method, path, body)
        with latency_lock:
            latencies.append(time.perf_counter() - started)
        return result

    def soak_worker(thread, client_index, errors):
        try:
            with Client(*thread.address,
                        tenant=f"soak-{client_index}") as client:
                mine = range(client_index, num_jobs, num_clients)
                for index in mine:  # miss phase
                    body = _server_problem_body(index, num_sweeps,
                                                num_reads, seed)
                    status, _, accepted = timed(client, "POST",
                                                "/v1/jobs", body)
                    assert status == 201, f"submit -> {status}"
                    status, document = client.wait_result(
                        accepted["job_id"])
                    assert status == 200, f"result -> {status}"
                    documents[index] = document["result"]
                    status, _, _ = timed(
                        client, "GET",
                        f"/v1/jobs/{accepted['job_id']}")
                    assert status == 200, f"status -> {status}"
                for index in mine:  # hit phase: new jobs, cached solve
                    body = _server_problem_body(
                        index, num_sweeps, num_reads, seed,
                        tag=f"hit-{client_index}")
                    status, _, accepted = timed(client, "POST",
                                                "/v1/jobs", body)
                    assert status == 201, f"resubmit -> {status}"
                    status, document = client.wait_result(
                        accepted["job_id"])
                    assert status == 200, f"hit result -> {status}"
                    assert (_strip_provenance(document["result"])
                            == _strip_provenance(documents[index]))
        except BaseException as error:  # noqa: BLE001 — rethrown below
            errors.append(error)

    with ServerThread(workers=0, quota_rate=10_000.0,
                      quota_burst=10_000.0, max_inflight=256,
                      queue_capacity=max(64, num_jobs * 4)) as thread:
        errors = []
        workers = [threading.Thread(target=soak_worker,
                                    args=(thread, index, errors))
                   for index in range(num_clients)]
        soak_start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        soak_seconds = time.perf_counter() - soak_start
        if errors:
            raise errors[0]

        # Parity against the direct in-process path, on job 0.
        body = _server_problem_body(0, num_sweeps, num_reads, seed)
        problem = build_problem(body["problem"])
        config = SolverConfig(**body["config"]).resolve_convergence()
        direct = result_document(dispatch_solve(problem, "sa", config))
        matches_direct = (_strip_provenance(documents[0])
                          == _strip_provenance(direct))
        # Determinism: a tagged resubmission (new job, cached solve)
        # returns the identical document.
        with Client(*thread.address) as client:
            status, _, accepted = client.submit(
                dict(body, tag="verify"))
            assert status == 201
            _, document = client.wait_result(accepted["job_id"])
            deterministic = (_strip_provenance(document["result"])
                             == _strip_provenance(documents[0]))

            # Live SSE stream on a fresh, slower job: row lag is the
            # client receive time minus the row's logged ts.
            stream_body = _server_problem_body(
                num_jobs + 1000, num_sweeps * 4, num_reads, seed)
            _, _, accepted = client.submit(stream_body)
            lags = [received - data["ts"]
                    for event, data, received
                    in client.stream(accepted["job_id"])
                    if event == "convergence"]

    sorted_latencies = sorted(latencies)

    # Backpressure burst against a tiny queue: must shed with 429s
    # that carry Retry-After, never hang, and finish what it accepted.
    rejected_429 = 0
    retry_after_ok = True
    accepted_jobs = []
    with ServerThread(workers=0, quota_rate=10_000.0,
                      quota_burst=10_000.0, max_inflight=256,
                      queue_capacity=queue_capacity) as thread:
        with Client(*thread.address) as client:
            for index in range(num_jobs + 4):
                body = _server_problem_body(500 + index,
                                            num_sweeps * 4, num_reads,
                                            seed)
                status, headers, document = client.submit(body)
                if status == 429:
                    rejected_429 += 1
                    retry_after_ok = (
                        retry_after_ok
                        and int(headers.get("retry-after", 0)) >= 1
                        and document.get("reason") == "queue")
                else:
                    assert status == 201, f"burst submit -> {status}"
                    accepted_jobs.append(document["job_id"])
            accepted_all_completed = True
            for job_id in accepted_jobs:
                status, _ = client.wait_result(job_id)
                accepted_all_completed = (accepted_all_completed
                                          and status == 200)

    return {
        "name": "server_throughput",
        "params": {
            "num_jobs": num_jobs,
            "num_clients": num_clients,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "queue_capacity": queue_capacity,
            "workers": 0,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "soak_seconds": soak_seconds,
        "requests_total": len(latencies),
        "requests_per_second": len(latencies) / soak_seconds,
        "request_p50_seconds": quantile(sorted_latencies, 0.50),
        "request_p95_seconds": quantile(sorted_latencies, 0.95),
        "stream_rows": len(lags),
        "stream_lag_p95_seconds": (quantile(sorted(lags), 0.95)
                                   if lags else 0.0),
        "rejected_429": rejected_429,
        "retry_after_ok": retry_after_ok,
        "accepted_all_completed": accepted_all_completed,
        "matches_direct": matches_direct,
        "deterministic": deterministic,
    }


def _qaoa_eval_cell(simulator, model, angles, p):
    """One ``(qubits, p)`` cell: both paths over the same angle rows."""
    energies = basis_energies(model)
    tag = f"n{model.num_spins}_p{p}"
    started = time.perf_counter()
    reference = [simulator.run(qaoa_circuit(model, a[:p], a[p:]))
                 for a in angles]
    reference_values = np.abs(reference) ** 2 @ energies
    circuit_seconds = time.perf_counter() - started
    started = time.perf_counter()
    diagonal = [_qaoa_state(energies, a[:p], a[p:]) for a in angles]
    values = np.abs(diagonal) ** 2 @ energies
    diagonal_seconds = time.perf_counter() - started
    abs_diff = 0.0
    for state, expected in zip(diagonal, reference):
        overlap = np.vdot(state, expected)
        aligned = state * (overlap / abs(overlap))
        abs_diff = max(abs_diff, float(np.abs(aligned - expected).max()))
    repeat = _qaoa_state(energies, angles[0][:p], angles[0][p:])
    return {
        "num_qubits": model.num_spins,
        "p": p,
        "circuit_seconds": circuit_seconds,
        "diagonal_seconds": diagonal_seconds,
        "circuit_evals_per_s": len(angles) / circuit_seconds,
        "diagonal_evals_per_s": len(angles) / diagonal_seconds,
        "speedup": circuit_seconds / diagonal_seconds,
        "max_abs_diff": abs_diff,
        "max_expectation_diff": float(
            np.abs(values - reference_values).max()
            / np.abs(energies).max()),
        "deterministic": bool(np.array_equal(repeat, diagonal[0])),
    }


def run_qaoa_eval_workload(qubits, depths, evals, seed=29):
    """QAOA objective evaluations: diagonal-phase state vs the circuit.

    Every ``(qubits, p)`` cell draws one clique Ising model with fields
    and ``evals`` angle vectors; both paths evaluate the same vectors.
    ``max_abs_diff`` compares amplitudes after removing the global
    phase the diagonal path leaves out (``exp(-i gamma offset)``);
    ``max_expectation_diff`` compares expectations relative to the
    largest ``|E|``.
    """
    rng = np.random.default_rng(seed)
    simulator = StatevectorSimulator()
    cells = []
    for num_qubits in qubits:
        for p in depths:
            model = IsingModel.random(num_qubits, density=1.0,
                                      field_scale=0.5,
                                      seed=int(rng.integers(2 ** 31)))
            angles = rng.uniform(0.0, math.pi, size=(evals, 2 * p))
            cells.append(_qaoa_eval_cell(simulator, model, angles, p))
    return {
        "name": "qaoa_eval",
        "params": {
            "qubits": list(qubits),
            "depths": list(depths),
            "evals": evals,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "circuit_seconds": sum(c["circuit_seconds"] for c in cells),
        "diagonal_seconds": sum(c["diagonal_seconds"] for c in cells),
        "cells": cells,
        "speedup": min(c["speedup"] for c in cells),
        "gate_min_speedup": QAOA_EVAL_MIN_SPEEDUP,
        "max_abs_diff": max(c["max_abs_diff"] for c in cells),
        "max_expectation_diff": max(c["max_expectation_diff"]
                                    for c in cells),
        "deterministic": all(c["deterministic"] for c in cells),
    }


def _interleaved_medians(first, second, repeats):
    """Median seconds of two callables over ``repeats`` interleaved
    runs, the order within each pair alternating."""
    sides = (first, second)
    times = ([], [])
    for index in range(repeats):
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            started = time.perf_counter()
            sides[side]()
            times[side].append(time.perf_counter() - started)
    return float(np.median(times[0])), float(np.median(times[1]))


def _qml_gradient_cell(num_qubits, num_layers, rows, repeats, rng):
    """One ``(qubits, layers, rows)`` cell: both gradients, interleaved."""
    model = VariationalRegressor(AngleEncoding(num_qubits, scaling=1.5),
                                 num_layers=num_layers, seed=0)
    X = rng.uniform(-1.0, 1.0, size=(rows, num_qubits))
    targets = rng.uniform(-0.9, 0.9, size=rows)
    weights = rng.uniform(-math.pi, math.pi, size=model.num_weights)
    reference = loop_minibatch_gradient(model, X, targets, weights)
    batched = model._minibatch_gradient(X, targets, weights)
    repeat = model._minibatch_gradient(X, targets, weights)
    per_row_seconds, batched_seconds = _interleaved_medians(
        lambda: loop_minibatch_gradient(model, X, targets, weights),
        lambda: model._minibatch_gradient(X, targets, weights),
        repeats)
    return {
        "num_qubits": num_qubits,
        "num_layers": num_layers,
        "rows": rows,
        "per_row_seconds": per_row_seconds,
        "batched_seconds": batched_seconds,
        "speedup": per_row_seconds / batched_seconds,
        "max_abs_diff": float(np.abs(batched - reference).max()),
        "deterministic": bool(np.array_equal(batched, repeat)),
    }


def run_qml_gradient_workload(cells, repeats, seed=31):
    """Minibatch gradient of a variational regressor: batched vs per row.

    Every ``(qubits, layers, rows)`` cell draws angle-encoded rows,
    targets and weights, then times both implementations over
    ``repeats`` interleaved runs (order alternating) and keeps the
    medians. The global metrics registry is parked while timing, so
    both sides run the telemetry-off path training takes by default.
    """
    rng = np.random.default_rng(seed)
    saved_registry = _metrics.get_registry()
    _metrics.disable_metrics()
    try:
        records = [_qml_gradient_cell(qubits, layers, rows, repeats, rng)
                   for qubits, layers, rows in cells]
    finally:
        if saved_registry is not None:
            _metrics.enable_metrics(saved_registry)
    (headline,) = [c for c in records if c["num_qubits"] == 4]
    return {
        "name": "qml_gradient",
        "params": {
            "cells": [list(cell) for cell in cells],
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "per_row_seconds": sum(c["per_row_seconds"] for c in records),
        "batched_seconds": sum(c["batched_seconds"] for c in records),
        "cells": records,
        "speedup": headline["speedup"],
        "gate_min_speedup": QML_GRADIENT_MIN_SPEEDUP,
        "max_abs_diff": max(c["max_abs_diff"] for c in records),
        "deterministic": all(c["deterministic"] for c in records),
    }


def _sa_sweep_models(kind, size, seed):
    """One join-order QUBO per join-graph topology at ``size``
    relations, or the ``sa_sweeps`` random Ising model of ``size``
    spins."""
    if kind == "ising":
        return [IsingModel.random(size, density=0.5, field_scale=0.3,
                                  seed=seed)]
    return [JoinOrderQUBO(random_join_graph(size, topology=topology,
                                            seed=seed)).compile().model
            for topology in ("chain", "star", "cycle", "clique")]


def _sa_sweep_cell(kind, size, num_sweeps, num_reads, convergence,
                   repeats, seed):
    """One cell: both sweeps solve every model of the cell, interleaved."""
    models = _sa_sweep_models(kind, size, seed)

    def solve_all(solver_cls):
        outputs = []
        for index, model in enumerate(models):
            progress = ProgressTrace() if convergence else None
            samples = solver_cls(num_sweeps=num_sweeps,
                                 num_reads=num_reads, seed=seed + index,
                                 progress=progress).solve(model)
            outputs.append((samples,
                            None if progress is None else progress.rows()))
        return outputs

    def fingerprint(outputs):
        # repr keeps every bit of each energy and the sign of zero.
        return repr([([(s.assignment, s.energy, s.num_occurrences)
                       for s in samples], rows)
                     for samples, rows in outputs])

    parent = solve_all(FullSweepSolver)
    kernel = solve_all(SimulatedAnnealingSolver)
    repeat = solve_all(SimulatedAnnealingSolver)
    parent_seconds, kernel_seconds = _interleaved_medians(
        lambda: solve_all(FullSweepSolver),
        lambda: solve_all(SimulatedAnnealingSolver),
        repeats)
    return {
        "kind": kind,
        "size": size,
        "num_sweeps": num_sweeps,
        "num_reads": num_reads,
        "convergence": convergence,
        "instances": len(models),
        "parent_seconds": parent_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": parent_seconds / kernel_seconds,
        "max_abs_diff": max(
            float(np.abs(np.sort(ours.energies())
                         - np.sort(theirs.energies())).max())
            for (ours, _), (theirs, _) in zip(kernel, parent)),
        "matches_parent": fingerprint(kernel) == fingerprint(parent),
        "deterministic": fingerprint(repeat) == fingerprint(kernel),
    }


def run_sa_sweep_workload(cells, headline, repeats, seed=37):
    """SA solves: the shipped sweep vs the previous full sweep.

    Every ``(kind, size, sweeps, reads, convergence)`` cell times both
    solvers over the same models and seeds, ``repeats`` interleaved
    runs with the order alternating, and keeps the medians. The global
    metrics registry is parked while timing, so both sides run the
    telemetry-off path the serving workers take. ``speedup`` is the
    join-order cell of ``headline`` relations.
    """
    saved_registry = _metrics.get_registry()
    _metrics.disable_metrics()
    try:
        records = [_sa_sweep_cell(*cell, repeats=repeats, seed=seed)
                   for cell in cells]
    finally:
        if saved_registry is not None:
            _metrics.enable_metrics(saved_registry)
    (headline_cell,) = [c for c in records
                        if c["kind"] == "join" and c["size"] == headline]
    return {
        "name": "sa_sweep",
        "params": {
            "cells": [list(cell) for cell in cells],
            "headline": headline,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "parent_seconds": sum(c["parent_seconds"] for c in records),
        "kernel_seconds": sum(c["kernel_seconds"] for c in records),
        "cells": records,
        "speedup": headline_cell["speedup"],
        "gate_min_speedup": SA_SWEEP_MIN_SPEEDUP,
        "max_abs_diff": max(c["max_abs_diff"] for c in records),
        "matches_parent": all(c["matches_parent"] for c in records),
        "deterministic": all(c["deterministic"] for c in records),
    }


def _vqc_fit_cell(num_qubits, repeats, seed):
    """One qubit count: a ``qml_train``-shaped fit by both models,
    interleaved."""
    rng = np.random.default_rng(seed + num_qubits)
    X = rng.uniform(-1.0, 1.0, size=(105, num_qubits))
    y = np.sin(X @ rng.uniform(-1.0, 1.0, size=num_qubits)) + 5.0
    test_X = rng.uniform(-1.0, 1.0, size=(45, num_qubits))

    def fit(model_cls):
        return model_cls(AngleEncoding(num_qubits, scaling=1.5),
                         num_layers=2, epochs=12, batch_size=24,
                         seed=seed).fit(X, y)

    def fingerprint(model):
        return np.concatenate([model.loss_history_, model.predict(test_X)])

    parent = fingerprint(fit(PerRowRegressor))
    shipped = fingerprint(fit(VariationalRegressor))
    repeat = fingerprint(fit(VariationalRegressor))
    parent_seconds, shipped_seconds = _interleaved_medians(
        lambda: fit(PerRowRegressor), lambda: fit(VariationalRegressor),
        repeats)
    return {
        "num_qubits": num_qubits,
        "parent_seconds": parent_seconds,
        "shipped_seconds": shipped_seconds,
        "speedup": parent_seconds / shipped_seconds,
        "max_abs_diff": float(np.abs(shipped - parent).max()),
        "matches_parent": bool(np.array_equal(shipped, parent)),
        "deterministic": bool(np.array_equal(shipped, repeat)),
    }


def run_vqc_fit_workload(qubits, repeats, seed=41):
    """VQC fits: one template plus one angle matrix vs circuits per row.

    Every qubit count fits ``VariationalRegressor(AngleEncoding(n,
    scaling=1.5), num_layers=2, epochs=12, batch_size=24)`` on 105
    seeded rows with both models, ``repeats`` interleaved runs with
    the order alternating, and keeps the medians. The global metrics
    registry is parked while timing, so both sides run the
    telemetry-off path training takes by default.
    """
    saved_registry = _metrics.get_registry()
    _metrics.disable_metrics()
    try:
        records = [_vqc_fit_cell(n, repeats, seed) for n in qubits]
    finally:
        if saved_registry is not None:
            _metrics.enable_metrics(saved_registry)
    (headline,) = [c for c in records if c["num_qubits"] == 4]
    return {
        "name": "vqc_fit",
        "params": {
            "qubits": list(qubits),
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "parent_seconds": sum(c["parent_seconds"] for c in records),
        "shipped_seconds": sum(c["shipped_seconds"] for c in records),
        "cells": records,
        "speedup": headline["speedup"],
        "gate_min_speedup": VQC_FIT_MIN_SPEEDUP,
        "max_abs_diff": max(c["max_abs_diff"] for c in records),
        "matches_parent": all(c["matches_parent"] for c in records),
        "deterministic": all(c["deterministic"] for c in records),
    }


def _batch_gates_angles(num_qubits, rows, shifted, rng):
    """The ``qml_train`` model template at ``num_qubits`` and ``rows``
    angle rows: an output pass (data angles per row, the ansatz bound
    once) or, when ``shifted``, the leading rows of a gradient block
    (each point's angles once per +-pi/2 shift of each weight)."""
    model = VariationalRegressor(AngleEncoding(num_qubits, scaling=1.5),
                                 num_layers=2, seed=0)
    terms = 2 * model.num_weights if shifted else 1
    points = -(-rows // terms)
    X = rng.uniform(-1.0, 1.0, size=(points, num_qubits))
    weights = rng.uniform(-math.pi, math.pi, size=model.num_weights)
    bound = model._angles(X, weights)
    shifts = np.zeros((terms, bound.shape[1]))
    if shifted:
        for k in range(model.num_weights):
            shifts[2 * k, num_qubits + k] = math.pi / 2
            shifts[2 * k + 1, num_qubits + k] = -math.pi / 2
    angles = (bound[:, None, :] + shifts[None]).reshape(-1, bound.shape[1])
    return model._model_template, angles[:rows]


def _batch_gates_cell(num_qubits, rows, shifted, repeats, rng):
    """One cell: both batched paths over the same angle matrix,
    interleaved."""
    template, angles = _batch_gates_angles(num_qubits, rows, shifted, rng)
    simulator = StatevectorSimulator()
    parent = parent_run_angles(template, angles)
    shipped = simulator.run_angles(template, angles)
    repeat = simulator.run_angles(template, angles)
    parent_seconds, kernel_seconds = _interleaved_medians(
        lambda: parent_run_angles(template, angles),
        lambda: simulator.run_angles(template, angles),
        repeats)
    return {
        "num_qubits": num_qubits,
        "rows": rows,
        "shifted": shifted,
        "gates": len(template.instructions),
        "parent_seconds": parent_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": parent_seconds / kernel_seconds,
        "max_abs_diff": float(np.abs(shipped - parent).max()),
        "deterministic": bool(np.array_equal(shipped, repeat)),
    }


def run_batch_gates_workload(cells, repeats, seed=43):
    """``run_angles`` on the ``qml_train`` template: the amplitude-major
    kernels vs the previous moveaxis-and-matmul path.

    Every ``(qubits, rows, shifted)`` cell times both paths over one
    angle matrix, ``repeats`` interleaved runs with the order
    alternating, and keeps the medians. The global metrics registry is
    parked while timing, so both sides run the telemetry-off path
    training takes by default. ``speedup`` is the 4-qubit 768-row
    cell's (one ``qml_train`` gradient block).
    """
    rng = np.random.default_rng(seed)
    saved_registry = _metrics.get_registry()
    _metrics.disable_metrics()
    try:
        records = [_batch_gates_cell(*cell, repeats=repeats, rng=rng)
                   for cell in cells]
    finally:
        if saved_registry is not None:
            _metrics.enable_metrics(saved_registry)
    (headline,) = [c for c in records
                   if c["num_qubits"] == 4 and c["rows"] == 768]
    return {
        "name": "batch_gates",
        "params": {
            "cells": [list(cell) for cell in cells],
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "parent_seconds": sum(c["parent_seconds"] for c in records),
        "kernel_seconds": sum(c["kernel_seconds"] for c in records),
        "cells": records,
        "speedup": headline["speedup"],
        "gate_min_speedup": BATCH_GATES_MIN_SPEEDUP,
        "max_abs_diff": max(c["max_abs_diff"] for c in records),
        "deterministic": all(c["deterministic"] for c in records),
    }


def _shift_fork_cell(num_qubits, num_layers, rows, repeats, rng):
    """One ``(qubits, layers, rows)`` cell: both passes over the same
    template, weights and angles, interleaved."""
    model = VariationalRegressor(AngleEncoding(num_qubits, scaling=1.5),
                                 num_layers=num_layers, seed=0)
    X = rng.uniform(-1.0, 1.0, size=(rows, num_qubits))
    weights = rng.uniform(-math.pi, math.pi, size=model.num_weights)
    arguments = (model._model_template, model._observable, weights,
                 model._angles(X, weights))
    simulator = StatevectorSimulator()

    def parent():
        return parent_outputs_and_gradients(*arguments, simulator)

    def fork():
        return parameter_shift_gradient(*arguments[:3],
                                        simulator=simulator,
                                        angles=arguments[3],
                                        return_expectations=True)

    reference, shipped, repeat = (np.concatenate(pair, axis=None)
                                  for pair in (parent(), fork(), fork()))
    parent_seconds, fork_seconds = _interleaved_medians(parent, fork,
                                                        repeats)
    return {
        "num_qubits": num_qubits,
        "num_layers": num_layers,
        "rows": rows,
        "parent_seconds": parent_seconds,
        "fork_seconds": fork_seconds,
        "speedup": parent_seconds / fork_seconds,
        "max_abs_diff": float(np.abs(shipped - reference).max()),
        "deterministic": bool(np.array_equal(shipped, repeat)),
    }


def run_shift_fork_workload(cells, repeats, seed=47):
    """Minibatch gradient rows plus outputs: the fork pass vs the
    previous shifted copies plus output pass.

    Every ``(qubits, layers, rows)`` cell draws angle-encoded rows and
    weights for the ``qml_train`` model template, then times both
    passes over ``repeats`` interleaved runs (order alternating) and
    keeps the medians. The global metrics registry is parked while
    timing, so both sides run the telemetry-off path training takes by
    default. ``speedup`` is the 4-qubit cell's.
    """
    rng = np.random.default_rng(seed)
    saved_registry = _metrics.get_registry()
    _metrics.disable_metrics()
    try:
        records = [_shift_fork_cell(*cell, repeats=repeats, rng=rng)
                   for cell in cells]
    finally:
        if saved_registry is not None:
            _metrics.enable_metrics(saved_registry)
    (headline,) = [c for c in records if c["num_qubits"] == 4]
    return {
        "name": "shift_fork",
        "params": {
            "cells": [list(cell) for cell in cells],
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "parent_seconds": sum(c["parent_seconds"] for c in records),
        "fork_seconds": sum(c["fork_seconds"] for c in records),
        "cells": records,
        "speedup": headline["speedup"],
        "gate_min_speedup": SHIFT_FORK_MIN_SPEEDUP,
        "max_abs_diff": max(c["max_abs_diff"] for c in records),
        "deterministic": all(c["deterministic"] for c in records),
    }


def _qaoa_mixer_cell(num_qubits, p, evals, repeats, rng):
    """One ``(qubits, p)`` cell: both state preparations over the same
    energies and ``evals`` angle rows, interleaved."""
    model = IsingModel.random(num_qubits, density=1.0, field_scale=0.5,
                              seed=int(rng.integers(2 ** 31)))
    energies = basis_energies(model)
    angles = rng.uniform(0.0, math.pi, size=(evals, 2 * p))

    def parent():
        return [parent_qaoa_state(energies, a[:p], a[p:]) for a in angles]

    def factored():
        return [_qaoa_state(energies, a[:p], a[p:]) for a in angles]

    reference, shipped, repeat = parent(), factored(), factored()
    parent_seconds, factored_seconds = _interleaved_medians(
        parent, factored, repeats)
    return {
        "num_qubits": num_qubits,
        "p": p,
        "parent_seconds": parent_seconds,
        "factored_seconds": factored_seconds,
        "speedup": parent_seconds / factored_seconds,
        "max_abs_diff": float(np.abs(np.array(shipped)
                                     - np.array(reference)).max()),
        "deterministic": bool(np.array_equal(shipped, repeat)),
    }


def run_qaoa_mixer_workload(cells, evals, repeats, seed=53):
    """QAOA state preparation: Kronecker-factor mixers vs one
    ``apply_matrix`` per qubit.

    Every ``(qubits, p)`` cell draws one clique Ising model with fields
    and ``evals`` angle rows, then times both preparations of every row
    over ``repeats`` interleaved runs (order alternating) and keeps the
    medians. The global metrics registry is parked while timing, as
    solves run with telemetry off by default. ``speedup`` is the widest
    cell's.
    """
    rng = np.random.default_rng(seed)
    saved_registry = _metrics.get_registry()
    _metrics.disable_metrics()
    try:
        records = [_qaoa_mixer_cell(*cell, evals=evals, repeats=repeats,
                                    rng=rng)
                   for cell in cells]
    finally:
        if saved_registry is not None:
            _metrics.enable_metrics(saved_registry)
    headline = max(records, key=lambda c: c["num_qubits"])
    return {
        "name": "qaoa_mixer",
        "params": {
            "cells": [list(cell) for cell in cells],
            "evals": evals,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "parent_seconds": sum(c["parent_seconds"] for c in records),
        "factored_seconds": sum(c["factored_seconds"] for c in records),
        "cells": records,
        "speedup": headline["speedup"],
        "gate_min_speedup": QAOA_MIXER_MIN_SPEEDUP,
        "max_abs_diff": max(c["max_abs_diff"] for c in records),
        "deterministic": all(c["deterministic"] for c in records),
    }


def run_workloads(scale):
    return [
        run_kernel_workload(**scale["kernel"]),
        run_sa_workload(**scale["sa"]),
        run_compile_workload(**scale["compile"]),
        run_service_workload(**scale["service"]),
        run_metrics_overhead_workload(**scale["metrics"]),
        run_pipeline_workload(**scale["pipeline"]),
        run_obs_overhead_workload(**scale["obs"]),
        run_server_workload(**scale["server"]),
        run_qaoa_eval_workload(**scale["qaoa"]),
        run_qml_gradient_workload(**scale["qml"]),
        run_sa_sweep_workload(**scale["sa_sweep"]),
        run_vqc_fit_workload(**scale["vqc_fit"]),
        run_batch_gates_workload(**scale["batch_gates"]),
        run_shift_fork_workload(**scale["shift_fork"]),
        run_qaoa_mixer_workload(**scale["qaoa_mixer"]),
    ]


# ----------------------------------------------------------------------
# Pytest entry points (smoke scale; correctness over raw speedup)
# ----------------------------------------------------------------------
def test_perf_kernel_batched_matches_loop():
    record = run_kernel_workload(**SMOKE_SCALE["kernel"])
    print("\nkernel Gram loop {loop_seconds:.4f}s vs batched "
          "{batched_seconds:.4f}s ({speedup:.1f}x)".format(**record))
    assert record["max_abs_diff"] < 1e-10
    assert record["deterministic"]
    assert record["speedup"] > 1.0


def test_perf_sa_batched_is_faster_and_deterministic():
    record = run_sa_workload(**SMOKE_SCALE["sa"])
    print("\nSA loop {loop_seconds:.4f}s vs batched "
          "{batched_seconds:.4f}s ({speedup:.1f}x)".format(**record))
    assert record["deterministic"]
    assert record["speedup"] > 1.0
    # Both dynamics are valid annealers; at equal budgets their best
    # energies land in the same range on this easy instance.
    assert (record["batched_best_energy"]
            <= record["loop_best_energy"] + 2.0)


def test_perf_compile_dispatch_overhead_is_small():
    record = run_compile_workload(**SMOKE_SCALE["compile"])
    print("\ncompile dispatch {dispatch_seconds:.4f}s vs direct "
          "{direct_seconds:.4f}s ({overhead_fraction:+.2%} overhead)"
          .format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    assert record["overhead_fraction"] < MAX_DISPATCH_OVERHEAD


def test_perf_service_matches_sequential_bit_for_bit():
    record = run_service_workload(**SMOKE_SCALE["service"])
    print("\nservice sequential {sequential_seconds:.4f}s vs "
          "concurrent {service_seconds:.4f}s ({speedup:.2f}x)"
          .format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    # One worker round trip per job.
    assert (record["pool"]["dispatches_cold"]
            == record["params"]["num_jobs"])
    assert record["pool"]["respawns"] == 0
    # The workload declares its own CPU-aware floor (1.5x with real
    # CPUs, parity on a single core) plus a tolerance for scheduler
    # jitter; enforce exactly what the record declares.
    assert record["speedup"] >= effective_speedup_floor(record)


def test_perf_pipeline_dispatch_overhead_is_small():
    record = run_pipeline_workload(**SMOKE_SCALE["pipeline"])
    print("\npipeline {pipeline_seconds:.4f}s vs direct "
          "{direct_seconds:.4f}s ({overhead_fraction:+.2%} overhead, "
          "gate < {gate_max_overhead:.0%})".format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    assert record["overhead_fraction"] < record["gate_max_overhead"]


def test_perf_metrics_guard_is_cheap_when_off():
    record = run_metrics_overhead_workload(**SMOKE_SCALE["metrics"])
    print("\nmetrics-off overhead: sa {sa_overhead:+.2%}, batch "
          "{batch_overhead:+.2%}, dispatch {dispatch_overhead:+.2%}, "
          "frontdoor {frontdoor_overhead:+.2%} "
          "(gate < {gate_max_overhead:.0%})".format(**record))
    assert record["deterministic"]
    assert record["overhead_fraction"] < record["gate_max_overhead"]


def test_perf_server_soak_backpressure_and_cache():
    record = run_server_workload(**SMOKE_SCALE["server"])
    print("\nserver soak {requests_total} req in {soak_seconds:.3f}s "
          "(p50 {request_p50_seconds:.4f}s, p95 "
          "{request_p95_seconds:.4f}s), {stream_rows} stream rows, "
          "{rejected_429} rejected".format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    # The burst against a 2-deep queue must shed load with usable
    # Retry-After while every accepted job still completes.
    assert record["rejected_429"] > 0
    assert record["retry_after_ok"]
    assert record["accepted_all_completed"]
    assert record["stream_rows"] > 0


def test_perf_obs_stack_is_cheap_when_on():
    record = run_obs_overhead_workload(**SMOKE_SCALE["obs"])
    print("\nobs-on overhead: plain {plain_seconds:.4f}s vs observed "
          "{observed_seconds:.4f}s ({overhead_fraction:+.2%}, gate < "
          "{gate_max_overhead:.0%})".format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    assert record["traced_jobs"] == record["params"]["num_jobs"]
    assert record["overhead_fraction"] < record["gate_max_overhead"]


def test_perf_qaoa_eval_matches_circuit():
    record = run_qaoa_eval_workload(**SMOKE_SCALE["qaoa"])
    print("\nQAOA eval circuit {circuit_seconds:.4f}s vs diagonal "
          "{diagonal_seconds:.4f}s (slowest cell {speedup:.1f}x, gate "
          ">= {gate_min_speedup:.1f}x)".format(**record))
    assert record["max_abs_diff"] < MAX_BATCHED_ABS_DIFF
    assert record["max_expectation_diff"] < MAX_BATCHED_ABS_DIFF
    assert record["deterministic"]
    assert record["speedup"] >= record["gate_min_speedup"]


def test_perf_qml_gradient_matches_per_row():
    record = run_qml_gradient_workload(**SMOKE_SCALE["qml"])
    print("\nQML gradient per-row {per_row_seconds:.4f}s vs batched "
          "{batched_seconds:.4f}s (4-qubit cell {speedup:.1f}x, gate "
          ">= {gate_min_speedup:.1f}x)".format(**record))
    assert record["max_abs_diff"] < MAX_BATCHED_ABS_DIFF
    assert record["deterministic"]
    assert record["speedup"] >= record["gate_min_speedup"]


def test_perf_sa_sweep_matches_parent():
    record = run_sa_sweep_workload(**SMOKE_SCALE["sa_sweep"])
    print("\nSA sweep previous {parent_seconds:.4f}s vs shipped "
          "{kernel_seconds:.4f}s (headline cell {speedup:.2f}x, gate "
          ">= {gate_min_speedup:.1f}x)".format(**record))
    assert record["matches_parent"]
    assert record["max_abs_diff"] == 0.0
    assert record["deterministic"]
    assert record["speedup"] >= record["gate_min_speedup"]


def test_perf_vqc_fit_matches_parent():
    record = run_vqc_fit_workload(**SMOKE_SCALE["vqc_fit"])
    print("\nVQC fit per-row {parent_seconds:.4f}s vs template "
          "{shipped_seconds:.4f}s (4-qubit cell {speedup:.2f}x, gate "
          ">= {gate_min_speedup:.1f}x)".format(**record))
    assert record["matches_parent"]
    assert record["max_abs_diff"] == 0.0
    assert record["deterministic"]
    assert record["speedup"] >= record["gate_min_speedup"]


def test_perf_batch_gates_match_parent():
    record = run_batch_gates_workload(**SMOKE_SCALE["batch_gates"])
    print("\nbatch gates previous {parent_seconds:.4f}s vs kernels "
          "{kernel_seconds:.4f}s (768-row cell {speedup:.2f}x, gate "
          ">= {gate_min_speedup:.1f}x)".format(**record))
    assert record["max_abs_diff"] < MAX_BATCHED_ABS_DIFF
    assert record["deterministic"]
    assert record["speedup"] >= record["gate_min_speedup"]


def test_perf_shift_fork_matches_parent():
    record = run_shift_fork_workload(**SMOKE_SCALE["shift_fork"])
    print("\nshift fork previous {parent_seconds:.4f}s vs fork pass "
          "{fork_seconds:.4f}s (4-qubit cell {speedup:.2f}x, gate "
          ">= {gate_min_speedup:.1f}x)".format(**record))
    assert record["max_abs_diff"] == 0.0
    assert record["deterministic"]
    assert record["speedup"] >= record["gate_min_speedup"]


def test_perf_qaoa_mixer_matches_parent():
    record = run_qaoa_mixer_workload(**SMOKE_SCALE["qaoa_mixer"])
    print("\nQAOA mixer per-qubit {parent_seconds:.4f}s vs factored "
          "{factored_seconds:.4f}s (widest cell {speedup:.2f}x, gate "
          ">= {gate_min_speedup:.1f}x)".format(**record))
    assert record["max_abs_diff"] <= 1e-14
    assert record["deterministic"]
    assert record["speedup"] >= record["gate_min_speedup"]


# ----------------------------------------------------------------------
# Script entry point: write the committed perf trajectory
# ----------------------------------------------------------------------
def main():
    scale_name = os.environ.get("REPRO_PERF_SCALE", "full")
    scale = SMOKE_SCALE if scale_name == "smoke" else FULL_SCALE
    runs = run_workloads(scale)
    document = {
        "schema": BENCH_SCHEMA,
        "provenance": telemetry.collect_provenance(
            "bench_perf_engine").to_dict(),
        "scale": scale_name,
        "workloads": runs,
    }
    # Fail fast on malformed output rather than committing it: CI and
    # bench-compare both consume this file through the same validator.
    validate_document(document)
    target = os.environ.get("REPRO_PERF_JSON", "")
    if not target:
        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))
        target = os.path.join(repo_root, "BENCH_perf.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for record in runs:
        if "loop_seconds" in record:
            print("{name}: loop {loop_seconds:.3f}s, batched "
                  "{batched_seconds:.3f}s -> {speedup:.1f}x"
                  .format(**record))
        elif "sequential_seconds" in record:
            print("{name}: sequential {sequential_seconds:.3f}s, "
                  "service {service_seconds:.3f}s -> {speedup:.2f}x "
                  "({workers} workers, {cpus} cpus)"
                  .format(workers=record["params"]["workers"],
                          cpus=record["params"]["cpu_count"],
                          **record))
        elif record["name"] == "metrics_overhead":
            print("{name}: sa {sa_overhead:+.2%}, batch "
                  "{batch_overhead:+.2%}, dispatch "
                  "{dispatch_overhead:+.2%}, frontdoor "
                  "{frontdoor_overhead:+.2%} (worst "
                  "{overhead_fraction:+.2%}, gate < "
                  "{gate_max_overhead:.0%})".format(**record))
        elif record["name"] == "obs_overhead":
            print("{name}: plain {plain_seconds:.3f}s, observed "
                  "{observed_seconds:.3f}s -> {overhead_fraction:+.2%} "
                  "overhead (gate < {gate_max_overhead:.0%})"
                  .format(**record))
        elif record["name"] == "pipeline_throughput":
            print("{name}: direct {direct_seconds:.3f}s, pipeline "
                  "{pipeline_seconds:.3f}s -> {overhead_fraction:+.2%} "
                  "overhead (gate < {gate_max_overhead:.0%})"
                  .format(**record))
        elif record["name"] == "qaoa_eval":
            print("{name}: circuit {circuit_seconds:.3f}s, diagonal "
                  "{diagonal_seconds:.3f}s -> slowest cell {speedup:.1f}x "
                  "(gate >= {gate_min_speedup:.1f}x)".format(**record))
        elif record["name"] == "qml_gradient":
            print("{name}: per-row {per_row_seconds:.3f}s, batched "
                  "{batched_seconds:.3f}s -> 4-qubit cell {speedup:.1f}x "
                  "(gate >= {gate_min_speedup:.1f}x)".format(**record))
        elif record["name"] == "sa_sweep":
            print("{name}: previous {parent_seconds:.3f}s, shipped "
                  "{kernel_seconds:.3f}s -> headline cell "
                  "{speedup:.2f}x (gate >= {gate_min_speedup:.1f}x)"
                  .format(**record))
        elif record["name"] == "vqc_fit":
            print("{name}: per-row {parent_seconds:.3f}s, template "
                  "{shipped_seconds:.3f}s -> 4-qubit cell "
                  "{speedup:.2f}x (gate >= {gate_min_speedup:.1f}x)"
                  .format(**record))
        elif record["name"] == "batch_gates":
            print("{name}: previous {parent_seconds:.3f}s, kernels "
                  "{kernel_seconds:.3f}s -> 768-row cell "
                  "{speedup:.2f}x (gate >= {gate_min_speedup:.1f}x)"
                  .format(**record))
        elif record["name"] == "shift_fork":
            print("{name}: previous {parent_seconds:.3f}s, fork pass "
                  "{fork_seconds:.3f}s -> 4-qubit cell "
                  "{speedup:.2f}x (gate >= {gate_min_speedup:.1f}x)"
                  .format(**record))
        elif record["name"] == "qaoa_mixer":
            print("{name}: per-qubit {parent_seconds:.3f}s, factored "
                  "{factored_seconds:.3f}s -> widest cell "
                  "{speedup:.2f}x (gate >= {gate_min_speedup:.1f}x)"
                  .format(**record))
        elif record["name"] == "server_throughput":
            print("{name}: {requests_total} req in {soak_seconds:.3f}s "
                  "(p95 {request_p95_seconds:.4f}s), {rejected_429} "
                  "shed".format(**record))
        else:
            print("{name}: direct {direct_seconds:.3f}s, dispatch "
                  "{dispatch_seconds:.3f}s -> {overhead_fraction:+.2%} "
                  "overhead".format(**record))
    print(f"wrote {target}")
    # The 5x floor applies to the batched-vs-loop workloads only;
    # service and metrics workloads declare their own gates
    # (gate_min_speedup + tolerance, gate_max_overhead) checked here
    # exactly as bench_schema --gates would.
    slow = [r for r in runs
            if "loop_seconds" in r
            and r.get("speedup", math.inf) < 5.0]
    heavy = [r for r in runs
             if "gate_max_overhead" not in r
             and r.get("overhead_fraction", 0.0) >= MAX_DISPATCH_OVERHEAD]
    over_budget = [r for r in runs
                   if "gate_max_overhead" in r
                   and r.get("overhead_fraction", 0.0)
                   >= r["gate_max_overhead"]]
    under_gate = [r for r in runs
                  if "gate_min_speedup" in r
                  and r.get("speedup", 0.0) < effective_speedup_floor(r)]
    status = 0
    if scale_name == "full" and slow:
        names = ", ".join(r["name"] for r in slow)
        print(f"WARNING: speedup below 5x on: {names}", file=sys.stderr)
        status = 1
    if scale_name == "full" and heavy:
        names = ", ".join(r["name"] for r in heavy)
        print(f"WARNING: dispatch overhead >= 5% on: {names}",
              file=sys.stderr)
        status = 1
    if scale_name == "full" and over_budget:
        names = ", ".join(r["name"] for r in over_budget)
        print("WARNING: overhead above declared gate_max_overhead "
              f"on: {names}", file=sys.stderr)
        status = 1
    if scale_name == "full" and under_gate:
        names = ", ".join(r["name"] for r in under_gate)
        print(f"WARNING: speedup below declared gate on: {names}",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

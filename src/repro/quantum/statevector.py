"""Dense statevector simulator.

The statevector is stored as a complex vector of length ``2**n`` where
qubit 0 is the **most significant** bit of the basis-state index
(big-endian): basis state ``|q0 q1 ... q_{n-1}>`` has index
``sum(q_i << (n - 1 - i))``. Gates are applied with tensor contractions
over the reshaped ``(2,) * n`` array, which costs ``O(2**n)`` per gate
rather than the naive ``O(4**n)`` matrix product.

Batches are held amplitude-major: one ``(2**n, batch)`` array, so row
``i`` holds basis amplitude ``i`` of every batch element and the batch
is the contiguous inner axis. :meth:`StatevectorSimulator.run_angles`
transposes once on the way in and once on the way out, and applies
each gate with one of three kernels: a row gather for permutation
gates, an elementwise phase multiply for diagonal gates, and for the
rest a combination of the ``2**k`` amplitude groups (the amplitudes
whose gate-local index is ``j``) with scalar or per-row ``(batch,)``
matrix entries. :func:`apply_matrix_batch` and
:func:`apply_diagonal_batch` are transposing wrappers over the same
kernels for ``(batch, 2**n)`` stacks.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional, Sequence

import numpy as np

from .. import telemetry
from ..telemetry import metrics as _metrics
from .circuit import Circuit, Instruction
from .gates import (
    PERMUTATION_GATES,
    batch_gate_diagonal,
    batch_gate_matrix,
    gate_diagonal,
    gate_matrix,
)


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state ``|0...0>``."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def basis_state(num_qubits: int, bits: Sequence[int]) -> np.ndarray:
    """Computational basis state for the given bit string (qubit 0 first)."""
    if len(bits) != num_qubits:
        raise ValueError("bit string length must equal num_qubits")
    index = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        index = (index << 1) | b
    state = np.zeros(2 ** num_qubits, dtype=complex)
    state[index] = 1.0
    return state


def apply_matrix(state: np.ndarray, matrix: np.ndarray,
                 qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to the given qubits of a statevector.

    Returns a new array; the input is not modified.
    """
    k = len(qubits)
    psi = state.reshape((2,) * num_qubits)
    mat = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    psi = np.tensordot(mat, psi, axes=(tuple(range(k, 2 * k)), tuple(qubits)))
    psi = np.moveaxis(psi, range(k), qubits)
    return np.ascontiguousarray(psi).reshape(-1)


def apply_matrix_batch(states: np.ndarray, matrix: np.ndarray,
                       qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Apply a gate to a *batch* of statevectors.

    ``states`` has shape ``(batch, 2**num_qubits)``. ``matrix`` is
    either one shared ``(2**k, 2**k)`` unitary or a stack of
    per-element unitaries ``(batch, 2**k, 2**k)``. Returns a new
    ``(batch, 2**num_qubits)`` array; the input is not modified.
    """
    psi = _batch_major(states, num_qubits)
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim == 3:
        if mat.shape[0] != psi.shape[1]:
            raise ValueError("per-element matrix stack must match batch size")
        mat = mat.transpose(1, 2, 0)
    elif mat.ndim == 2:
        mat = mat[..., None]
    else:
        raise ValueError("matrix must be 2-D (shared) or 3-D (per-element)")
    out, scratch = np.empty((2,) + psi.shape, dtype=complex)
    _apply_dense(psi, out, scratch, mat, qubits)
    return out.T.copy()


def apply_diagonal_batch(states: np.ndarray, diagonal: np.ndarray,
                         qubits: Sequence[int],
                         num_qubits: int) -> np.ndarray:
    """Apply a diagonal gate to a batch of statevectors elementwise.

    ``diagonal`` is the gate's matrix diagonal: one shared ``(2**k,)``
    vector or a per-element ``(batch, 2**k)`` stack. This is the fast
    path for rz/p/cp/crz/rzz-style phase gates (IQP feature maps): a
    broadcast multiply instead of a contraction.
    """
    psi = _batch_major(states, num_qubits)
    diag = np.asarray(diagonal, dtype=complex)
    if diag.ndim == 2:
        if diag.shape[0] != psi.shape[1]:
            raise ValueError("per-element diagonal must match batch size")
        diag = diag.T
    elif diag.ndim != 1:
        raise ValueError("diagonal must be 1-D (shared) or 2-D (per-element)")
    out = np.empty_like(psi)
    _apply_diagonal(psi, out, diag, qubits)
    return out.T.copy()


def _batch_major(states: np.ndarray, num_qubits: int) -> np.ndarray:
    """``states`` as an amplitude-major ``(2**n, batch)`` stack."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != 2 ** num_qubits:
        raise ValueError(
            f"states must be a (batch, {2 ** num_qubits}) matrix")
    return np.ascontiguousarray(states.T)


# ----------------------------------------------------------------------
# Kernels over an amplitude-major ``(2**n, batch)`` stack. Each writes
# its result into ``out``, a C-contiguous stack of the same shape that
# shares no memory with ``psi``, so a run allocates no state-sized
# array per gate. Matrix entries hold one value for the whole batch or
# one per row.
# ----------------------------------------------------------------------
def _inner(psi: np.ndarray, qubits: Sequence[int]) -> int:
    """Rows of ``psi`` per innermost run of a gate on ``qubits``, for
    per-row entries tiled to the run: a power of two, at most the rows
    below the last gate qubit, grown until a run holds 256 amplitudes.
    Small batches then keep numpy's inner loops long; states under 64
    rows are too short for the tiling to pay."""
    below = psi.shape[0] >> (max(qubits) + 1)
    rows = 1
    if psi.shape[0] >= 64:
        while rows < below and rows * psi.shape[1] < 256:
            rows *= 2
    return rows


def _groups(psi: np.ndarray, qubits: Sequence[int], rows: int) -> list:
    """Views of ``psi``, one per gate-local index ``j``: the amplitudes
    whose bits on ``qubits`` spell ``j`` (the first qubit the most
    significant), each ending in runs of ``rows`` whole rows."""
    last = max(qubits)
    shaped = psi.reshape((2,) * (last + 1) + (-1, rows * psi.shape[1]))
    k = len(qubits)
    views = []
    for j in range(2 ** k):
        index = [slice(None)] * (last + 1)
        for position, qubit in enumerate(qubits):
            index[qubit] = (j >> (k - 1 - position)) & 1
        views.append(shaped[tuple(index)])
    return views


def _apply_dense(psi: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 entries: np.ndarray, qubits: Sequence[int]) -> None:
    """Group ``i`` of ``out`` is ``sum_j entries[i, j] * group j`` of
    ``psi``, summed in ``scratch`` (as large as ``psi``). ``entries``
    is ``(2**k, 2**k, batch)``, or ``(2**k, 2**k, 1)`` for one matrix
    shared by every row; entries that are zero for every row are
    skipped."""
    rows = _inner(psi, qubits) if entries.shape[-1] > 1 else 1
    if rows > 1:
        entries = np.tile(entries, rows)
    groups = _groups(psi, qubits, rows)
    size, shape = groups[0].size, groups[0].shape
    total = scratch.reshape(-1)[:size].reshape(shape)
    term = scratch.reshape(-1)[size:2 * size].reshape(shape)
    for view, row, live in zip(_groups(out, qubits, rows), entries,
                               entries.any(axis=-1)):
        terms = [(group, entry) for group, entry, keep
                 in zip(groups, row, live) if keep] or [(groups[0], 0.0)]
        np.multiply(*terms[0], out=total)
        for group, entry in terms[1:]:
            np.multiply(group, entry, out=term)
            total += term
        view[...] = total


def _apply_diagonal(psi: np.ndarray, out: np.ndarray,
                    diagonal: np.ndarray, qubits: Sequence[int]) -> None:
    """One broadcast multiply by a ``(2**k,)`` or ``(2**k, batch)``
    diagonal whose gate axes sit on the qubit axes."""
    k, last = len(qubits), max(qubits)
    rows = _inner(psi, qubits)
    diag = diagonal.reshape((2,) * k + (1, -1))
    if diag.shape[-1] > 1:  # per-row entries, tiled to the run
        diag = np.tile(diag, rows)
    diag = diag.reshape(diag.shape[:k] + (1,) * (last + 1 - k)
                        + diag.shape[k:])
    shape = (2,) * (last + 1) + (-1, rows * psi.shape[1])
    np.multiply(psi.reshape(shape), np.moveaxis(diag, range(k), qubits),
                out=out.reshape(shape))


def _permutation_rows(matrix: np.ndarray, qubits: Sequence[int],
                      num_qubits: int) -> np.ndarray:
    """Row gather of a permutation gate: row ``r`` of the result is
    row ``rows[r]`` of the input."""
    rows = np.arange(2 ** num_qubits).reshape(-1, 1)
    out = np.empty_like(rows)
    sources = _groups(rows, qubits, 1)
    for view, source in zip(_groups(out, qubits, 1),
                            np.argmax(np.abs(matrix), axis=1)):
        view[...] = sources[source]
    return out.reshape(-1)


def _record_run_metrics(registry, mode: str,
                        instructions: Sequence[Instruction], batch: int,
                        elapsed: float, state_bytes: int,
                        applied: Optional[Sequence[int]] = None) -> None:
    """Per-run live metrics: circuit and gate counters (in total and
    by gate name), the run-time histogram and the peak statevector
    footprint gauge. ``batch`` circuits are counted; ``applied`` gives
    the columns each instruction ran on when that is not ``batch``
    for all (a gradient's fork pass grows its stack as it goes)."""
    if applied is None:
        applied = [batch] * len(instructions)
    registry.counter(
        "quantum_circuit_evaluations_total",
        "circuits executed by the statevector simulator",
        ("mode",)).labels(mode=mode).inc(batch)
    registry.counter(
        "quantum_gate_applications_total",
        "gate applications executed by the statevector simulator",
        ("mode",)).labels(mode=mode).inc(sum(applied))
    tally: Dict[str, int] = {}
    for inst, columns in zip(instructions, applied):
        tally[inst.name] = tally.get(inst.name, 0) + columns
    by_gate = registry.counter(
        "quantum_gates_total",
        "gate applications executed by the statevector simulator, "
        "by gate name", ("gate",))
    for name, count in tally.items():
        by_gate.labels(gate=name).inc(count)
    registry.histogram(
        "quantum_run_seconds",
        "statevector simulator run wall clock",
        ("mode",)).labels(mode=mode).observe(elapsed)
    registry.gauge(
        "quantum_statevector_peak_bytes",
        "largest statevector allocation observed").set_max(state_bytes)


def count_shots(shots: int) -> None:
    """Add ``shots`` measurement samples to ``quantum_shots_total``."""
    registry = _metrics.get_registry()
    if registry is not None:
        registry.counter("quantum_shots_total",
                         "measurement shots sampled").inc(shots)


class StatevectorSimulator:
    """Exact simulator producing statevectors, probabilities and samples.

    Parameters
    ----------
    seed:
        Seed for the sampling generator. Simulation itself is
        deterministic; only :meth:`sample_counts` consumes randomness.
    """

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def run(self, circuit: Circuit,
            initial_state: Optional[np.ndarray] = None) -> np.ndarray:
        """Execute a fully bound circuit and return the final statevector."""
        n = circuit.num_qubits
        if initial_state is None:
            state = zero_state(n)
        else:
            state = np.asarray(initial_state, dtype=complex).copy()
            if state.shape != (2 ** n,):
                raise ValueError(
                    f"initial state must have length {2 ** n}"
                )
        tracer = telemetry.get_tracer()
        registry = _metrics.get_registry()
        run_start = time.perf_counter() if registry is not None else 0.0
        if tracer is None:
            for inst in circuit.instructions:
                state = apply_matrix(state, inst.matrix(), inst.qubits, n)
        else:
            with tracer.span("quantum.run"):  # per-gate timeline events
                for inst in circuit.instructions:
                    start = tracer.timestamp_us()
                    state = apply_matrix(state, inst.matrix(),
                                         inst.qubits, n)
                    tracer.complete(
                        f"gate.{inst.name}", start, category="gate",
                        args={"qubits": list(inst.qubits)},
                    )
        if registry is not None:
            _record_run_metrics(registry, "single", circuit.instructions,
                                1, time.perf_counter() - run_start,
                                int(state.nbytes))
        return state

    def run_batch(self, circuits: Sequence[Circuit],
                  initial_states: Optional[np.ndarray] = None) -> np.ndarray:
        """Execute many bound circuits at once; returns ``(batch, 2**n)``.

        All circuits must act on the same number of qubits. When the
        circuits are *structurally identical* — the same gate names on
        the same qubits in the same order, only parameter values
        differing (one encoding template bound to many data points, one
        ansatz at many shift values) — their parameter values form one
        :func:`gate_angles` matrix and the batch runs through
        :meth:`run_angles`. Heterogeneous batches fall back to
        per-circuit :meth:`run` and stay exactly equivalent.
        """
        circuits = list(circuits)
        if not circuits:
            raise ValueError("run_batch needs at least one circuit")
        n = circuits[0].num_qubits
        if any(c.num_qubits != n for c in circuits):
            raise ValueError("all circuits must have the same qubit count")
        if _structurally_identical(circuits):
            return self.run_angles(circuits[0], gate_angles(circuits),
                                   initial_states)
        states = _initial_states(len(circuits), n, initial_states)
        return np.stack([
            self.run(c, initial_state=states[i])
            for i, c in enumerate(circuits)
        ])

    def run_angles(self, template: Circuit, angles: np.ndarray,
                   initial_states: Optional[np.ndarray] = None
                   ) -> np.ndarray:
        """Run ``template`` once per row of an angle matrix.

        ``angles`` has shape ``(batch, slots)``: column ``j`` feeds the
        ``j``-th gate parameter of ``template``, counted in instruction
        order (:func:`gate_angles` builds it from bound circuits). The
        template's own parameter values are never read, so it may be
        symbolic. Every layer is applied to the whole batch at once, on
        the amplitude-major ``(2**n, batch)`` stack (see the module
        docstring), with one shared matrix when a column holds a single
        value and per-row matrix entries otherwise. Returns
        ``(batch, 2**n)``.
        """
        angles = np.asarray(angles, dtype=float)
        instructions = template.instructions
        columns = []
        slots = 0
        for inst in instructions:
            columns.append(slice(slots, slots + len(inst.params)))
            slots += len(inst.params)
        if angles.ndim != 2 or angles.shape[1] != slots:
            raise ValueError(
                f"angles must be a (batch, {slots}) matrix, "
                f"got shape {angles.shape}"
            )
        if angles.shape[0] < 1:
            raise ValueError("run_angles needs at least one angle row")
        n = template.num_qubits
        batch = angles.shape[0]
        # The stack, the next gate's output and the dense kernel's
        # scratch; psi and out swap after every gate.
        psi, out, scratch = np.empty((3, 2 ** n, batch), dtype=complex)
        psi[...] = _initial_states(batch, n, initial_states).T
        gathers: Dict[tuple, np.ndarray] = {}  # this call's row gathers
        tracer = telemetry.get_tracer()
        registry = _metrics.get_registry()
        run_start = time.perf_counter() if registry is not None else 0.0
        if tracer is None:
            for inst, column in zip(instructions, columns):
                _apply_gate(psi, out, scratch, inst, angles[:, column], n,
                            gathers)
                psi, out = out, psi
        else:
            # One timeline event per template position.
            with tracer.span("quantum.run_batch"):
                for inst, column in zip(instructions, columns):
                    start = tracer.timestamp_us()
                    _apply_gate(psi, out, scratch, inst, angles[:, column],
                                n, gathers)
                    psi, out = out, psi
                    tracer.complete(
                        f"gate_batch.{inst.name}", start,
                        category="gate_batch",
                        args={"qubits": list(inst.qubits),
                              "batch": batch},
                    )
        if registry is not None:
            _record_run_metrics(registry, "batch", instructions, batch,
                                time.perf_counter() - run_start,
                                int(psi.nbytes))
        return psi.T.copy()

    def probabilities(self, circuit: Circuit) -> np.ndarray:
        """Measurement probabilities over all ``2**n`` basis states."""
        state = self.run(circuit)
        return np.abs(state) ** 2

    def sample_counts(self, circuit: Circuit, shots: int) -> Dict[str, int]:
        """Sample measurement outcomes; keys are bitstrings, qubit 0 first."""
        if shots < 1:
            raise ValueError("shots must be positive")
        count_shots(shots)
        probs = self.probabilities(circuit)
        n = circuit.num_qubits
        outcomes = self._rng.choice(len(probs), size=shots, p=_renorm(probs))
        tallies = np.bincount(outcomes, minlength=len(probs))
        return {
            format(int(index), f"0{n}b"): int(tallies[index])
            for index in np.nonzero(tallies)[0]
        }

    def expectation(self, circuit: Circuit, observable) -> float:
        """Exact expectation value ``<psi|O|psi>`` of a Pauli observable.

        ``observable`` is a :class:`repro.quantum.operators.PauliString`
        or :class:`~repro.quantum.operators.PauliSum`.
        """
        from .operators import PauliString, PauliSum

        state = self.run(circuit)
        if isinstance(observable, PauliString):
            observable = PauliSum([observable])
        if not isinstance(observable, PauliSum):
            raise TypeError(
                "observable must be a PauliString or PauliSum, "
                f"got {type(observable).__name__}"
            )
        return observable.expectation(state, circuit.num_qubits)


def _structurally_identical(circuits: Sequence[Circuit]) -> bool:
    """True when all circuits share gate names/qubits in order."""
    template = circuits[0].instructions
    for circuit in circuits[1:]:
        if len(circuit.instructions) != len(template):
            return False
        for inst, ref in zip(circuit.instructions, template):
            if inst.name != ref.name or inst.qubits != ref.qubits:
                return False
    return True


def gate_angles(circuits: Sequence[Circuit]) -> np.ndarray:
    """Angle matrix of structurally identical bound circuits.

    Row ``i`` lists every gate parameter of ``circuits[i]`` in
    instruction order, the layout :meth:`StatevectorSimulator.run_angles`
    reads. Raises ``ValueError`` if a parameter is still symbolic.
    """
    try:
        return np.array(
            [[float(p) for inst in c.instructions for p in inst.params]
             for c in circuits],
            dtype=float,
        )
    except TypeError:
        name = next(inst.name for c in circuits for inst in c.instructions
                    if inst.is_parameterized)
        raise ValueError(
            f"instruction {name} has unbound parameters; bind first"
        ) from None


def _initial_states(batch: int, num_qubits: int,
                    initial_states: Optional[np.ndarray]) -> np.ndarray:
    """A fresh ``(batch, 2**n)`` stack: ``|0...0>`` rows or a copy."""
    if initial_states is None:
        states = np.zeros((batch, 2 ** num_qubits), dtype=complex)
        states[:, 0] = 1.0
        return states
    states = np.asarray(initial_states, dtype=complex).copy()
    if states.shape != (batch, 2 ** num_qubits):
        raise ValueError(
            f"initial states must have shape {(batch, 2 ** num_qubits)}"
        )
    return states


def _apply_gate(psi: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                inst: Instruction, values: np.ndarray, num_qubits: int,
                gathers: Dict[tuple, np.ndarray]) -> None:
    """Apply one template instruction to the amplitude-major stack.

    ``values`` is the instruction's ``(batch, params)`` slice of the
    angle matrix (empty for fixed gates). ``gathers`` keeps the row
    gather of each permutation gate and qubit tuple seen so far.
    """
    name, qubits = inst.name, inst.qubits
    if name in PERMUTATION_GATES:
        rows = gathers.get((name, qubits))
        if rows is None:
            rows = gathers[name, qubits] = _permutation_rows(
                gate_matrix(name), qubits, num_qubits)
        np.take(psi, rows, axis=0, out=out, mode="clip")
    elif np.all(values == values[0]):  # one shared gate for the batch
        diag = gate_diagonal(name, values[0])
        if diag is not None:
            _apply_diagonal(psi, out, diag, qubits)
        else:
            _apply_dense(psi, out, scratch,
                         gate_matrix(name, values[0])[..., None], qubits)
    else:
        diag = batch_gate_diagonal(name, values)
        if diag is not None:
            _apply_diagonal(psi, out, diag.T, qubits)
        else:
            _apply_dense(psi, out, scratch,
                         batch_gate_matrix(name, values).transpose(1, 2, 0)
                         .copy(), qubits)


def _renorm(probs: np.ndarray) -> np.ndarray:
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
        raise ValueError(f"probabilities sum to {total}, state not normalized")
    return probs / total


def fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Squared overlap ``|<a|b>|^2`` between two pure states."""
    a = np.asarray(state_a, dtype=complex)
    b = np.asarray(state_b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("states must have the same dimension")
    return float(abs(np.vdot(a, b)) ** 2)


def marginal_probabilities(state: np.ndarray,
                           qubits: Sequence[int]) -> np.ndarray:
    """Marginal distribution over a subset of qubits (given order)."""
    n = int(round(math.log2(state.size)))
    if 2 ** n != state.size:
        raise ValueError("state length must be a power of two")
    probs = (np.abs(state) ** 2).reshape((2,) * n)
    keep = [int(q) for q in qubits]
    for q in keep:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n}-qubit state")
    keep_set = set(keep)
    if len(keep_set) != len(keep):
        raise ValueError(f"duplicate qubits in {tuple(qubits)}")
    drop = tuple(i for i in range(n) if i not in keep_set)
    marg = probs.sum(axis=drop) if drop else probs
    # ``sum`` keeps remaining axes in ascending qubit order; permute to
    # the caller's requested order.
    ascending = sorted(keep)
    perm = [ascending.index(q) for q in keep]
    return np.transpose(marg, perm).reshape(-1)

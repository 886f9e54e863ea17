"""Gradients of circuit expectation values.

The exact two-term parameter-shift rule applies to every gate of the
form ``exp(-i theta G / 2)`` with ``G^2 = I`` (all rx/ry/rz/rxx/ryy/rzz
gates in this library): for such a gate,

    d<O>/d(theta) = ( <O>(theta + pi/2) - <O>(theta - pi/2) ) / 2

When a circuit parameter feeds several gate occurrences, or enters a
gate through an affine expression ``s * theta + o``, the chain rule
sums the per-occurrence shift terms scaled by ``s``. Gates outside the
shift-rule family (``p``, ``cp``, ``u3``, controlled rotations) fall
back to central finite differences.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..quantum.circuit import Circuit, Parameter, ParameterExpression
from ..quantum.gates import SHIFT_RULE_GATES
from ..quantum.statevector import (
    StatevectorSimulator,
    _apply_gate,
    _record_run_metrics,
    _structurally_identical,
    gate_angles,
)
from ..telemetry import metrics as _metrics

_SHIFT = math.pi / 2.0
_FD_EPS = 1e-6

#: Amplitudes per fork-pass block. Its unit is a point, the trunk and
#: its forks: ``(terms + 1) * 2**n`` amplitudes, one point at least.
#: Fewer, larger blocks share the per-gate Python cost; past a few MB
#: the stack falls out of cache. A 24-row minibatch gradient with its
#: outputs (2 ansatz layers; 2-vCPU Xeon, 2 MiB L2 per core) took
#: 18.6/47.6/77.3 ms at 6/7/8 qubits in 2**14-amplitude blocks,
#: 15.6/27.5/54.3 ms in 2**16 and 15.9/31.8/57.3 ms in 2**17; with all
#: 24 points of the 8-qubit batch in one block it took 80 ms.
_BLOCK_AMPLITUDES = 1 << 16


def expectation_function(circuit: Circuit, observable,
                         simulator: Optional[StatevectorSimulator] = None
                         ) -> Callable[[Sequence[float]], float]:
    """Close over a symbolic circuit: values -> ``<O>``.

    Parameter order follows ``circuit.parameters``.
    """
    sim = simulator or StatevectorSimulator()
    params = circuit.parameters

    def evaluate(values: Sequence[float]) -> float:
        bound = circuit.bind(dict(zip(params, values)))
        return sim.expectation(bound, observable)

    return evaluate


def parameter_shift_gradient(circuit: Union[Circuit, Sequence[Circuit]],
                             observable,
                             values: Sequence[float],
                             simulator: Optional[StatevectorSimulator] = None,
                             angles: Optional[np.ndarray] = None,
                             *, return_expectations: bool = False):
    """Exact gradient of ``<O>`` w.r.t. every circuit parameter.

    Cost: two shifted circuit evaluations (terms) per shift-rule gate
    occurrence of each parameter (the hardware-realistic gradient the
    tutorial teaches), all taken from one fork pass. Every shifted
    circuit differs from the bound circuit in one gate angle only, so
    the pass runs each evaluation point once as a trunk, copies the
    trunk's state into new columns just before each shifted gate,
    applies that gate at ``angle ± shift`` there, and carries every
    column through the rest of the circuit. For ``G`` gates, a point
    costs ``G + sum(G - g_t)`` gate applications over the terms' gate
    indices ``g_t``, not ``G`` per term. The pass runs in blocks of
    whole points (a trunk and its forks, ``(terms + 1) * 2**n``
    amplitudes), each block's expectations taken before the next block
    runs. The result equals evaluating every shifted circuit on its
    own, bit for bit. ``simulator`` is accepted for callers that hold
    one; the pass applies the simulator's gate kernels itself and reads
    no simulator state.

    ``circuit`` may also be a sequence of circuits that share one
    parameter list (the same :class:`Parameter` objects in the same
    order), such as one ansatz composed onto many bound data
    encodings. The result then has one gradient row per circuit,
    shape ``(len(circuits), len(values))``, and all rows are
    evaluated in the same blocks. Circuits whose structure differs
    are evaluated one at a time.

    With ``angles``, ``circuit`` is one template and ``angles`` a
    ``(rows, slots)`` matrix in its :func:`gate_angles` layout, one
    row per evaluation point (say, every data row's encoding angles
    beside the ansatz). The columns of the template's symbolic slots
    take the bound ``values``; the others are read as given. The
    result has one gradient row per angle row, and no circuit is
    built per row. The sequence form is this form applied to the
    bound circuits' :func:`gate_angles`. With ``return_expectations``
    the angle-matrix form returns ``(gradients, expectations)``, the
    second the ``(rows,)`` values of ``<O>`` at the angle rows
    themselves, read off the trunks.
    """
    obs = _as_pauli_sum(observable)
    if angles is not None:
        if not isinstance(circuit, Circuit):
            raise TypeError("the angle-matrix form takes one template")
        layout = _symbolic_slots(circuit)
        params = _parameters(layout)
        bound = gate_angles([circuit.bind(_binding(params, values))])[0]
        angles = np.array(angles, dtype=float)
        if angles.ndim != 2 or angles.shape[1] != bound.size:
            raise ValueError(
                f"angles must be a (rows, {bound.size}) matrix, "
                f"got shape {angles.shape}"
            )
        if angles.shape[0] < 1:
            raise ValueError("parameter_shift_gradient needs an angle row")
        columns = [slot for slot, _, _, _ in layout]
        angles[:, columns] = bound[columns]
        gradients, expectations = _shift_gradients(
            circuit, angles, layout, params, obs, return_expectations)
        if return_expectations:
            return gradients, expectations
        return gradients
    if return_expectations:
        raise TypeError("return_expectations needs the angle-matrix form")
    single = isinstance(circuit, Circuit)
    circuits = [circuit] if single else list(circuit)
    if not circuits:
        raise ValueError("parameter_shift_gradient needs a circuit")
    layouts = [_symbolic_slots(c) for c in circuits]
    params = _parameters(layouts[0])
    if any(_parameters(layout) != params for layout in layouts[1:]):
        raise ValueError("circuits must share one parameter list")
    binding = _binding(params, values)
    bound = [c.bind(binding) for c in circuits]
    if (all(layout == layouts[0] for layout in layouts[1:])
            and _structurally_identical(bound)):
        gradients, _ = _shift_gradients(bound[0], gate_angles(bound),
                                        layouts[0], params, obs)
    else:  # e.g. amplitude encodings that drop near-zero rotations
        gradients = np.vstack([
            _shift_gradients(b, gate_angles([b]), layout, params, obs)[0]
            for b, layout in zip(bound, layouts)
        ])
    return gradients[0] if single else gradients


def _binding(params: List[Parameter], values: Sequence[float]) -> dict:
    values = list(values)
    if len(values) != len(params):
        raise ValueError(
            f"expected {len(params)} values, got {len(values)}"
        )
    return dict(zip(params, values))


def _shift_gradients(template: Circuit, bound_angles: np.ndarray,
                     layout: List[tuple], params: List[Parameter], obs,
                     count_trunks: bool = False) -> tuple:
    """Gradient rows of ``template`` at every row of ``bound_angles``,
    and every row's own ``<O>``, from one fork pass.

    ``layout`` lists the template's symbolic slots; the shift plan is
    built once, one term per shifted evaluation. Each point (angle row)
    runs once as a trunk and each term forks off it just before its
    gate (see :func:`parameter_shift_gradient`), so a point costs
    ``G + sum(G - g_t)`` gate applications for ``G`` gates and terms at
    gate indices ``g_t``. The terms are summed in plan order, so the
    rows equal one run per shifted copy, bit for bit. Blocks hold whole
    points, ``(terms + 1) * 2**n`` amplitudes each, up to
    ``_BLOCK_AMPLITUDES`` and one point at least.
    ``quantum_circuit_evaluations_total`` counts the forks, plus the
    trunks with ``count_trunks`` (the caller uses their values).
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
    points, terms = len(bound_angles), len(plan)
    ks, slots, shifts, weights = (
        (np.array(column) for column in zip(*plan)) if plan
        else np.zeros((4, 0), dtype=int))  # no symbolic slot: trunks only
    # Forks are taken in slot (so gate) order, the terms of one slot in
    # plan order: term ``t``'s forks are the points' columns in group
    # ``1 + rank[t]`` of the stack, after the trunks' group 0.
    rank = np.empty(terms, dtype=int)
    rank[np.argsort(slots, kind="stable")] = np.arange(terms)
    forked_at = Counter(slots.tolist())  # slot -> terms forked there
    schedule = []  # (instruction, its angle columns, terms forked there)
    slot = 0
    for inst in template.instructions:
        width = len(inst.params)
        schedule.append((inst, slice(slot, slot + width),
                         forked_at[slot] if width else 0))
        slot += width
    gradients = np.zeros((points, len(params)))
    trunk_values = np.empty(points)
    num_qubits = template.num_qubits
    block = max(1, _BLOCK_AMPLITUDES // ((terms + 1) << num_qubits))
    gathers: dict = {}  # row gathers of the permutation gates
    with telemetry.span("qml.parameter_shift"):
        for start in range(0, points, block):
            rows = bound_angles[start:start + block]
            count = len(rows)
            # Every column's angles: its point's row, shifted at the
            # term's slot for a fork. ``forked[b, t]`` is the column of
            # point ``b``'s fork for term ``t``.
            forked = count * (1 + rank) + np.arange(count)[:, None]
            table = np.tile(rows, (terms + 1, 1))
            table[forked, slots] += shifts
            run_start = time.perf_counter() if registry is not None else 0.0
            states = _fork_pass(schedule, table, count, num_qubits, gathers)
            elapsed = time.perf_counter() - run_start
            column_values = obs.expectation(states, num_qubits)
            trunk_values[start:start + count] = column_values[:count]
            np.add.at(gradients[start:start + count], (slice(None), ks),
                      weights * column_values[forked])
            if registry is not None:
                applied = count * (1 + np.cumsum(
                    [forks for _, _, forks in schedule]))
                _record_run_metrics(
                    registry, "batch", template.instructions,
                    count * (terms + count_trunks), elapsed,
                    states.nbytes, applied.tolist())
    return gradients, trunk_values


def _fork_pass(schedule: List[tuple], table: np.ndarray, count: int,
               num_qubits: int, gathers: dict) -> np.ndarray:
    """Final states of ``count`` points' trunks and forks.

    ``schedule`` lists each instruction with its angle columns and the
    number of terms forked at it. Row ``c`` of ``table`` holds column
    ``c``'s angles: the trunks first, then one group of ``count`` forks
    per term, in the order the forks are taken. The stack starts as the
    trunks' ``|0...0>`` columns; before each forking gate it grows by
    the trunks' current states, copied once per term, and every gate is
    one :func:`_apply_gate` call over all columns so far. The stack
    grows into the other buffer of a pair, because a column slice of a
    wider buffer would be a strided view, whose reshapes inside the
    kernels can silently copy. Returns ``(columns, 2**n)`` states.
    """
    n = num_qubits
    psi_flat, out_flat, scratch_flat = np.empty((3, len(table) << n),
                                                dtype=complex)
    width = count
    psi, out, scratch = (flat[:width << n].reshape(-1, width)
                         for flat in (psi_flat, out_flat, scratch_flat))
    psi[...] = 0.0
    psi[0] = 1.0
    for inst, columns, forks in schedule:
        if forks:  # copy the trunks into ``forks`` new column groups
            width += count * forks
            psi_flat, out_flat = out_flat, psi_flat
            grown = psi_flat[:width << n].reshape(-1, width)
            np.concatenate([psi] + [psi[:, :count]] * forks, axis=1,
                           out=grown)
            psi = grown
            out = out_flat[:width << n].reshape(-1, width)
            scratch = scratch_flat[:width << n].reshape(-1, width)
        _apply_gate(psi, out, scratch, inst, table[:width, columns], n,
                    gathers)
        psi, out = out, psi
        psi_flat, out_flat = out_flat, psi_flat
    return psi.T.copy()


def _as_pauli_sum(observable):
    from ..quantum.operators import PauliString, PauliSum

    if isinstance(observable, PauliString):
        return PauliSum([observable])
    if not isinstance(observable, PauliSum):
        raise TypeError(
            "observable must be a PauliString or PauliSum, "
            f"got {type(observable).__name__}"
        )
    return observable


def _symbolic_slots(circuit: Circuit) -> List[tuple]:
    """``(slot, parameter, scale, gate)`` per symbolic gate parameter.

    Slots count every gate parameter in instruction order, the column
    layout of :func:`gate_angles`. ``scale`` is d(angle)/d(parameter).
    Only single-parameter gates participate (multi-parameter gates such
    as u3 are handled by the full finite-difference fallback in
    :func:`finite_difference_gradient` and are rejected here).
    """
    slots = []
    slot = 0
    for inst in circuit.instructions:
        for p in inst.params:
            if isinstance(p, (Parameter, ParameterExpression)):
                if len(inst.params) != 1:
                    raise ValueError(
                        f"gate {inst.name!r} has multiple parameters; use "
                        "finite_difference_gradient"
                    )
                if isinstance(p, Parameter):
                    slots.append((slot, p, 1.0, inst.name))
                else:
                    slots.append((slot, p.parameter, p.scale, inst.name))
            slot += 1
    return slots


def _parameters(layout: List[tuple]) -> List[Parameter]:
    """Distinct parameters of a slot layout, in first-appearance order
    (the order of :attr:`Circuit.parameters`)."""
    return list({id(p): p for _, p, _, _ in layout}.values())


def finite_difference_gradient(function: Callable[[Sequence[float]], float],
                               values: Sequence[float],
                               epsilon: float = 1e-6) -> np.ndarray:
    """Central finite differences for any scalar function of a vector."""
    values = np.asarray(values, dtype=float)
    gradient = np.zeros_like(values)
    for k in range(values.size):
        forward = values.copy()
        backward = values.copy()
        forward[k] += epsilon
        backward[k] -= epsilon
        gradient[k] = (function(forward) - function(backward)) / (2 * epsilon)
    return gradient

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
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..quantum.circuit import Circuit, Parameter, ParameterExpression
from ..quantum.gates import SHIFT_RULE_GATES
from ..quantum.statevector import (
    StatevectorSimulator,
    _structurally_identical,
    gate_angles,
)
from ..telemetry import metrics as _metrics

_SHIFT = math.pi / 2.0
_FD_EPS = 1e-6

#: Amplitudes per ``run_angles`` call (``max(1, 2**14 >> n)`` rows).
#: Larger stacks fall out of cache and lose to a per-row loop. A
#: 24-row minibatch gradient (2 ansatz layers; 2-vCPU Xeon, 2 MiB L2
#: per core) took 37/186 ms at 6/8 qubits in these blocks, 53/311 ms
#: in 2**15-amplitude blocks and 79/240 ms one row at a time; 8 rows
#: at 10 qubits took 350, 645 and 366 ms.
_BLOCK_AMPLITUDES = 1 << 14


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
                             angles: Optional[np.ndarray] = None
                             ) -> np.ndarray:
    """Exact gradient of ``<O>`` w.r.t. every circuit parameter.

    Cost: two circuit evaluations per shift-rule gate occurrence of
    each parameter (the hardware-realistic gradient the tutorial
    teaches). Every shifted evaluation differs from the bound circuit
    in one gate angle only, so the whole set is one angle matrix —
    the bound angles, with ``±shift`` added at the shifted slot — that
    runs through :meth:`StatevectorSimulator.run_angles` in blocks of
    at most ``2**14`` amplitudes, each block's expectations taken
    before the next block runs.

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
    bound circuits' :func:`gate_angles`.
    """
    sim = simulator or StatevectorSimulator()
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
        return _shift_gradients(sim, circuit, angles, layout, params, obs)
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
        gradients = _shift_gradients(sim, bound[0], gate_angles(bound),
                                     layouts[0], params, obs)
    else:  # e.g. amplitude encodings that drop near-zero rotations
        gradients = np.vstack([
            _shift_gradients(sim, b, gate_angles([b]), layout, params, obs)
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


def _shift_gradients(sim: StatevectorSimulator, template: Circuit,
                     bound_angles: np.ndarray, layout: List[tuple],
                     params: List[Parameter], obs) -> np.ndarray:
    """Gradient rows of ``template`` at every row of ``bound_angles``.

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
    block = max(1, _BLOCK_AMPLITUDES >> num_qubits)
    with telemetry.span("qml.parameter_shift"):
        for start in range(0, len(angles), block):
            chunk = slice(start, start + block)
            states = sim.run_angles(template, angles[chunk])
            np.add.at(gradients,
                      (point_of_row[chunk], param_of_row[chunk]),
                      weight_of_row[chunk]
                      * obs.expectation(states, num_qubits))
    return gradients


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

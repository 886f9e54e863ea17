"""The parameter-shift fork pass against the shifted copies it replaced.

The fork pass runs each point once as a trunk and copies the trunk's
state into new columns just before each shifted gate. Every column
sees the gates and angles its own shifted circuit would, in the same
order, and the terms are summed in the same order, so gradient rows
and trunk values are compared with ``np.array_equal``: the reference
is the previous ``_shift_gradients`` (one ``run_angles`` row per
shifted copy), kept verbatim, and the separate output pass training
used to run.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.qml import (
    AmplitudeEncoding,
    AngleEncoding,
    IQPEncoding,
    VariationalRegressor,
    hardware_efficient_ansatz,
    parameter_shift_gradient,
)
from repro.qml import gradients
from repro.quantum import Circuit, Parameter, PauliString, PauliSum, single_z
from repro.quantum.gates import SHIFT_RULE_GATES
from repro.quantum.statevector import StatevectorSimulator, gate_angles
from repro.telemetry import metrics as _metrics

_SHIFT, _FD_EPS = gradients._SHIFT, gradients._FD_EPS
PARENT_BLOCK_AMPLITUDES = 1 << 14


def parent_shift_gradients(sim, template, bound_angles, layout, params,
                           obs):
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
    block = max(1, PARENT_BLOCK_AMPLITUDES >> num_qubits)
    with telemetry.span("qml.parameter_shift"):
        for start in range(0, len(angles), block):
            chunk = slice(start, start + block)
            states = sim.run_angles(template, angles[chunk])
            np.add.at(gradients,
                      (point_of_row[chunk], param_of_row[chunk]),
                      weight_of_row[chunk]
                      * obs.expectation(states, num_qubits))
    return gradients


def assert_fork_pass_matches_parent(template, observable, values, angles):
    """Gradient rows and trunk values of the angle-matrix form equal
    the parent's shifted copies and output pass, bit for bit."""
    sim = StatevectorSimulator()
    rows, outputs = parameter_shift_gradient(
        template, observable, values, simulator=sim, angles=angles,
        return_expectations=True)
    layout = gradients._symbolic_slots(template)
    params = gradients._parameters(layout)
    bound = gate_angles([template.bind(dict(zip(params, values)))])[0]
    angles = np.array(angles, dtype=float)
    columns = [slot for slot, _, _, _ in layout]
    angles[:, columns] = bound[columns]
    obs = gradients._as_pauli_sum(observable)
    reference = parent_shift_gradients(sim, template, angles, layout,
                                       params, obs)
    assert rows.shape == reference.shape == (len(angles), len(params))
    assert np.array_equal(rows, reference)
    assert np.array_equal(
        outputs,
        obs.expectation(sim.run_angles(template, angles),
                        template.num_qubits))
    assert np.array_equal(
        parameter_shift_gradient(template, observable, values,
                                 simulator=sim, angles=angles), rows)


def model_case(encoding, ansatz="hardware_efficient", reuploads=1,
               points=5, seed=0):
    model = VariationalRegressor(encoding, num_layers=2, ansatz=ansatz,
                                 data_reuploads=reuploads, seed=0)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(points, encoding.num_features))
    weights = rng.uniform(-np.pi, np.pi, size=model.num_weights)
    return (model._model_template, model._observable, weights,
            model._angles(X, weights))


@pytest.mark.parametrize("reuploads", [1, 2])
@pytest.mark.parametrize("ansatz", ["hardware_efficient",
                                    "strongly_entangling", "two_local"])
@pytest.mark.parametrize("encoding", ["angle", "iqp"])
def test_model_templates_match_parent(encoding, ansatz, reuploads):
    # IQP rows put per-row diagonal gates (rz, rzz) before the forks;
    # two re-uploads put data gates after them and feed every weight
    # to two slots; two_local's weights sit on rzz gates.
    make = {"angle": lambda: AngleEncoding(3, scaling=1.5),
            "iqp": lambda: IQPEncoding(3, depth=2)}[encoding]
    assert_fork_pass_matches_parent(
        *model_case(make(), ansatz, reuploads, seed=len(ansatz) + reuploads))


def test_scaled_and_shifted_expressions_match_parent():
    theta, phi = Parameter("theta"), Parameter("phi")
    template = (Circuit(2).ry(0.0, 0).rx(theta * 3.0, 0).cx(0, 1)
                .ry(phi * -0.5 + 0.2, 1).rz(0.0, 1).rzz(theta, 0, 1))
    angles = np.random.default_rng(1).uniform(-2, 2, size=(6, 5))
    observable = PauliSum([single_z(1, 2), PauliString("XZ", 0.4)])
    assert_fork_pass_matches_parent(template, observable, [0.7, -1.3],
                                    angles)


def test_finite_difference_gates_match_parent():
    a, b, c = Parameter("a"), Parameter("b"), Parameter("c")
    template = (Circuit(3).ry(0.0, 0).ry(0.0, 1).h(2).p(a, 0).cp(b, 0, 1)
                .crz(c, 1, 2).ry(a, 2).cx(2, 0).rx(0.0, 0))
    angles = np.random.default_rng(2).uniform(-2, 2, size=(4, 7))
    assert_fork_pass_matches_parent(template, PauliSum([single_z(0, 3)]),
                                    [0.4, -0.9, 1.7], angles)


def test_one_point_matches_parent():
    assert_fork_pass_matches_parent(
        *model_case(AngleEncoding(4, scaling=1.5), points=1, seed=3))


def test_blocks_of_fewer_points_than_the_minibatch_match_parent():
    template, observable, weights, angles = model_case(
        AngleEncoding(8, scaling=1.5), points=7, seed=4)
    point_amplitudes = (2 * len(weights) + 1) << 8
    per_block = gradients._BLOCK_AMPLITUDES // point_amplitudes
    assert 1 <= per_block < len(angles) and len(angles) % per_block
    assert_fork_pass_matches_parent(template, observable, weights, angles)


def test_heterogeneous_circuit_list_matches_parent():
    ansatz, params = hardware_efficient_ansatz(2, 2)
    encoding = AmplitudeEncoding(4)
    rows = [[0.3, 0.5, 0.7, 0.2], [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]]
    circuits = [encoding.circuit(x).compose(ansatz) for x in rows]
    assert len({len(c) for c in circuits}) == 3  # near-zero RYs dropped
    values = np.random.default_rng(5).uniform(-np.pi, np.pi, len(params))
    observable = PauliSum([single_z(1, 2)])
    sim = StatevectorSimulator()
    reference = []
    for circuit in circuits:
        layout = gradients._symbolic_slots(circuit)
        bound = circuit.bind(dict(zip(params, values)))
        reference.append(parent_shift_gradients(
            sim, bound, gate_angles([bound]), layout, params, observable))
    assert np.array_equal(
        parameter_shift_gradient(circuits, observable, values),
        np.vstack(reference))


def test_counters_count_the_applications_made():
    template, observable, weights, angles = model_case(
        AngleEncoding(3, scaling=1.5), points=4, seed=6)
    instructions = template.instructions
    gate_of_slot = [gate for gate, inst in enumerate(instructions)
                    for _ in inst.params]
    forked = [gate_of_slot[slot]
              for slot, _, _, _ in gradients._symbolic_slots(template)]
    terms = 2 * len(forked)
    per_point = len(instructions) + sum(2 * (len(instructions) - gate)
                                        for gate in forked)
    for outputs in (False, True):
        registry = telemetry.enable_metrics()
        try:
            parameter_shift_gradient(template, observable, weights,
                                     angles=angles,
                                     return_expectations=outputs)
        finally:
            telemetry.disable_metrics()
        evaluations = registry.get("quantum_circuit_evaluations_total")
        applications = registry.get("quantum_gate_applications_total")
        by_gate = registry.get("quantum_gates_total")
        assert evaluations.value == len(angles) * (terms + outputs)
        assert applications.value == len(angles) * per_point
        assert by_gate.value == applications.value


def test_expectations_need_the_angle_matrix_form():
    template, observable, weights, _ = model_case(AngleEncoding(2))
    with pytest.raises(TypeError):
        parameter_shift_gradient(template, observable, weights,
                                 return_expectations=True)

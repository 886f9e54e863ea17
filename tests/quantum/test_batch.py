"""Tests for the batched execution engine.

The load-bearing property: every batched path is numerically identical
(within 1e-10, usually exact) to the sequential per-circuit path it
replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.quantum import (
    Circuit,
    Parameter,
    PauliString,
    PauliSum,
    StatevectorSimulator,
    apply_diagonal_batch,
    apply_matrix,
    apply_matrix_batch,
    gate_angles,
    random_layered_circuit,
)
from repro.quantum.gates import (
    DIAGONAL_GATES,
    GATE_ARITY,
    GATE_NUM_PARAMS,
    batch_gate_diagonal,
    batch_gate_matrix,
    gate_diagonal,
    gate_matrix,
)

SIM = StatevectorSimulator(seed=3)


def random_states(batch, num_qubits, seed):
    rng = np.random.default_rng(seed)
    raw = (rng.normal(size=(batch, 2 ** num_qubits))
           + 1j * rng.normal(size=(batch, 2 ** num_qubits)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def iqp_like_circuit(params):
    """Structurally fixed circuit mixing diagonal and dense gates."""
    qc = Circuit(4)
    for q in range(4):
        qc.h(q)
    for q in range(4):
        qc.rz(float(params[q]), q)
    qc.rzz(float(params[0] * params[1]), 0, 1)
    qc.rzz(float(params[2] * params[3]), 2, 3)
    qc.ry(float(params[1]), 2)
    qc.cx(0, 3)
    qc.crz(float(params[2]), 3, 1)
    qc.cp(float(params[3]), 1, 0)
    qc.u3(float(params[0]), float(params[1]), float(params[2]), 3)
    return qc


# ----------------------------------------------------------------------
# Gate-level helpers
# ----------------------------------------------------------------------
def test_gate_matrix_is_cached_and_read_only():
    a = gate_matrix("rx", [0.3])
    b = gate_matrix("rx", [0.3])
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0] = 2.0


def test_diagonal_gates_really_are_diagonal():
    rng = np.random.default_rng(0)
    for name in sorted(DIAGONAL_GATES):
        params = rng.uniform(-3, 3, size=GATE_NUM_PARAMS[name])
        matrix = gate_matrix(name, params)
        assert np.allclose(matrix, np.diag(np.diagonal(matrix))), name
        assert np.allclose(gate_diagonal(name, params),
                           np.diagonal(matrix)), name


def test_gate_diagonal_none_for_dense_gates():
    assert gate_diagonal("h") is None
    assert gate_diagonal("rx", [0.1]) is None


def test_batch_gate_diagonal_matches_scalar():
    thetas = np.array([-1.3, 0.0, 0.7, 2.9])
    for name in ("rz", "p", "cp", "crz", "rzz"):
        stacked = batch_gate_diagonal(name, thetas)
        assert stacked.shape == (4, 2 ** GATE_ARITY[name])
        for row, theta in zip(stacked, thetas):
            assert np.allclose(row, gate_diagonal(name, [theta])), name


def test_batch_gate_matrix_matches_scalar():
    thetas = np.array([[-0.4], [1.1], [2.2]])
    for name in ("rx", "ry", "rz", "rxx", "crx", "p"):
        stacked = batch_gate_matrix(name, thetas)
        for row, theta in zip(stacked, thetas[:, 0]):
            assert np.allclose(row, gate_matrix(name, [theta])), name


# ----------------------------------------------------------------------
# apply_matrix_batch / apply_diagonal_batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("qubits", [(0,), (2,), (0, 1), (2, 0), (1, 3)])
def test_apply_matrix_batch_matches_sequential(qubits):
    states = random_states(5, 4, seed=1)
    matrix = gate_matrix("rxx", [0.8]) if len(qubits) == 2 \
        else gate_matrix("ry", [0.8])
    batched = apply_matrix_batch(states, matrix, qubits, 4)
    for row_in, row_out in zip(states, batched):
        assert np.allclose(row_out, apply_matrix(row_in, matrix, qubits, 4),
                           atol=1e-12)


def test_apply_matrix_batch_per_element_stack():
    states = random_states(3, 3, seed=2)
    thetas = np.array([[0.1], [0.9], [-2.0]])
    stack = batch_gate_matrix("ry", thetas)
    batched = apply_matrix_batch(states, stack, (1,), 3)
    for row_in, row_out, theta in zip(states, batched, thetas[:, 0]):
        expected = apply_matrix(row_in, gate_matrix("ry", [theta]), (1,), 3)
        assert np.allclose(row_out, expected, atol=1e-12)


@pytest.mark.parametrize("qubits", [(1,), (2, 0), (0, 2)])
def test_apply_diagonal_batch_matches_dense(qubits):
    states = random_states(4, 3, seed=3)
    name = "rz" if len(qubits) == 1 else "rzz"
    thetas = np.array([0.3, -1.1, 2.2, 0.0])
    diag = batch_gate_diagonal(name, thetas)
    batched = apply_diagonal_batch(states, diag, qubits, 3)
    for row_in, row_out, theta in zip(states, batched, thetas):
        expected = apply_matrix(row_in, gate_matrix(name, [theta]),
                                qubits, 3)
        assert np.allclose(row_out, expected, atol=1e-12)


def test_apply_batch_validates_shapes():
    states = random_states(2, 2, seed=4)
    with pytest.raises(ValueError):
        apply_matrix_batch(states[0], gate_matrix("h"), (0,), 2)
    with pytest.raises(ValueError):
        apply_matrix_batch(states, np.zeros((3, 2, 2)), (0,), 2)
    with pytest.raises(ValueError):
        apply_diagonal_batch(states, np.zeros((3, 2)), (0,), 2)


# ----------------------------------------------------------------------
# run_batch
# ----------------------------------------------------------------------
def test_run_batch_matches_sequential_runs():
    rng = np.random.default_rng(5)
    circuits = [iqp_like_circuit(rng.normal(size=4)) for _ in range(8)]
    batched = SIM.run_batch(circuits)
    sequential = np.stack([SIM.run(c) for c in circuits])
    assert np.abs(batched - sequential).max() < 1e-10


def test_run_batch_shared_parameters_use_one_matrix():
    circuits = [iqp_like_circuit([0.1, 0.2, 0.3, 0.4]) for _ in range(3)]
    batched = SIM.run_batch(circuits)
    assert np.abs(batched - batched[0]).max() < 1e-12


def test_run_batch_heterogeneous_fallback():
    circuits = [Circuit(2).h(0).cx(0, 1), Circuit(2).x(1),
                Circuit(2).h(1).rz(0.4, 1)]
    batched = SIM.run_batch(circuits)
    for row, circuit in zip(batched, circuits):
        assert np.allclose(row, SIM.run(circuit), atol=1e-12)


def test_run_batch_initial_states():
    circuits = [Circuit(2).ry(t, 0) for t in (0.3, 1.2)]
    initial = random_states(2, 2, seed=6)
    batched = SIM.run_batch(circuits, initial_states=initial)
    for row_in, row_out, circuit in zip(initial, batched, circuits):
        assert np.allclose(row_out, SIM.run(circuit, initial_state=row_in),
                           atol=1e-12)


def test_run_batch_validates_inputs():
    with pytest.raises(ValueError):
        SIM.run_batch([])
    with pytest.raises(ValueError):
        SIM.run_batch([Circuit(1).h(0), Circuit(2).h(0)])
    with pytest.raises(ValueError):
        SIM.run_batch([Circuit(1).h(0)],
                      initial_states=np.zeros((2, 2), dtype=complex))
    from repro.quantum import Parameter
    theta = Parameter("theta")
    symbolic = [Circuit(1).ry(theta, 0), Circuit(1).ry(theta, 0)]
    with pytest.raises(ValueError):
        SIM.run_batch(symbolic)


def test_run_angles_equals_run_batch_bit_for_bit():
    rng = np.random.default_rng(11)
    # params[2] is fixed, so its rz and crz columns hold one value each
    # and take the shared-matrix branch; the others take per-row stacks.
    circuits = [iqp_like_circuit([*rng.normal(size=2), 0.5, rng.normal()])
                for _ in range(8)]
    angles = gate_angles(circuits)
    assert angles.shape == (8, 12)
    initial = random_states(8, 4, seed=12)
    assert np.array_equal(SIM.run_angles(circuits[0], angles),
                          SIM.run_batch(circuits))
    assert np.array_equal(
        SIM.run_angles(circuits[0], angles, initial_states=initial),
        SIM.run_batch(circuits, initial_states=initial))


def test_run_angles_ignores_template_values():
    theta = Parameter("theta")
    symbolic = Circuit(2).h(0).ry(theta, 1).cx(0, 1).rz(2.0 * theta, 0)
    bound = [symbolic.bind({theta: t}) for t in (0.1, -0.7, 2.3)]
    batched = SIM.run_angles(symbolic, gate_angles(bound))
    for row, circuit in zip(batched, bound):
        assert np.allclose(row, SIM.run(circuit), atol=1e-12)


def test_run_angles_validates_angle_matrix():
    template = Circuit(2).ry(0.1, 0).cx(0, 1).rz(0.2, 1)
    with pytest.raises(ValueError):
        SIM.run_angles(template, np.zeros((3, 3)))  # two columns wanted
    with pytest.raises(ValueError):
        SIM.run_angles(template, np.zeros(2))  # not 2-D
    with pytest.raises(ValueError):
        SIM.run_angles(template, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        SIM.run_angles(template, np.zeros((2, 2)),
                       initial_states=np.zeros((3, 4), dtype=complex))


def test_gate_angles_rejects_symbolic_circuits():
    theta = Parameter("theta")
    with pytest.raises(ValueError, match="unbound"):
        gate_angles([Circuit(1).ry(0.3, 0), Circuit(1).ry(theta, 0)])


def test_pauli_expectation_of_stack_matches_rows():
    states = random_states(7, 3, seed=13)
    observable = PauliSum([
        PauliString("XYZ", 0.4 - 0.3j),
        PauliString("IIZ", -1.2),
        PauliString("YIX", 0.25j),
        PauliString("III", 0.7 + 0.1j),
        PauliString("ZZI", 1.0),
    ])
    stacked = observable.expectation(states, 3)
    assert stacked.shape == (7,)
    expected = [observable.expectation(state, 3) for state in states]
    assert np.abs(stacked - expected).max() < 1e-14
    for term in observable:
        single = [term.expectation(state) for state in states]
        assert np.abs(term.expectation(states) - single).max() < 1e-14
    assert isinstance(observable.expectation(states[0], 3), float)
    assert np.array_equal(PauliSum().expectation(states, 3), np.zeros(7))


def test_run_batch_telemetry_counters():
    circuits = [iqp_like_circuit([0.1 * k] * 4) for k in range(4)]
    registry = telemetry.enable_metrics()
    try:
        SIM.run_batch(circuits)
    finally:
        telemetry.disable_metrics()
    gates_per_circuit = len(circuits[0].instructions)
    assert registry.get("quantum_circuit_evaluations_total").labels(
        mode="batch").value == 4
    assert (registry.get("quantum_gate_applications_total").labels(
        mode="batch").value == 4 * gates_per_circuit)
    assert registry.get("quantum_gates_total").labels(gate="h").value == 16
    assert registry.get("quantum_run_seconds").labels(
        mode="batch").count == 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       num_qubits=st.integers(min_value=1, max_value=4),
       batch=st.integers(min_value=1, max_value=6))
def test_property_run_batch_equals_run(seed, num_qubits, batch):
    """Random layered circuits, randomly re-parameterized per element."""
    rng = np.random.default_rng(seed)
    template = random_layered_circuit(num_qubits, depth=3, seed=seed)
    circuits = []
    for _ in range(batch):
        circuit = Circuit(num_qubits)
        for inst in template.instructions:
            params = tuple(
                float(rng.uniform(-np.pi, np.pi))
                for _ in inst.params
            )
            circuit.append(inst.name, inst.qubits, params)
        circuits.append(circuit)
    batched = SIM.run_batch(circuits)
    sequential = np.stack([SIM.run(c) for c in circuits])
    assert np.abs(batched - sequential).max() < 1e-10

"""Tests for the batched execution engine.

The load-bearing property: every batched path is numerically identical
(within 1e-10, usually exact) to the sequential per-circuit path it
replaces.
"""

import itertools

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
    PERMUTATION_GATES,
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
    with pytest.raises(ValueError):  # 2-qubit states, 3 qubits claimed
        apply_matrix_batch(states, gate_matrix("h"), (0,), 3)
    with pytest.raises(ValueError):
        apply_diagonal_batch(states, gate_diagonal("z"), (0,), 3)


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


#: Batch sizes the kernel tests cycle through; 768 rows (a ``qml_train``
#: gradient block) only up to 4 qubits.
BATCHES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 768)


def bind_angles(template, values):
    """``template`` with its gate parameters replaced, in slot order."""
    circuit = Circuit(template.num_qubits)
    values = iter(values)
    for inst in template.instructions:
        circuit.append(inst.name, inst.qubits,
                       [float(next(values)) for _ in inst.params])
    return circuit


def angle_matrix(rng, batch, slots, shared):
    """Random angles; ``shared`` columns hold one value in every row."""
    angles = rng.uniform(-np.pi, np.pi, size=(batch, slots))
    angles[:, shared] = angles[:1, shared]
    return angles


def assert_rows_match_run(template, angles, initial=None, exact=False):
    """Every ``run_angles`` row equals ``run`` of its bound circuit:
    bit for bit when ``exact``, else within 1e-12."""
    batched = SIM.run_angles(template, angles, initial_states=initial)
    for index, (row, values) in enumerate(zip(batched, angles)):
        start = None if initial is None else initial[index]
        expected = SIM.run(bind_angles(template, values),
                           initial_state=start)
        if exact:
            assert np.array_equal(row, expected), index
        else:
            assert np.abs(row - expected).max() < 1e-12, index


@pytest.mark.parametrize("name", sorted(GATE_ARITY))
def test_run_angles_every_gate_at_every_placement(name):
    """Each gate at every ordered placement on 3 qubits (cx(2,0),
    ccx(2,0,1), cswap(1,2,0), ...), on random states, with shared and
    per-row angle columns."""
    rng = np.random.default_rng(sorted(GATE_ARITY).index(name))
    slots = GATE_NUM_PARAMS[name]
    placements = itertools.permutations(range(3), GATE_ARITY[name])
    for index, qubits in enumerate(placements):
        template = Circuit(3).append(name, qubits, [0.0] * slots)
        for shared in (True, False):
            batch = BATCHES[(2 * index + shared) % len(BATCHES)]
            assert_rows_match_run(
                template,
                angle_matrix(rng, batch, slots,
                             np.full(slots, shared)),
                random_states(batch, 3, seed=index),
                exact=name in PERMUTATION_GATES)


@pytest.mark.parametrize("num_qubits", range(1, 11))
def test_run_angles_one_qubit_gates_on_every_qubit(num_qubits):
    rng = np.random.default_rng(num_qubits)
    names = sorted(name for name, arity in GATE_ARITY.items() if arity == 1)
    sizes = [b for b in BATCHES if b != 768 or num_qubits <= 4]
    cases = itertools.product(names, range(num_qubits), (True, False))
    for index, (name, qubit, shared) in enumerate(cases):
        slots = GATE_NUM_PARAMS[name]
        template = Circuit(num_qubits).append(name, [qubit], [0.0] * slots)
        batch = sizes[index % len(sizes)]
        assert_rows_match_run(
            template,
            angle_matrix(rng, batch, slots, np.full(slots, shared)),
            random_states(batch, num_qubits, seed=index),
            exact=name in PERMUTATION_GATES)


def every_gate_template(num_qubits):
    """One instruction of every gate, placed round the register."""
    template = Circuit(num_qubits)
    for index, name in enumerate(sorted(GATE_ARITY)):
        qubits = [(index + offset) % num_qubits
                  for offset in range(GATE_ARITY[name])]
        template.append(name, qubits, [0.0] * GATE_NUM_PARAMS[name])
    return template


@pytest.mark.parametrize("num_qubits, batch",
                         [(3, 9), (4, 24), (4, 768), (7, 5), (8, 64)])
def test_run_angles_rows_do_not_depend_on_the_batch(num_qubits, batch):
    """Row ``i`` of a batch is bit for bit the row run alone, whatever
    kernel path (shared, per-row, tiled) the batch takes."""
    rng = np.random.default_rng(batch)
    template = every_gate_template(num_qubits)
    slots = sum(len(inst.params) for inst in template.instructions)
    angles = angle_matrix(rng, batch, slots, rng.random(slots) < 0.3)
    batched = SIM.run_angles(template, angles)
    for index in range(batch):
        alone = SIM.run_angles(template, angles[index:index + 1])
        assert np.array_equal(batched[index], alone[0]), index


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       num_qubits=st.integers(min_value=1, max_value=6),
       batch=st.sampled_from(BATCHES),
       shared_share=st.sampled_from([0.0, 0.5, 1.0]))
def test_property_run_batch_equals_run(seed, num_qubits, batch,
                                       shared_share):
    """Random layered circuits, re-parameterized per element or with
    shared columns: ``run_batch`` rows match ``run`` within 1e-12 and
    do not depend on the rest of the batch."""
    if batch == 768 and num_qubits > 4:
        batch = 24
    rng = np.random.default_rng(seed)
    template = random_layered_circuit(num_qubits, depth=3, seed=seed)
    slots = sum(len(inst.params) for inst in template.instructions)
    angles = angle_matrix(rng, batch, slots,
                          rng.random(slots) < shared_share)
    circuits = [bind_angles(template, row) for row in angles]
    batched = SIM.run_batch(circuits)
    sequential = np.stack([SIM.run(c) for c in circuits])
    assert np.abs(batched - sequential).max() < 1e-12
    for index in range(batch):
        alone = SIM.run_angles(template, angles[index:index + 1])
        assert np.array_equal(batched[index], alone[0])

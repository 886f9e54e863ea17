"""The template path of VQC evaluation against the per-row path.

Encodings whose gates do not depend on the row (angle, IQP) run every
exact model evaluation as one template plus one angle matrix. The
reference below is the per-row evaluation the models used before:
one bound circuit per row, batched by ``run_batch``, and one
parameter-shift call over every row's circuit. The template path
feeds the same angles to the same ``run_angles``, so everything here
is compared with ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest

from repro.qml import (
    AmplitudeEncoding,
    AngleEncoding,
    BasisEncoding,
    FidelityQuantumKernel,
    IQPEncoding,
    VariationalClassifier,
    VariationalRegressor,
    parameter_shift_gradient,
)
from repro.qml import gradients
from repro.qml.models import _count_evaluations
from repro.quantum import (
    Circuit,
    Parameter,
    PauliSum,
    StatevectorSimulator,
    single_z,
)
from repro.quantum.statevector import gate_angles


class PerRowMethods:
    """The previous ``_batch_raw_outputs`` and ``_minibatch_gradient``,
    verbatim: circuits are built and bound row by row."""

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


class PerRowClassifier(PerRowMethods, VariationalClassifier):
    pass


class PerRowRegressor(PerRowMethods, VariationalRegressor):
    pass


REFERENCE = {VariationalClassifier: PerRowClassifier,
             VariationalRegressor: PerRowRegressor}

ENCODINGS = {
    "angle-rx": lambda n: AngleEncoding(n, rotation="rx", scaling=1.5),
    "angle-ry": lambda n: AngleEncoding(n, rotation="ry"),
    "angle-rz": lambda n: AngleEncoding(n, rotation="rz", scaling=0.7),
    "angle-rx-entangle": lambda n: AngleEncoding(n, "rx", entangle=True),
    "angle-ry-entangle": lambda n: AngleEncoding(n, "ry", entangle=True,
                                                 scaling=2.0),
    "angle-rz-entangle": lambda n: AngleEncoding(n, "rz", entangle=True),
    "iqp-1": lambda n: IQPEncoding(n, depth=1),
    "iqp-2": lambda n: IQPEncoding(n, depth=2, scaling=0.8),
    "iqp-1-full": lambda n: IQPEncoding(n, depth=1, full_entanglement=True),
    "iqp-2-full": lambda n: IQPEncoding(n, depth=2, full_entanglement=True),
}
ANSATZE = ("hardware_efficient", "strongly_entangling", "two_local")


def shipped_row_gradients(model, rows, weights):
    return parameter_shift_gradient(
        model._model_template, model._observable, weights,
        simulator=model._sim, angles=model._angles(rows, weights))


def reference_row_gradients(model, rows, weights):
    return parameter_shift_gradient(
        [model._full_circuit(x) for x in rows], model._observable,
        weights, simulator=model._sim)


def assert_same_evaluations(model, reference, rows, targets, weights):
    assert model._model_template is not None
    assert np.array_equal(model._batch_raw_outputs(rows, weights),
                          reference._batch_raw_outputs(rows, weights))
    assert np.array_equal(shipped_row_gradients(model, rows, weights),
                          reference_row_gradients(reference, rows, weights))
    assert np.array_equal(
        model._minibatch_gradient(rows, targets, weights),
        reference._minibatch_gradient(rows, targets, weights))


# ----------------------------------------------------------------------
# Outputs and gradient rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reuploads", [1, 2, 3])
@pytest.mark.parametrize("ansatz", ANSATZE)
@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_outputs_and_gradient_rows_match_per_row(encoding, ansatz,
                                                 reuploads):
    def make(cls):
        return cls(ENCODINGS[encoding](3), num_layers=2, ansatz=ansatz,
                   data_reuploads=reuploads, seed=0)

    model, reference = make(VariationalRegressor), make(PerRowRegressor)
    rng = np.random.default_rng(len(encoding) + 7 * reuploads)
    rows = rng.uniform(-1.5, 1.5, size=(5, 3))
    targets = rng.uniform(-0.9, 0.9, size=5)
    weights = rng.uniform(-np.pi, np.pi, size=model.num_weights)
    assert_same_evaluations(model, reference, rows, targets, weights)


def test_angles_equal_gate_angles_of_bound_circuits():
    model = VariationalClassifier(IQPEncoding(3, depth=2,
                                              full_entanglement=True),
                                  ansatz="strongly_entangling",
                                  data_reuploads=3, seed=0)
    rows = np.random.default_rng(1).uniform(-2, 2, size=(4, 3))
    weights = np.linspace(-3.0, 3.0, model.num_weights)
    binding = dict(zip(model._weight_params, weights))
    assert np.array_equal(
        model._angles(rows, weights),
        gate_angles([model._full_circuit(x).bind(binding) for x in rows]))


def test_ten_qubit_gradient_blocks_end_inside_a_rows_shifts():
    def make(cls):
        return cls(AngleEncoding(10, scaling=1.5), num_layers=1, seed=0)

    model, reference = make(VariationalRegressor), make(PerRowRegressor)
    # 20 weights: a data row's trunk and 40 forks are 41 columns of
    # 2**10 amplitudes, so a block holds one data row and the two rows
    # run in separate blocks.
    point_amplitudes = (2 * model.num_weights + 1) << 10
    assert gradients._BLOCK_AMPLITUDES < 2 * point_amplitudes
    rng = np.random.default_rng(3)
    rows = rng.uniform(-1, 1, size=(2, 10))
    targets = rng.uniform(-0.9, 0.9, size=2)
    weights = rng.uniform(-np.pi, np.pi, size=model.num_weights)
    assert_same_evaluations(model, reference, rows, targets, weights)


# ----------------------------------------------------------------------
# Whole fits: loss histories, weights and predictions
# ----------------------------------------------------------------------
FIT_CASES = [
    ("angle-rx-entangle", "hardware_efficient", 1),
    ("iqp-2-full", "strongly_entangling", 2),
    ("angle-rz", "two_local", 3),
    ("iqp-1", "hardware_efficient", 2),
]


def fit_pair(cls, make_encoding, batch_size, **kwargs):
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(12, 3))
    if cls is VariationalClassifier:
        y = np.where(X[:, 0] + X[:, 1] * X[:, 2] > 0, "yes", "no")
    else:
        y = 3.0 * X[:, 0] - X[:, 1] ** 2 + 10.0
    fitted = []
    for model_cls in (cls, REFERENCE[cls]):
        model = model_cls(make_encoding(), batch_size=batch_size,
                          epochs=4, **kwargs)
        fitted.append(model.fit(X, y))
    test_X = rng.uniform(-1.2, 1.2, size=(7, 3))
    return fitted, test_X


def assert_same_fit(fitted, test_X):
    model, reference = fitted
    assert len(model.loss_history_) == model.epochs
    assert np.array_equal(model.loss_history_, reference.loss_history_)
    assert np.array_equal(model.weights_, reference.weights_)
    assert np.array_equal(model.predict(test_X), reference.predict(test_X))
    assert np.array_equal(model.raw_outputs(test_X),
                          reference.raw_outputs(test_X))


@pytest.mark.parametrize("batch_size", [1, 5, None])
@pytest.mark.parametrize("cls", [VariationalClassifier, VariationalRegressor])
@pytest.mark.parametrize("encoding,ansatz,reuploads", FIT_CASES)
def test_fit_matches_per_row(encoding, ansatz, reuploads, cls, batch_size):
    fitted, test_X = fit_pair(cls, lambda: ENCODINGS[encoding](3),
                              batch_size, num_layers=1, ansatz=ansatz,
                              data_reuploads=reuploads, seed=5)
    assert_same_fit(fitted, test_X)


def test_qml_train_shaped_fit_matches_per_row():
    rng = np.random.default_rng(901)
    X = rng.uniform(-1, 1, size=(60, 4))
    y = X @ np.array([0.5, -0.3, 0.8, 0.1]) + 0.2 * X[:, 0] * X[:, 1]
    fitted = [cls(AngleEncoding(4, scaling=1.5), num_layers=2, epochs=6,
                  batch_size=24, seed=901).fit(X, y)
              for cls in (VariationalRegressor, PerRowRegressor)]
    assert_same_fit(fitted, rng.uniform(-1, 1, size=(9, 4)))


# ----------------------------------------------------------------------
# Encodings without a template, and shots, stay on the per-row path
# ----------------------------------------------------------------------
def test_amplitude_encoding_fit_matches_per_row():
    encoding = AmplitudeEncoding(3)
    assert encoding.template() is None
    fitted, test_X = fit_pair(VariationalClassifier, lambda: encoding, 4,
                              num_layers=1, seed=2)
    assert fitted[0]._model_template is None
    assert_same_fit(fitted, test_X)


def test_basis_encoding_fit_matches_per_row():
    rng = np.random.default_rng(4)
    X = rng.integers(0, 2, size=(10, 3)).astype(float)
    y = 2.0 * X[:, 0] - X[:, 2]
    fitted = [cls(BasisEncoding(3), num_layers=2, epochs=4, batch_size=4,
                  seed=1).fit(X, y)
              for cls in (VariationalRegressor, PerRowRegressor)]
    assert BasisEncoding(3).template() is None
    assert_same_fit(fitted, X[::-1])


def test_shot_based_classifier_matches_per_row():
    rng = np.random.default_rng(6)
    X = rng.uniform(0, 1, size=(12, 2))
    y = (X[:, 0] > X[:, 1]).astype(int)
    fitted = [cls(2, num_layers=1, epochs=4, shots=64, batch_size=6,
                  seed=2).fit(X, y)
              for cls in (VariationalClassifier, PerRowClassifier)]
    assert fitted[0].loss_history_ == fitted[1].loss_history_
    assert np.array_equal(fitted[0].weights_, fitted[1].weights_)


# ----------------------------------------------------------------------
# Encoding batch form, state_batch and the fidelity kernel
# ----------------------------------------------------------------------
FEATURE_SCALES = np.array([1.0, -250.0, 3e5, -7e-4])


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_angle_matrix_equals_gate_angles_of_circuits(encoding):
    enc = ENCODINGS[encoding](4)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 4)) * FEATURE_SCALES
    X[0] = 0.0
    assert np.array_equal(enc.angle_matrix(X),
                          gate_angles([enc.circuit(x) for x in X]))
    template = enc.template()
    assert ([(i.name, i.qubits) for i in template.instructions]
            == [(i.name, i.qubits) for i in enc.circuit(X[1]).instructions])


def test_angle_matrix_keeps_the_encodings_feature_count_message():
    for enc in (AngleEncoding(3), IQPEncoding(3)):
        with pytest.raises(ValueError,
                           match=f"{type(enc).__name__} expects 3 features, "
                                 "got 2"):
            enc.angle_matrix(np.ones((4, 2)))
    with pytest.raises(NotImplementedError):
        AmplitudeEncoding(4).angle_matrix(np.ones((1, 4)))


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_state_batch_and_gram_match_per_row_circuits(encoding):
    enc = ENCODINGS[encoding](3)
    rng = np.random.default_rng(9)
    X = rng.uniform(-2, 2, size=(7, 3))
    Z = rng.uniform(-2, 2, size=(4, 3))
    simulator = StatevectorSimulator()
    states_x = simulator.run_batch([enc.circuit(x) for x in X])
    states_z = simulator.run_batch([enc.circuit(z) for z in Z])
    assert np.array_equal(enc.state_batch(X), states_x)
    kernel = FidelityQuantumKernel(enc)
    assert np.array_equal(kernel(X),
                          np.abs(states_x @ states_x.conj().T) ** 2)
    assert np.array_equal(kernel(X, Z),
                          np.abs(states_x @ states_z.conj().T) ** 2)


# ----------------------------------------------------------------------
# The angle-matrix form of parameter_shift_gradient
# ----------------------------------------------------------------------
def test_angle_matrix_form_binds_values_into_symbolic_slots():
    model = VariationalRegressor(AngleEncoding(2), num_layers=1,
                                 data_reuploads=2, seed=0)
    rows = np.array([[0.3, -0.4], [1.1, 0.2]])
    weights = np.linspace(-1.0, 1.0, model.num_weights)
    angles = model._angles(rows, weights)
    stale = model._angles(rows, np.zeros(model.num_weights))
    expected = shipped_row_gradients(model, rows, weights)
    assert np.array_equal(
        parameter_shift_gradient(model._model_template, model._observable,
                                 weights, angles=stale),
        expected)
    assert np.array_equal(
        parameter_shift_gradient(model._model_template, model._observable,
                                 weights, angles=angles),
        expected)


def test_angle_matrix_form_matches_sequence_form_with_expressions():
    theta, phi = Parameter("theta"), Parameter("phi")

    def circuit(x):
        return (Circuit(2).ry(x, 0).rx(3.0 * theta + 0.5, 0)
                .rzz(-theta, 0, 1).ry(phi - 0.25, 1).cx(1, 0)
                .rz(2.0 * x, 1))

    xs = np.array([0.4, -1.3, 2.2])
    angles = np.zeros((3, 5))
    angles[:, 0], angles[:, 4] = xs, 2.0 * xs
    obs = PauliSum([single_z(0, 2), single_z(1, 2, 0.5)])
    values = [0.7, -0.2]
    assert np.array_equal(
        parameter_shift_gradient(circuit(0.0), obs, values, angles=angles),
        parameter_shift_gradient([circuit(x) for x in xs], obs, values))


def test_angle_matrix_form_rejects_bad_input():
    model = VariationalRegressor(AngleEncoding(2), num_layers=1, seed=0)
    weights = np.zeros(model.num_weights)
    angles = model._angles(np.ones((2, 2)), weights)
    template, obs = model._model_template, model._observable
    with pytest.raises(ValueError, match="angles must be"):
        parameter_shift_gradient(template, obs, weights,
                                 angles=angles[:, 1:])
    with pytest.raises(ValueError, match="angles must be"):
        parameter_shift_gradient(template, obs, weights, angles=angles[0])
    with pytest.raises(ValueError, match="angle row"):
        parameter_shift_gradient(template, obs, weights, angles=angles[:0])
    with pytest.raises(ValueError, match="expected"):
        parameter_shift_gradient(template, obs, weights[1:], angles=angles)
    with pytest.raises(TypeError):
        parameter_shift_gradient([template], obs, weights, angles=angles)

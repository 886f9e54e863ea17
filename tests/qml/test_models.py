"""Tests for the variational classifier and regressor.

Training runs here use tiny budgets — the goal is correctness of the
pipeline (shapes, labels, loss descent), not benchmark accuracy, which
experiments E2/E13 measure properly.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.datasets import make_linearly_separable, make_moons
from repro.qml import (
    AngleEncoding,
    IQPEncoding,
    VariationalClassifier,
    VariationalRegressor,
    parameter_shift_gradient,
)


@pytest.fixture(scope="module")
def tiny_classification_data():
    X, y = make_linearly_separable(24, dim=2, margin=0.3, seed=0)
    return X, y


@pytest.fixture(scope="module")
def fitted_classifier(tiny_classification_data):
    X, y = tiny_classification_data
    clf = VariationalClassifier(2, num_layers=1, epochs=10, seed=1)
    return clf.fit(X, y), X, y


def test_classifier_predictions_shape_and_labels(fitted_classifier):
    clf, X, y = fitted_classifier
    predictions = clf.predict(X)
    assert predictions.shape == (X.shape[0],)
    assert set(predictions) <= set(np.unique(y))


def test_classifier_learns_separable_data(fitted_classifier):
    clf, X, y = fitted_classifier
    assert clf.score(X, y) >= 0.75


def test_classifier_decision_function_range(fitted_classifier):
    clf, X, _ = fitted_classifier
    scores = clf.decision_function(X)
    assert (np.abs(scores) <= 1.0 + 1e-9).all()


def test_classifier_proba_in_unit_interval(fitted_classifier):
    clf, X, _ = fitted_classifier
    probabilities = clf.predict_proba(X)
    assert ((probabilities >= 0) & (probabilities <= 1)).all()


def test_classifier_loss_history_decreases(fitted_classifier):
    clf, _, _ = fitted_classifier
    history = clf.loss_history_
    assert len(history) >= 2
    assert history[-1] < history[0] + 1e-9


def test_classifier_string_labels():
    X, y = make_linearly_separable(16, seed=3)
    labels = np.where(y == 1, "pos", "neg")
    clf = VariationalClassifier(2, num_layers=1, epochs=4, seed=0)
    clf.fit(X, labels)
    assert set(clf.predict(X[:4])) <= {"pos", "neg"}


def test_classifier_rejects_multiclass():
    X = np.random.default_rng(0).normal(size=(9, 2))
    y = np.array([0, 1, 2] * 3)
    with pytest.raises(ValueError):
        VariationalClassifier(2, epochs=1).fit(X, y)


def test_classifier_rejects_length_mismatch():
    with pytest.raises(ValueError):
        VariationalClassifier(2, epochs=1).fit(np.ones((4, 2)), [0, 1])


def test_classifier_requires_fit_before_predict():
    clf = VariationalClassifier(2, epochs=1)
    with pytest.raises(RuntimeError):
        clf.predict(np.ones((1, 2)))


def test_classifier_custom_encoding():
    X, y = make_moons(16, seed=4)
    clf = VariationalClassifier(
        IQPEncoding(2, depth=1), num_layers=1, epochs=3, seed=0
    )
    clf.fit(X, y)
    assert clf.predict(X).shape == (16,)


def test_classifier_minibatch_training():
    X, y = make_linearly_separable(20, seed=5)
    clf = VariationalClassifier(2, num_layers=1, epochs=6, batch_size=5,
                                seed=0)
    clf.fit(X, y)
    assert clf.weights_ is not None


def test_classifier_data_reuploading_has_longer_circuit():
    base = VariationalClassifier(2, num_layers=1, seed=0)
    reup = VariationalClassifier(2, num_layers=1, data_reuploads=2, seed=0)
    x = np.array([0.1, 0.2])
    assert len(reup._full_circuit(x)) > len(base._full_circuit(x))


def test_classifier_rejects_bad_constructor_args():
    with pytest.raises(TypeError):
        VariationalClassifier("not-an-encoding")
    with pytest.raises(ValueError):
        VariationalClassifier(2, epochs=0)
    with pytest.raises(ValueError):
        VariationalClassifier(2, data_reuploads=0)
    for bad in (0, -2, 2.5, True, "4"):
        with pytest.raises(ValueError, match="batch_size"):
            VariationalClassifier(2, batch_size=bad)
        with pytest.raises(ValueError, match="shots"):
            VariationalClassifier(2, shots=bad)
        for name in ("epochs", "num_layers", "data_reuploads"):
            with pytest.raises(ValueError,
                               match=f"{name} must be an integer >= 1"):
                VariationalClassifier(2, **{name: bad})
    VariationalClassifier(2, batch_size=np.int64(3), shots=1)
    clf = VariationalClassifier(2, epochs=np.int64(2),
                                num_layers=np.int32(1),
                                data_reuploads=np.int64(2))
    X, y = make_linearly_separable(6, seed=0)
    assert len(clf.fit(X, y).loss_history_) == 2


@pytest.mark.parametrize("cls", [VariationalClassifier, VariationalRegressor])
def test_fit_and_predict_reject_bad_inputs(cls):
    X, y = make_linearly_separable(8, seed=1)
    y = y.astype(float)
    model = cls(2, num_layers=1, epochs=1, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        features = X.copy()
        features[3, 1] = bad
        with pytest.raises(ValueError, match="X contains non-finite"):
            model.fit(features, y)
        targets = y.copy()
        targets[2] = bad
        with pytest.raises(ValueError, match="y contains non-finite"):
            model.fit(X, targets)
    with pytest.raises(ValueError, match="X has no rows"):
        model.fit(np.empty((0, 2)), np.empty(0))
    model.fit(X, y)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="X contains non-finite"):
            model.predict(np.array([[0.1, bad]]))
    with pytest.raises(ValueError, match="X has no rows"):
        model.predict(np.empty((0, 2)))
    # A wrong feature count still raises the encoding's own message.
    with pytest.raises(ValueError,
                       match="AngleEncoding expects 2 features, got 3"):
        model.predict(np.ones((2, 3)))
    with pytest.raises(ValueError,
                       match="AngleEncoding expects 2 features, got 3"):
        cls(2, num_layers=1, epochs=1).fit(np.ones((4, 3)), y[:4])


def test_classifier_shot_based_outputs_are_noisy_but_bounded():
    X, y = make_linearly_separable(8, seed=6)
    clf = VariationalClassifier(2, num_layers=1, epochs=2, shots=64, seed=0)
    clf.fit(X, y)
    scores = clf.decision_function(X)
    assert (np.abs(scores) <= 1.0 + 1e-9).all()


# ----------------------------------------------------------------------
# Regressor
# ----------------------------------------------------------------------
def test_regressor_fits_linear_trend():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(20, 1))
    y = 0.8 * X[:, 0]
    # Gentle encoding scaling keeps the target within one monotone arc
    # of the circuit's Fourier spectrum (pi wraps and kills the fit).
    reg = VariationalRegressor(AngleEncoding(1, scaling=1.5),
                               num_layers=2, epochs=40, seed=0)
    reg.fit(X, y)
    assert reg.score(X, y) > 0.8


def test_regressor_output_range_calibrated():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(10, 1))
    y = 100.0 + 10.0 * X[:, 0]
    reg = VariationalRegressor(1, num_layers=1, epochs=5, seed=0)
    reg.fit(X, y)
    predictions = reg.predict(X)
    assert predictions.min() > 50.0  # rescaled into the target range


def test_regressor_constant_targets():
    X = np.ones((6, 1))
    y = np.full(6, 2.5)
    reg = VariationalRegressor(AngleEncoding(1, scaling=1.5),
                               num_layers=1, epochs=10, seed=0)
    reg.fit(X, y)
    assert np.allclose(reg.predict(X), 2.5, atol=0.3)


def test_regressor_score_is_r_squared():
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(12, 1))
    y = X[:, 0]
    reg = VariationalRegressor(1, num_layers=2, epochs=20, seed=1)
    reg.fit(X, y)
    assert reg.score(X, y) <= 1.0


# ----------------------------------------------------------------------
# The batched minibatch gradient against the per-row loop it replaced
# ----------------------------------------------------------------------
def per_row_gradient(model, rows, targets, weights):
    """Reference: one output run and one single-circuit gradient per row,
    as training computed the minibatch gradient before the batched pass."""
    grad = np.zeros(model.num_weights)
    for x, target in zip(rows, targets):
        output = model._raw_output(x, weights)
        grad += 2.0 * (output - target) * parameter_shift_gradient(
            model._full_circuit(x), model._observable, weights,
            simulator=model._sim,
        )
    return grad / len(rows)


def with_per_row_gradient(model):
    model._minibatch_gradient = (
        lambda rows, targets, weights:
        per_row_gradient(model, rows, targets, weights))
    return model


def test_regressor_fit_matches_per_row_gradient():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = X @ np.array([0.5, -0.3, 0.8]) + 0.1 * X[:, 0] * X[:, 1]

    def model():
        return VariationalRegressor(AngleEncoding(3, scaling=1.5),
                                    num_layers=2, epochs=8, batch_size=12,
                                    seed=4)

    batched = model().fit(X, y)
    reference = with_per_row_gradient(model()).fit(X, y)
    assert len(batched.loss_history_) == 8
    assert np.abs(np.subtract(batched.loss_history_,
                              reference.loss_history_)).max() < 1e-12
    assert np.abs(batched.predict(X) - reference.predict(X)).max() < 1e-10


def test_shot_based_classifier_keeps_its_random_stream():
    X, y = make_linearly_separable(12, seed=6)

    def model():
        return VariationalClassifier(2, num_layers=1, epochs=4, shots=64,
                                     batch_size=6, seed=2)

    batched = model().fit(X, y)
    reference = with_per_row_gradient(model()).fit(X, y)
    assert batched.loss_history_ == reference.loss_history_


def test_minibatch_gradient_telemetry_matches_per_row_counts():
    X, y = make_linearly_separable(5, dim=2, seed=7)
    targets = np.where(y == 1, 1.0, -1.0)
    model = VariationalClassifier(2, num_layers=2, seed=0)
    weights = np.linspace(-1.0, 1.0, model.num_weights)
    registries = []
    for gradient in (model._minibatch_gradient,
                     lambda *args: per_row_gradient(model, *args)):
        registry = telemetry.enable_metrics()
        try:
            value = gradient(X, targets, weights)
        finally:
            telemetry.disable_metrics()
        registries.append(registry)
        assert value.shape == (model.num_weights,)
    rows = len(X)
    for registry in registries:  # batched, then the per-row reference
        assert registry.get("qml_gradient_evaluations_total").value == rows
        assert registry.get("qml_circuit_evaluations_total").value == rows
        assert (registry.get("quantum_circuit_evaluations_total").value
                == rows * (2 * model.num_weights + 1))

"""Variational quantum models: classifier and regressor.

A model is ``encoding circuit (data) -> ansatz (weights) -> <Z_0>``,
trained by minimizing a squared loss with parameter-shift gradients.
This is the textbook VQC pipeline the tutorial presents, wrapped in the
familiar ``fit`` / ``predict`` estimator interface.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from ..quantum.circuit import Circuit
from ..quantum.operators import PauliSum, single_z
from ..quantum.measurement import expectation_with_shots
from ..quantum.statevector import StatevectorSimulator, gate_angles
from ..telemetry import metrics as _metrics
from .ansatz import build_ansatz
from .encoding import AngleEncoding, Encoding
from .gradients import parameter_shift_gradient
from .optimizers import Adam, Optimizer, make_optimizer


def _count_evaluations(circuits: int) -> None:
    registry = _metrics.get_registry()
    if registry is not None:
        registry.counter("qml_circuit_evaluations_total",
                         "variational-model circuit evaluations"
                         ).inc(circuits)


def _is_count(value) -> bool:
    """True for an integer >= 1 (numpy ints too, bool not)."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= 1)


def _checked_features(X: np.ndarray) -> np.ndarray:
    """``X`` as a float matrix with at least one row, all finite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("X has no rows")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    return X


class _VariationalModel:
    """Shared machinery for the classifier and regressor."""

    def __init__(self, encoding: Union[Encoding, int],
                 num_layers: int = 2,
                 ansatz: str = "hardware_efficient",
                 optimizer: Union[str, Optimizer, None] = None,
                 epochs: int = 30,
                 batch_size: Optional[int] = None,
                 shots: Optional[int] = None,
                 data_reuploads: int = 1,
                 seed: Optional[int] = 0):
        if isinstance(encoding, int):
            encoding = AngleEncoding(encoding, scaling=math.pi)
        if not isinstance(encoding, Encoding):
            raise TypeError("encoding must be an Encoding or a feature count")
        for name, value in (("epochs", epochs), ("num_layers", num_layers),
                            ("data_reuploads", data_reuploads)):
            if not _is_count(value):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
        for name, value in (("batch_size", batch_size), ("shots", shots)):
            if value is not None and not _is_count(value):
                raise ValueError(
                    f"{name} must be None or an integer >= 1, got {value!r}"
                )
        self.encoding = encoding
        self.num_layers = num_layers
        self.ansatz_name = ansatz
        self.epochs = epochs
        self.batch_size = batch_size
        self.shots = shots
        self.data_reuploads = data_reuploads
        self._rng = np.random.default_rng(seed)
        self._sim = StatevectorSimulator(seed=seed)
        if optimizer is None:
            optimizer = Adam(learning_rate=0.1)
        elif isinstance(optimizer, str):
            optimizer = make_optimizer(optimizer)
        self.optimizer = optimizer

        self._template, self._weight_params = build_ansatz(
            ansatz, encoding.num_qubits, num_layers
        )
        self.num_weights = len(self._weight_params)
        self._observable = PauliSum([single_z(0, encoding.num_qubits)])
        # Encodings whose gates do not depend on the row give one
        # template for every evaluation; the others build per row.
        data_template = encoding.template()
        self._model_template = (None if data_template is None
                                else self._with_ansatz(data_template))
        self.weights_: Optional[np.ndarray] = None
        self.loss_history_: List[float] = []

    # ------------------------------------------------------------------
    def _with_ansatz(self, data_circuit: Circuit) -> Circuit:
        """``data_circuit`` followed by the symbolic ansatz.

        With ``data_reuploads > 1`` the encoding block is interleaved
        with fresh copies of the ansatz layers (simple re-uploading).
        """
        full = data_circuit
        for _ in range(self.data_reuploads - 1):
            full = full.compose(self._template).compose(data_circuit)
        return full.compose(self._template)

    def _full_circuit(self, x: Sequence[float]) -> Circuit:
        """Data-bound circuit with symbolic weights."""
        return self._with_ansatz(self.encoding.circuit(x))

    def _angles(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Every row's gate angles in the model template's layout.

        Per re-upload: the encoding's angle matrix, then the ansatz
        bound once for all rows. Equal to :func:`gate_angles` of each
        row's bound :meth:`_full_circuit`.
        """
        data = self.encoding.angle_matrix(rows)
        ansatz = gate_angles([self._template.bind(
            dict(zip(self._weight_params, weights)))])
        block = np.hstack([data, np.repeat(ansatz, len(data), axis=0)])
        return np.tile(block, (1, self.data_reuploads))

    def _raw_output(self, x: Sequence[float],
                    weights: np.ndarray) -> float:
        _count_evaluations(1)
        circuit = self._full_circuit(x).bind(
            dict(zip(self._weight_params, weights))
        )
        if self.shots is None:
            return self._sim.expectation(circuit, self._observable)
        return expectation_with_shots(
            circuit, self._observable, self.shots, rng=self._rng
        )

    def _batch_raw_outputs(self, rows: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
        """Exact outputs for many rows in one batched simulator pass.

        The pass is the model template over every row's angles when
        the encoding has a template, else one bound circuit per row.
        Falls back to the per-sample shot-based estimator when the
        model is configured with a finite shot budget.
        """
        if self.shots is not None:
            return np.array(
                [self._raw_output(x, weights) for x in rows]
            )
        _count_evaluations(len(rows))
        if self._model_template is not None:
            states = self._sim.run_angles(self._model_template,
                                          self._angles(rows, weights))
        else:
            binding = dict(zip(self._weight_params, weights))
            states = self._sim.run_batch(
                [self._full_circuit(x).bind(binding) for x in rows])
        return self._observable.expectation(states, self.encoding.num_qubits)

    def _minibatch_gradient(self, rows: np.ndarray, targets: np.ndarray,
                            weights: np.ndarray) -> np.ndarray:
        """Gradient of the mean squared error over a minibatch.

        One batched parameter-shift call over every row: the model
        template with every row's angles when the encoding has a
        template, else every row's circuit. Exact template models take
        the outputs from the same fork pass (its trunks); the others
        run one output pass first, and with ``shots`` the outputs stay
        the shot estimator. The weight parameters appear in template
        order in each composed circuit because the encoding is fully
        bound, so the rows share one parameter list.
        """
        if self._model_template is not None and self.shots is None:
            _count_evaluations(len(rows))
            row_gradients, outputs = parameter_shift_gradient(
                self._model_template, self._observable, weights,
                simulator=self._sim, angles=self._angles(rows, weights),
                return_expectations=True,
            )
        elif self._model_template is not None:
            outputs = self._batch_raw_outputs(rows, weights)
            row_gradients = parameter_shift_gradient(
                self._model_template, self._observable, weights,
                simulator=self._sim, angles=self._angles(rows, weights),
            )
        else:
            outputs = self._batch_raw_outputs(rows, weights)
            row_gradients = parameter_shift_gradient(
                [self._full_circuit(x) for x in rows], self._observable,
                weights, simulator=self._sim,
            )
        grad = np.zeros(self.num_weights)
        for output, target, row in zip(outputs, targets, row_gradients):
            grad += 2.0 * (output - target) * row
        return grad / len(rows)

    def _fit_targets(self, X: np.ndarray, targets: np.ndarray) -> None:
        """Minimize mean squared error between raw outputs and targets."""
        n = X.shape[0]
        batch = min(self.batch_size or n, n)
        weights0 = self._rng.uniform(-0.1, 0.1, size=self.num_weights)
        state = {"weights": weights0}

        def batch_rows() -> np.ndarray:
            if batch >= n:
                return np.arange(n)
            return self._rng.choice(n, size=batch, replace=False)

        rows_holder = {"rows": batch_rows()}

        def loss(weights: np.ndarray) -> float:
            rows = rows_holder["rows"]
            outputs = self._batch_raw_outputs(X[rows], weights)
            return float(((outputs - targets[rows]) ** 2).mean())

        def gradient(weights: np.ndarray) -> np.ndarray:
            rows = rows_holder["rows"]
            return self._minibatch_gradient(X[rows], targets[rows], weights)

        def resample(iteration: int, weights: np.ndarray,
                     value: float) -> None:
            self.loss_history_.append(value)
            rows_holder["rows"] = batch_rows()

        self.loss_history_ = []
        with telemetry.span("qml.fit"):
            result = self.optimizer.minimize(
                loss, weights0, gradient=gradient, max_iter=self.epochs,
                callback=resample,
            )
        state["weights"] = result.x
        self.weights_ = result.x

    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise RuntimeError("model is not fitted; call fit first")

    def raw_outputs(self, X: np.ndarray) -> np.ndarray:
        """Model outputs ``<Z_0>`` in [-1, 1] for each row of X."""
        self._check_fitted()
        return self._batch_raw_outputs(_checked_features(X), self.weights_)


class VariationalClassifier(_VariationalModel):
    """Binary classifier: sign of ``<Z_0>`` after the trained circuit.

    Labels may be any two values; they are mapped to -1/+1 internally.

    Examples
    --------
    >>> from repro.datasets import make_moons
    >>> X, y = make_moons(40, seed=1)
    >>> clf = VariationalClassifier(2, num_layers=2, epochs=5)
    >>> _ = clf.fit(X, y)
    >>> clf.predict(X[:3]).shape
    (3,)
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "VariationalClassifier":
        y = np.asarray(y).reshape(-1)
        X = _checked_features(X)
        if X.shape[0] != y.size:
            raise ValueError("X and y length mismatch")
        if np.issubdtype(y.dtype, np.inexact) and not np.isfinite(y).all():
            raise ValueError("y contains non-finite values")
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError("classifier is binary; got "
                             f"{self.classes_.size} classes")
        targets = np.where(y == self.classes_[1], 1.0, -1.0)
        self._fit_targets(X, targets)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed score in [-1, 1]; positive means the second class."""
        return self.raw_outputs(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores >= 0, self.classes_[1], self.classes_[0])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class, ``(1 + <Z>) / 2`` clipped."""
        return np.clip((1.0 + self.decision_function(X)) / 2.0, 0.0, 1.0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy."""
        return float((self.predict(X) == np.asarray(y).reshape(-1)).mean())


class VariationalRegressor(_VariationalModel):
    """Regressor: affinely rescaled ``<Z_0>`` output.

    The output range is calibrated from the training targets, so the
    circuit only has to learn the shape of the function on [-1, 1].
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "VariationalRegressor":
        y = np.asarray(y, dtype=float).reshape(-1)
        X = _checked_features(X)
        if X.shape[0] != y.size:
            raise ValueError("X and y length mismatch")
        if not np.isfinite(y).all():
            raise ValueError("y contains non-finite values")
        lo, hi = float(y.min()), float(y.max())
        if hi == lo:
            self._scale, self._offset = 1.0, lo
            targets = np.zeros_like(y)
        else:
            # Map targets into [-0.9, 0.9] to keep them reachable.
            self._scale = (hi - lo) / 1.8
            self._offset = (hi + lo) / 2.0
            targets = (y - self._offset) / self._scale
        self._fit_targets(X, targets)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.raw_outputs(X) * self._scale + self._offset

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2."""
        y = np.asarray(y, dtype=float).reshape(-1)
        predictions = self.predict(X)
        total = ((y - y.mean()) ** 2).sum()
        if total == 0:
            return 1.0
        return 1.0 - float(((y - predictions) ** 2).sum() / total)

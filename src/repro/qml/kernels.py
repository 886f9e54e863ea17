"""Quantum kernel methods.

A quantum kernel scores similarity between data points through the
geometry of their encoded quantum states:

* :class:`FidelityQuantumKernel` — ``K(x, z) = |<phi(x)|phi(z)>|^2``,
  computed exactly from the encoded statevectors.
* :class:`ProjectedQuantumKernel` — a Gaussian kernel over the vector
  of single-qubit reduced density matrices of the encoded state, the
  Huang et al. construction that stays informative as qubit counts grow.
* :class:`QuantumKernelClassifier` — an SVM (from
  :mod:`repro.baselines.svm`) over a precomputed quantum Gram matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import telemetry
from ..baselines.svm import SVM
from ..quantum.statevector import count_shots
from ..telemetry import metrics as _metrics
from .encoding import Encoding, IQPEncoding


def _count_entries(entries: int) -> None:
    registry = _metrics.get_registry()
    if registry is not None:
        registry.counter("qml_kernel_entries_total",
                         "quantum kernel Gram-matrix entries computed"
                         ).inc(entries)


class FidelityQuantumKernel:
    """State-overlap kernel for a given data encoding.

    With ``shots=None`` entries are computed exactly from statevector
    overlaps. With a finite ``shots`` budget each entry is estimated
    through the *inversion test* — run ``phi(z)`` then ``phi(x)^dag``
    and count how often the register reads all zeros — which is how
    the kernel is measured on hardware, shot noise included.
    """

    def __init__(self, encoding: Encoding, shots: Optional[int] = None,
                 seed: Optional[int] = None):
        if not isinstance(encoding, Encoding):
            raise TypeError("encoding must be an Encoding")
        if shots is not None and shots < 1:
            raise ValueError("shots must be positive or None")
        self.encoding = encoding
        self.shots = shots
        self._rng = np.random.default_rng(seed)

    def encoded_states(self, X: np.ndarray) -> np.ndarray:
        """Matrix of encoded statevectors, one row per data point.

        All rows are simulated in one batched pass
        (:meth:`Encoding.state_batch`), so building a Gram matrix costs
        O(1) simulator calls instead of one per data point.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.encoding.state_batch(X)

    def __call__(self, X: np.ndarray,
                 Z: Optional[np.ndarray] = None) -> np.ndarray:
        """Gram matrix between rows of X and rows of Z (default X)."""
        with telemetry.span("qml.kernel.gram"):
            states_x = self.encoded_states(X)
            states_z = states_x if Z is None else self.encoded_states(Z)
            overlaps = states_x @ states_z.conj().T
            exact = np.abs(overlaps) ** 2
            _count_entries(exact.size)
            if self.shots is None:
                return exact
            count_shots(self.shots * exact.size)
            symmetric = Z is None
            return self._sampled_gram(exact, symmetric)

    def _sampled_gram(self, exact: np.ndarray,
                      symmetric: bool) -> np.ndarray:
        """Binomial shot noise on every inversion-test estimate.

        One vectorized ``rng.binomial`` draw covers the whole matrix
        (upper triangle only when symmetric, mirrored down and with an
        exact unit diagonal, matching the inversion test on identical
        states).
        """
        probabilities = np.clip(exact, 0.0, 1.0)
        if not symmetric:
            hits = self._rng.binomial(self.shots, probabilities)
            return hits / self.shots
        rows = exact.shape[0]
        upper = np.triu_indices(rows, k=1)
        sampled = np.ones_like(exact)
        sampled[upper] = (
            self._rng.binomial(self.shots, probabilities[upper]) / self.shots
        )
        sampled[(upper[1], upper[0])] = sampled[upper]
        return sampled

    def evaluate(self, x: Sequence[float], z: Sequence[float]) -> float:
        """Single kernel entry ``K(x, z)``."""
        return float(self(np.atleast_2d(x), np.atleast_2d(z))[0, 0])


class ProjectedQuantumKernel:
    """RBF kernel over single-qubit marginal features of encoded states.

    Feature vector: for each qubit, the Z-basis marginal probability of
    reading 1 (a cheap, shot-estimable proxy for the reduced density
    matrix diagonal), concatenated across qubits. ``gamma`` controls
    the Gaussian bandwidth.
    """

    def __init__(self, encoding: Encoding, gamma: float = 1.0):
        if not isinstance(encoding, Encoding):
            raise TypeError("encoding must be an Encoding")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.encoding = encoding
        self.gamma = float(gamma)

    def features(self, X: np.ndarray) -> np.ndarray:
        """Projected features: per-qubit P(1) for each data point.

        Encodes the whole batch in one simulator pass, then reads every
        single-qubit marginal off the probability tensor directly.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = self.encoding.num_qubits
        states = self.encoding.state_batch(X)
        probs = (np.abs(states) ** 2).reshape((X.shape[0],) + (2,) * n)
        feats = np.empty((X.shape[0], n))
        for q in range(n):
            axes = tuple(a for a in range(1, n + 1) if a != q + 1)
            feats[:, q] = probs.sum(axis=axes)[:, 1]
        return feats

    def __call__(self, X: np.ndarray,
                 Z: Optional[np.ndarray] = None) -> np.ndarray:
        with telemetry.span("qml.kernel.projected_gram"):
            feats_x = self.features(X)
            feats_z = feats_x if Z is None else self.features(Z)
            sq = ((feats_x[:, None, :]
                   - feats_z[None, :, :]) ** 2).sum(axis=2)
            _count_entries(sq.size)
            return np.exp(-self.gamma * sq)


def kernel_target_alignment(gram: np.ndarray, y: np.ndarray) -> float:
    """Normalized alignment between a Gram matrix and the label kernel.

    ``A = <K, yy^T> / (||K|| * ||yy^T||)`` with labels in -1/+1. Values
    near 1 mean the kernel already separates the classes; it is the
    standard cheap predictor of quantum-kernel usefulness.
    """
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y).reshape(-1)
    if gram.shape != (y.size, y.size):
        raise ValueError("gram must be square and match y")
    signs = np.where(y == np.unique(y)[-1], 1.0, -1.0)
    target = np.outer(signs, signs)
    numerator = float((gram * target).sum())
    denominator = float(
        np.linalg.norm(gram) * np.linalg.norm(target)
    )
    if denominator == 0:
        raise ValueError("degenerate gram matrix")
    return numerator / denominator


class QuantumKernelClassifier:
    """SVM over a precomputed quantum kernel.

    Parameters
    ----------
    kernel:
        A quantum kernel object (callable Gram builder). Defaults to a
        fidelity kernel over a depth-2 IQP encoding sized at fit time.
    C:
        SVM soft-margin penalty.
    """

    def __init__(self, kernel=None, C: float = 1.0,
                 seed: Optional[int] = 0):
        self.kernel = kernel
        self.C = C
        self.seed = seed
        self._svm: Optional[SVM] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "QuantumKernelClassifier":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kernel is None:
            self.kernel = FidelityQuantumKernel(
                IQPEncoding(X.shape[1], depth=2)
            )
        self._train_X = X
        gram = self.kernel(X)
        self._svm = SVM(kernel="precomputed", C=self.C, seed=self.seed)
        self._svm.fit(gram, y)
        return self

    def _test_gram(self, X: np.ndarray) -> np.ndarray:
        if self._svm is None:
            raise RuntimeError("classifier is not fitted")
        return self.kernel(np.atleast_2d(np.asarray(X, dtype=float)),
                           self._train_X)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        gram = self._test_gram(X)
        return self._svm.decision_function(gram)

    def predict(self, X: np.ndarray) -> np.ndarray:
        gram = self._test_gram(X)
        return self._svm.predict(gram)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(X) == np.asarray(y).reshape(-1)).mean())

"""Foundations experiments: E1 (simulator scaling), E4 (barren
plateaus), E5 (encoding comparison), E6 (noise impact), E7 (optimizer
comparison under shot noise)."""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..datasets import make_moons, minmax_scale, train_test_split
from ..qml.barren import exponential_decay_rate, variance_scan
from ..qml.encoding import (
    AmplitudeEncoding,
    AngleEncoding,
    IQPEncoding,
)
from ..qml.models import VariationalClassifier
from ..qml.ansatz import hardware_efficient_ansatz
from ..qml.gradients import expectation_function
from ..qml.optimizers import SPSA, Adam, GradientDescent
from ..quantum.density import DensityMatrixSimulator
from ..quantum.measurement import expectation_with_shots
from ..quantum.noise import NoiseModel
from ..quantum.operators import PauliSum, single_z
from ..quantum.random_circuits import random_layered_circuit
from ..quantum.statevector import StatevectorSimulator
from .harness import ExperimentResult, register


@register("E1", "Statevector simulation cost grows exponentially in qubits")
def simulator_scaling(qubit_range: Sequence[int] = tuple(range(2, 13)),
                      depth: int = 10, repeats: int = 3,
                      seed: int = 0) -> ExperimentResult:
    """Wall-clock per random layered circuit vs qubit count.

    The claim: time per circuit scales ~2**n, which is why classical
    simulation caps out and hardware matters.
    """
    sim = StatevectorSimulator()
    rows = []
    previous: Optional[float] = None
    for n in qubit_range:
        circuit = random_layered_circuit(n, depth, seed=seed)
        start = time.perf_counter()
        for _ in range(repeats):
            sim.run(circuit)
        elapsed = (time.perf_counter() - start) / repeats
        rows.append({
            "qubits": n,
            "gates": len(circuit),
            "seconds_per_run": elapsed,
            "ratio_to_previous": (elapsed / previous) if previous else 1.0,
            "amplitudes": 2 ** n,
        })
        previous = elapsed
    return ExperimentResult(
        "E1", "Simulator scaling",
        ["qubits", "gates", "seconds_per_run", "ratio_to_previous",
         "amplitudes"],
        rows,
        notes="ratio_to_previous -> ~2 once the 2**n state dominates",
    )


@register("E4", "Barren plateaus: gradient variance decays exponentially")
def barren_plateaus(qubit_range: Sequence[int] = (2, 4, 6, 8, 10),
                    depth: int = 4, num_samples: int = 50,
                    seed: int = 0) -> ExperimentResult:
    """Gradient variance vs qubit count for random HEA circuits."""
    scan = variance_scan(list(qubit_range), depth=depth,
                         num_samples=num_samples, seed=seed)
    rows = [
        {
            "qubits": s.num_qubits,
            "gradient_variance": s.variance,
            "gradient_mean": s.mean,
        }
        for s in scan
    ]
    rate = exponential_decay_rate(scan)
    return ExperimentResult(
        "E4", "Barren plateaus",
        ["qubits", "gradient_variance", "gradient_mean"],
        rows,
        notes=f"fitted decay rate {rate:.3f} per qubit "
              "(positive = exponential suppression)",
    )


@register("E5", "Data encoding choice drives classifier accuracy")
def encoding_comparison(n_train: int = 60, n_test: int = 40,
                        epochs: int = 25, seed: int = 0) -> ExperimentResult:
    """Same VQC budget, four encodings, moons data."""
    X, y = make_moons(n_train + n_test, noise=0.15, seed=seed)
    X = minmax_scale(X)
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_fraction=n_test / (n_train + n_test), seed=seed
    )
    encodings = {
        "angle": AngleEncoding(2, scaling=np.pi),
        "angle+entangle": AngleEncoding(2, scaling=np.pi, entangle=True),
        "iqp_depth2": IQPEncoding(2, depth=2, scaling=np.pi),
        "amplitude": AmplitudeEncoding(2),
        "reuploading": AngleEncoding(2, scaling=np.pi),
    }
    rows = []
    for name, encoding in encodings.items():
        reuploads = 2 if name == "reuploading" else 1
        clf = VariationalClassifier(
            encoding, num_layers=2, epochs=epochs,
            data_reuploads=reuploads, seed=seed,
        )
        clf.fit(X_train, y_train)
        rows.append({
            "encoding": name,
            "train_accuracy": clf.score(X_train, y_train),
            "test_accuracy": clf.score(X_test, y_test),
            "num_weights": clf.num_weights,
        })
    return ExperimentResult(
        "E5", "Encoding comparison (moons)",
        ["encoding", "train_accuracy", "test_accuracy", "num_weights"],
        rows,
    )


#: E6 scores an output with ``|<Z_0>|`` at or below this as a tie, worth
#: half a correct answer. From rate 0.1 on, the two-qubit depolarizing
#: rate ``min(10p, 1)`` is 1 and every output is zero up to float
#: rounding (|value| <= 1.1e-16 in the default run), so its sign is
#: no decision.
_TIE = 1e-12


@register("E6", "Depolarizing noise degrades VQC accuracy")
def noise_impact(error_rates: Sequence[float] = (0.0, 0.01, 0.03, 0.05,
                                                 0.1, 0.2),
                 n_samples: int = 60, epochs: int = 25,
                 seed: int = 0) -> ExperimentResult:
    """Train noiselessly, evaluate under increasing gate noise.

    This isolates inference-time noise, the dominant effect on NISQ
    hardware for models trained in simulation. An output within
    ``_TIE`` of zero counts as half a correct answer.
    """
    X, y = make_moons(n_samples, noise=0.1, seed=seed)
    X = minmax_scale(X)
    clf = VariationalClassifier(2, num_layers=2, epochs=epochs, seed=seed)
    clf.fit(X, y)
    observable = PauliSum([single_z(0, 2)])
    classes = clf.classes_
    rows = []
    for rate in error_rates:
        noise = NoiseModel.depolarizing(rate) if rate > 0 else None
        sim = DensityMatrixSimulator(noise_model=noise)
        correct = 0
        for features, label in zip(X, y):
            circuit = clf._full_circuit(features).bind(
                dict(zip(clf._weight_params, clf.weights_))
            )
            output = sim.expectation(circuit, observable)
            if abs(output) <= _TIE:  # a coin flip, not a decision
                correct += 0.5
                continue
            predicted = classes[1] if output > 0 else classes[0]
            correct += int(predicted == label)
        rows.append({
            "error_rate": rate,
            "accuracy": correct / len(y),
        })
    return ExperimentResult(
        "E6", "Noise impact on a trained VQC",
        ["error_rate", "accuracy"],
        rows,
        notes="graceful degradation, collapsing to chance at high rates",
    )


@register("E7", "Optimizer comparison under shot noise")
def optimizer_comparison(shots: int = 128, eval_budget: int = 600,
                         num_qubits: int = 3,
                         seed: int = 0) -> ExperimentResult:
    """Minimize a VQC energy with GD / Adam / SPSA using shot-based
    expectation values, at a *fixed total circuit-evaluation budget*.

    SPSA spends 2 evaluations per step regardless of dimension, while
    parameter-shift gradients cost ``2 * P + 1``; at equal hardware
    budget SPSA takes many more steps — the reason it is the default
    on real devices.
    """
    circuit, params = hardware_efficient_ansatz(num_qubits, 2)
    observable = PauliSum([single_z(0, num_qubits)])
    exact = expectation_function(circuit, observable)
    rng = np.random.default_rng(seed)

    def noisy(values):
        bound = circuit.bind(dict(zip(params, values)))
        return expectation_with_shots(bound, observable, shots, rng=rng)

    def noisy_gradient(values):
        # Shot-noisy parameter shift (the hardware recipe).
        grad = np.zeros(len(values))
        for k in range(len(values)):
            shifted = np.array(values, dtype=float)
            shifted[k] += np.pi / 2
            plus = noisy(shifted)
            shifted[k] -= np.pi
            minus = noisy(shifted)
            grad[k] = 0.5 * (plus - minus)
        return grad

    x0 = rng.uniform(0, 2 * np.pi, size=len(params))
    gradient_evals_per_step = 2 * len(params) + 1
    optimizers = {
        "gd": (GradientDescent(learning_rate=0.2), noisy_gradient,
               gradient_evals_per_step),
        "adam": (Adam(learning_rate=0.2), noisy_gradient,
                 gradient_evals_per_step),
        "spsa": (SPSA(a=0.4, c=0.2, seed=seed), None, 2),
    }
    rows = []
    for name, (optimizer, gradient, per_step) in optimizers.items():
        steps = max(1, eval_budget // per_step)
        result = optimizer.minimize(noisy, x0.copy(), gradient=gradient,
                                    max_iter=steps)
        rows.append({
            "optimizer": name,
            "final_energy": exact(result.x),
            "steps": steps,
            "circuit_evals_per_step": per_step,
            "total_circuit_evals": per_step * steps,
        })
    return ExperimentResult(
        "E7", "Optimizers under shot noise (fixed evaluation budget)",
        ["optimizer", "final_energy", "steps", "circuit_evals_per_step",
         "total_circuit_evals"],
        rows,
        notes="lower final_energy is better; floor is -1.0. All rows "
              "spend (about) the same number of circuit executions.",
    )


@register("E16", "Amplitude estimation converges quadratically faster "
                 "than Monte Carlo sampling")
def amplitude_estimation_scaling(eval_qubit_range: Sequence[int] = (2, 3,
                                                                    4, 5,
                                                                    6, 7),
                                 target_amplitude: float = 0.3,
                                 mc_trials: int = 200,
                                 seed: int = 0) -> ExperimentResult:
    """Estimation error vs oracle budget for QAE and classical
    sampling on the same preparation circuit.

    QAE with m evaluation qubits spends ``2**m - 1`` (controlled)
    Grover calls and achieves additive error ~``pi / 2**m``; classical
    sampling with the same number of circuit shots has RMS error
    ``sqrt(a (1 - a) / shots)`` — error ~ 1/budget vs 1/sqrt(budget),
    the canonical quadratic speedup for aggregate estimation.
    """
    import math as _math

    from ..quantum.amplitude_estimation import (
        amplitude_estimation,
        classical_sample_estimate,
    )
    from ..quantum.circuit import Circuit

    theta = 2.0 * _math.asin(_math.sqrt(target_amplitude))
    preparation = Circuit(1).ry(theta, 0)
    rng = np.random.default_rng(seed)
    rows = []
    for m in eval_qubit_range:
        qae = amplitude_estimation(preparation, [1], num_eval_qubits=m)
        budget = qae.grover_calls
        mc_errors = []
        for _ in range(mc_trials):
            estimate = classical_sample_estimate(
                preparation, [1], shots=max(1, budget),
                seed=int(rng.integers(2 ** 31)),
            )
            mc_errors.append((estimate - target_amplitude) ** 2)
        rows.append({
            "oracle_calls": budget,
            "qae_error": qae.error,
            "mc_rms_error": float(np.sqrt(np.mean(mc_errors))),
        })
    return ExperimentResult(
        "E16", "Amplitude estimation vs Monte Carlo (same oracle budget)",
        ["oracle_calls", "qae_error", "mc_rms_error"],
        rows,
        notes="qae_error falls ~1/budget, mc_rms_error ~1/sqrt(budget); "
              "the gap widens with budget",
    )


@register("E20", "Zero-noise extrapolation recovers noisy expectations")
def zne_recovery(error_rates: Sequence[float] = (0.005, 0.01, 0.02,
                                                 0.04),
                 depth: int = 3, seed: int = 0) -> ExperimentResult:
    """Error of the raw noisy expectation vs the ZNE-mitigated one,
    across gate error rates — the NISQ error-mitigation workflow run
    against this library's own noise models."""
    from ..quantum.circuit import Circuit
    from ..quantum.mitigation import zero_noise_extrapolation
    from ..quantum.operators import PauliString

    circuit = Circuit(2)
    for _ in range(depth):
        circuit.h(0).cx(0, 1).ry(0.3, 0).rz(0.2, 1)
    observable = PauliString("ZZ")
    ideal = StatevectorSimulator().expectation(circuit, observable)
    rows = []
    for rate in error_rates:
        noise = NoiseModel.depolarizing(rate)
        result = zero_noise_extrapolation(
            circuit, observable, noise,
            scale_factors=(1.0, 3.0, 5.0), order=2,
        )
        rows.append({
            "error_rate": rate,
            "noisy_error": abs(result.noisy_value - ideal),
            "mitigated_error": abs(result.mitigated_value - ideal),
            "improvement_factor": (
                abs(result.noisy_value - ideal)
                / max(abs(result.mitigated_value - ideal), 1e-12)
            ),
        })
    return ExperimentResult(
        "E20", "ZNE recovery (|error| vs ideal <ZZ>)",
        ["error_rate", "noisy_error", "mitigated_error",
         "improvement_factor"],
        rows,
        notes="mitigated error should sit well below the raw noisy "
              "error until the noise is too strong to extrapolate",
    )

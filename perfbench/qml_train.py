"""``qml_train``: the E13 learned-cardinality task.

Builds ``make_cardinality_dataset`` over correlated columns, fits
``VariationalRegressor(AngleEncoding(4), num_layers=2)`` for a fixed
number of 24-row minibatch epochs (as E13 does), then predicts the test
split. It uses the simulator through batched ``run_batch`` and
parameter-shift gradients and touches none of annealing, service or
server. Unit of work: one training row of one epoch (throughput); one
fit (latency), rescaled to the nominal machine speed (see ``common``).
"""

from __future__ import annotations

import os
import time
from typing import List

import numpy as np

from common import (
    LayerClock,
    Outcome,
    at_nominal_speed,
    count_gates,
    p50,
    peak_rss_mb,
    ratio,
    reference_seconds,
)

NUM_ROWS = 2000
NUM_QUERIES = 150
CORRELATION = 0.9
EPOCHS = 12
BATCH_ROWS = 24
TRAIN_SHARE = 0.7

#: Output-check band: the fitted model's mean squared log q-error on the
#: test split (its squared error on log cardinalities) may exceed that
#: of always predicting the training mean by at most this factor.
#: Twelve minibatch epochs land between 0.88x and 1.68x of it over 14
#: seeds; a broken model or simulator lands far outside. (Median
#: q-error against the mean predictor is too noisy for a band: 0.36x
#: to 2.3x over the same seeds.)
MAX_LOG_ERROR_VS_MEAN = 2.5


def build_inputs(seed: int):
    from repro.db.cardinality import make_cardinality_dataset

    dataset = make_cardinality_dataset(
        num_rows=NUM_ROWS, num_queries=NUM_QUERIES,
        correlation=CORRELATION, seed=seed)
    order = np.random.default_rng(seed).permutation(NUM_QUERIES)
    cut = int(TRAIN_SHARE * NUM_QUERIES)
    return dataset, order[:cut], order[cut:]


def _model(features: int, seed: int):
    from repro.qml import AngleEncoding, VariationalRegressor

    return VariationalRegressor(AngleEncoding(features, scaling=1.5),
                                num_layers=2, epochs=EPOCHS,
                                batch_size=BATCH_ROWS, seed=seed)


def _median_q_error(log_estimates: np.ndarray, truths: np.ndarray) -> float:
    from repro.db.cardinality import evaluate_q_errors

    estimates = np.expm1(np.clip(log_estimates, 0.0, 30.0))
    return evaluate_q_errors(estimates, truths)["median"]


def setup_probe(seed: int, smoke: bool) -> None:
    dataset, _, _ = build_inputs(seed)
    _model(dataset.features.shape[1], seed)


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> Outcome:
    # ``smoke`` changes nothing here: one full-size fit takes a second.
    from repro.qml import models as models_module
    from repro.quantum.statevector import StatevectorSimulator

    dataset, train, test = build_inputs(seed)
    features, labels = dataset.features, dataset.log_cardinalities
    truths = dataset.cardinalities[test]
    outcome = Outcome()
    clock = LayerClock()
    if traced:
        clock.wrap(StatevectorSimulator, "run_batch", "run_batch",
                   inspect=lambda c, _sim, circuits, *a, **k:
                   count_gates(c, "batch_gates", circuits))
        clock.wrap(StatevectorSimulator, "run", "run", nested=False,
                   inspect=lambda c, _sim, circuit, *a, **k:
                   count_gates(c, "run_gates", [circuit]))
        clock.wrap(models_module, "parameter_shift_gradient", "gradient")
    fit_seconds: List[float] = []
    nominal: List[float] = []
    predictions = []
    try:
        before = reference_seconds(3)
        started = time.perf_counter()
        while not fit_seconds or time.perf_counter() - started < seconds:
            model = _model(features.shape[1], seed + len(fit_seconds))
            outcome.attempted += 1
            began = time.perf_counter()
            try:
                model.fit(features[train], labels[train])
            except Exception as exc:  # noqa: BLE001 — counted
                outcome.fail(f"fit: {type(exc).__name__}: {exc}")
                continue
            fit_seconds.append(time.perf_counter() - began)
            after = reference_seconds(3)
            nominal.append(at_nominal_speed(fit_seconds[-1], before, after))
            before = after
            predictions.append(model.predict(features[test]))
        elapsed = time.perf_counter() - started
        outcome.peak_rss_mb = peak_rss_mb([os.getpid()])
    finally:
        clock.restore()

    mean_prediction = np.full(len(test), labels[train].mean())
    baseline = float(((mean_prediction - labels[test]) ** 2).mean())
    errors = []
    for predicted in predictions:
        if not np.all(np.isfinite(predicted)):
            outcome.fail("non-finite prediction")
            continue
        errors.append(_median_q_error(predicted, truths))
        squared = float(((predicted - labels[test]) ** 2).mean())
        if squared > MAX_LOG_ERROR_VS_MEAN * baseline:
            outcome.fail(f"mean squared log error {squared:.3f} outside "
                         f"band ({MAX_LOG_ERROR_VS_MEAN} x {baseline:.3f})")

    rows = BATCH_ROWS * EPOCHS
    outcome.latency_p50 = p50(nominal)
    outcome.throughput = rows / outcome.latency_p50
    outcome.named = {
        "train_samples_per_s": (rows / p50(fit_seconds), "1/s"),
        "fit_p50_s": (p50(fit_seconds), "s"),
        "fits": (len(fit_seconds), "count"),
        "fits_per_s": (len(fit_seconds) / elapsed, "1/s"),
        "median_q_error": (p50(errors), "ratio"),
        "mean_predictor_q_error":
            (_median_q_error(mean_prediction, truths), "ratio"),
    }
    if traced:
        steps = EPOCHS * len(fit_seconds)
        outcome.layers = {
            "quantum.statevector.batch_gate_apps_per_s":
                ratio(clock.counts["batch_gates"],
                      clock.seconds["run_batch"]),
            "quantum.statevector.diagonal_gate_frac":
                ratio(clock.counts["diagonal_gates"],
                      clock.counts["all_gates"]),
            "qml.gradient_s.per_step": ratio(clock.seconds["gradient"],
                                             steps),
            "qml.run_batch_calls": clock.calls["run_batch"],
        }
    return outcome

"""Tests for repro.telemetry: spans, the one metrics store, provenance,
CLI wiring."""

import json
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.quantum import Circuit, StatevectorSimulator
from repro.quantum.statevector import apply_matrix


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with every telemetry layer off."""
    telemetry.observe("off")
    yield
    telemetry.observe("off")


def _span_series(registry, path):
    """The ``span_seconds`` series of one nesting path."""
    return registry.get(telemetry.SPAN_METRIC).labels(path=path)


def _total(snapshot, name):
    """A counter's value summed over its label sets."""
    return sum(series["value"]
               for series in snapshot["counters"][name]["series"])


def _representative_circuit(num_qubits=5, layers=4) -> Circuit:
    qc = Circuit(num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            qc.ry(0.3 * (layer + 1), q)
        for q in range(num_qubits - 1):
            qc.cx(q, q + 1)
    return qc


# -- enable/disable ----------------------------------------------------
def test_disabled_by_default_and_noop():
    assert telemetry.get_registry() is None
    assert telemetry.get_tracer() is None
    with telemetry.span("x"):
        pass
    # With both the registry and the tracer off, every span is the one
    # shared no-op object, never a fresh allocation per call.
    assert telemetry.span("a") is telemetry.span("b")


def test_enable_disable_cycle():
    # Registry only: one observation in the span histogram, nothing on
    # a timeline.
    registry = telemetry.enable_metrics()
    with telemetry.span("c"):
        pass
    assert telemetry.get_tracer() is None
    assert _span_series(registry, "c").count == 1
    telemetry.disable_metrics()
    with telemetry.span("c"):  # dropped
        pass
    assert _span_series(registry, "c").count == 1


def test_observe_from_env(monkeypatch):
    monkeypatch.delenv(telemetry.ENV_VAR, raising=False)
    telemetry._observe_from_env()
    assert telemetry.get_registry() is None
    monkeypatch.setenv(telemetry.ENV_VAR, " Metrics ")
    telemetry._observe_from_env()
    registry = telemetry.get_registry()
    assert registry is not None
    assert telemetry.observed_level() == "metrics"
    # A second read keeps the registry it installed.
    telemetry._observe_from_env()
    assert telemetry.get_registry() is registry
    monkeypatch.setenv(telemetry.ENV_VAR, "1")
    with pytest.raises(ValueError) as raised:
        telemetry._observe_from_env()
    message = str(raised.value)
    assert telemetry.ENV_VAR in message
    assert all(level in message for level in telemetry.LEVELS)


# -- counters / gauges ------------------------------------------------
def test_counter_totals():
    registry = telemetry.enable_metrics()
    hits = registry.counter("hits_total")
    hits.inc()
    hits.inc(4)
    registry.counter("other_total").inc(2.5)
    snapshot = registry.snapshot()
    assert _total(snapshot, "hits_total") == 5
    assert _total(snapshot, "other_total") == 2.5


def test_counters_are_thread_safe():
    registry = telemetry.enable_metrics()

    def work():
        for _ in range(1000):
            registry.counter("parallel_total").inc()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.get("parallel_total").value == 8000


def test_gauge_last_write_wins():
    registry = telemetry.enable_metrics()
    registry.gauge("bytes").set(10)
    registry.gauge("bytes").set(99)
    assert registry.get("bytes").value == 99


# -- spans -------------------------------------------------------------
def test_span_nesting_builds_paths():
    registry = telemetry.enable_metrics()
    with telemetry.span("outer"):
        with telemetry.span("inner"):
            pass
        with telemetry.span("inner"):
            pass
    assert _span_series(registry, "outer").count == 1
    assert _span_series(registry, "outer/inner").count == 2
    assert (_span_series(registry, "outer").sum
            >= _span_series(registry, "outer/inner").sum)


def test_span_records_duration():
    registry = telemetry.enable_metrics()
    with telemetry.span("sleepy"):
        time.sleep(0.01)
    assert _span_series(registry, "sleepy").sum >= 0.009


def test_span_survives_exception():
    registry = telemetry.enable_metrics()
    with pytest.raises(RuntimeError):
        with telemetry.span("boom"):
            raise RuntimeError("x")
    assert _span_series(registry, "boom").count == 1
    # The failed span left the nesting stack: the next one is top-level.
    with telemetry.span("after"):
        pass
    assert _span_series(registry, "after").count == 1


# -- export ------------------------------------------------------------
def test_reset_clears_metrics():
    registry = telemetry.enable_metrics()
    registry.counter("x_total").inc()
    with telemetry.span("t"):
        pass
    registry.reset()
    snap = registry.snapshot()
    assert snap["counters"] == {} and snap["histograms"] == {}


def test_render_report_mentions_metrics():
    registry = telemetry.enable_metrics()
    registry.counter("quantum_gate_applications_total").inc(12)
    with telemetry.span("quantum.run"):
        pass
    text = telemetry.render_dashboard(registry.snapshot())
    assert "quantum_gate_applications_total" in text
    assert "span_seconds{path=quantum.run}" in text


def test_render_report_degenerate_inputs():
    # None and {} must render a valid placeholder report, not crash.
    for metrics in (None, {}):
        text = telemetry.render_dashboard(metrics)
        assert text.startswith("metrics report")
        assert "(no metrics in snapshot)" in text
    # A live-but-empty registry behaves the same.
    registry = telemetry.enable_metrics()
    assert "(no metrics in snapshot)" in telemetry.render_dashboard(
        registry.snapshot())


def test_render_report_skips_none_provenance_values():
    text = telemetry.render_dashboard({}, provenance={
        "experiment_id": "E8",
        "seed": None,
        "duration_seconds": 0.25,
    })
    assert "experiment_id" in text and "E8" in text
    assert "duration_seconds" in text
    assert "seed" not in text
    # All-None provenance adds no section at all.
    text = telemetry.render_dashboard({}, provenance={"seed": None})
    assert "provenance" not in text


def test_render_report_includes_tracer_drop_line():
    from repro.telemetry.trace import Tracer

    registry = telemetry.enable_metrics()
    registry.counter("c_total").inc()
    tracer = telemetry.enable_tracing(Tracer(max_events=2))
    for index in range(5):
        tracer.instant(f"event.{index}")
    snapshot = registry.snapshot()
    text = telemetry.render_dashboard(snapshot, tracer=tracer)
    assert "trace: 2 events buffered, 3 dropped" in text
    # Without a tracer argument there is no line, even while a global
    # tracer is active.
    assert "trace:" not in telemetry.render_dashboard(snapshot)
    telemetry.disable_tracing()
    assert "trace:" not in telemetry.render_dashboard(snapshot)


def test_render_report_no_dangling_series_header():
    # A histogram that exists but holds no series must not leave a
    # bare "histograms:" header in the report.
    registry = telemetry.enable_metrics()
    registry.histogram("idle_seconds")
    text = telemetry.render_dashboard(registry.snapshot())
    assert "histograms:" not in text
    assert "(no metrics in snapshot)" in text


def test_dashboard_matches_the_former_report_text():
    # The experiments CLI and serve-bench print this block; it must
    # stay the text the separate report renderer used to produce.
    from repro.telemetry.trace import Tracer

    registry = telemetry.MetricsRegistry()
    sweeps = registry.counter("solver_sweeps_total", "sweeps", ("solver",))
    sweeps.labels(solver="sa").inc(300)
    sweeps.labels(solver="sqa").inc(1.5)
    registry.gauge("statevector_bytes", "bytes").set(4096)
    registry.gauge("service_queue_wait_seconds_max", "s").set(0.25)
    spans = registry.histogram("span_seconds", "spans", ("path",))
    for value in (0.001, 0.002, 0.004, 1.5):
        spans.labels(path="experiment.E8").observe(value)
    registry.histogram("batch_size", "rows").observe(3)
    tracer = Tracer(max_events=2, sample_memory=False)
    for index in range(5):
        tracer.instant(f"event{index}")
    provenance = {"experiment_id": "E8", "seed": 0, "git_sha": None,
                  "duration_seconds": 1.23456,
                  "kwargs": {"sizes": (4,)}}
    text = telemetry.render_dashboard(registry.snapshot(), tracer=tracer,
                                      provenance=provenance)
    assert text == """\
metrics report (repro-metrics/v1)
histograms:
  name                              count  mean      p50     p95    p99
  batch_size                        1      3         3       3      3
  span_seconds{path=experiment.E8}  4      376.75ms  3.00ms  1.28s  1.46s
counters:
  solver_sweeps_total{solver=sa}   300
  solver_sweeps_total{solver=sqa}  1.5
gauges:
  service_queue_wait_seconds_max  250.00ms
  statevector_bytes               4,096
trace: 2 events buffered, 3 dropped
provenance:
  duration_seconds  1.235
  experiment_id     E8
  kwargs            {'sizes': (4,)}
  seed              0"""


# -- instrumentation of the hot layers ---------------------------------
def test_statevector_counts_gates_when_enabled():
    registry = telemetry.enable_metrics()
    sim = StatevectorSimulator(seed=0)
    qc = _representative_circuit(num_qubits=3, layers=2)
    sim.run(qc)
    sim.sample_counts(qc, shots=64)
    snapshot = registry.snapshot()
    assert (_total(snapshot, "quantum_gate_applications_total")
            == 2 * len(qc.instructions))
    assert _total(snapshot, "quantum_circuit_evaluations_total") == 2
    assert _total(snapshot, "quantum_shots_total") == 64
    assert registry.get("quantum_gates_total").labels(gate="cx").value > 0
    assert registry.get("quantum_statevector_peak_bytes").value == (
        2 ** 3 * 16
    )


def test_statevector_identical_results_enabled_vs_disabled():
    qc = _representative_circuit(num_qubits=4, layers=3)
    sim = StatevectorSimulator(seed=0)
    disabled_state = sim.run(qc)
    telemetry.enable_metrics()
    enabled_state = sim.run(qc)
    np.testing.assert_allclose(disabled_state, enabled_state)


def test_annealer_counts_sweeps_and_trajectory():
    from repro.annealing import IsingModel, SimulatedAnnealingSolver

    registry = telemetry.enable_metrics()
    model = IsingModel(2, h={0: 0.5, 1: -0.5}, j={(0, 1): 1.0})
    solver = SimulatedAnnealingSolver(num_sweeps=30, num_reads=4, seed=0)
    solver.solve(model)
    snap = registry.snapshot()
    assert _total(snap, "solver_sweeps_total") == 120
    assert _total(snap, "solver_moves_total") == 120 * model.num_spins
    assert _span_series(registry, "annealing.sa.solve").count == 1


def test_gradient_counter():
    from repro.quantum.operators import PauliSum, single_z
    from repro.qml.gradients import parameter_shift_gradient
    from repro.quantum.circuit import Parameter

    registry = telemetry.enable_metrics()
    theta = Parameter("theta")
    qc = Circuit(1).ry(theta, 0)
    observable = PauliSum([single_z(0, 1)])
    parameter_shift_gradient(qc, observable, [0.3])
    snapshot = registry.snapshot()
    assert _total(snapshot, "qml_gradient_evaluations_total") == 1
    # Each shift-rule term costs two circuit evaluations.
    assert _total(snapshot, "quantum_circuit_evaluations_total") == 2


# -- provenance --------------------------------------------------------
def test_provenance_fields():
    record = telemetry.collect_provenance(
        "E8", {"sizes": (4, 6), "seed": 3}, duration_seconds=1.25
    ).to_dict()
    assert record["experiment_id"] == "E8"
    assert record["kwargs"] == {"sizes": [4, 6], "seed": 3}
    assert record["seed"] == 3
    assert record["version"]
    assert record["duration_seconds"] == 1.25
    assert record["python"]
    json.dumps(record)  # fully serializable


def test_provenance_sanitizes_exotic_kwargs():
    record = telemetry.collect_provenance(
        "EX", {"array": np.arange(3), "scalar": np.float64(1.5)}
    ).to_dict()
    json.dumps(record)
    assert record["kwargs"]["scalar"] == 1.5


def test_run_experiment_attaches_provenance_and_metrics():
    from repro.experiments import run_experiment

    registry = telemetry.enable_metrics()
    results = [run_experiment("E14", cluster_sizes=(3,), num_reads=3,
                              num_sweeps=sweeps, seed=0)
               for sweeps in (20, 30)]
    result = results[0]
    assert result.provenance is not None
    assert result.provenance["experiment_id"] == "E14"
    assert result.provenance["seed"] == 0
    assert result.provenance["version"]
    assert result.provenance["duration_seconds"] > 0
    assert result.metrics["schema"] == "repro-metrics/v1"
    paths = {series["labels"]["path"]: series["count"] for series
             in result.metrics["histograms"]["span_seconds"]["series"]}
    assert paths["experiment.E14"] == 1
    # Annealer spans nest under the experiment span.
    assert any(path.startswith("experiment.E14/") for path in paths)
    # Each result holds only its own run's sweeps; the caller's
    # registry holds the sum.
    sweeps = [_total(r.metrics, "solver_sweeps_total") for r in results]
    assert 0 < sweeps[0] < sweeps[1]
    assert _total(registry.snapshot(), "solver_sweeps_total") == sum(sweeps)
    assert _span_series(registry, "experiment.E14").count == 2


def test_run_experiment_without_telemetry_has_no_records():
    from repro.experiments import run_experiment

    result = run_experiment("E14", cluster_sizes=(3,), num_reads=2,
                            num_sweeps=10, seed=0)
    assert result.provenance is None
    assert result.metrics is None


# -- CLI ---------------------------------------------------------------
def test_cli_json_out(tmp_path, capsys):
    from repro.experiments.__main__ import main as cli_main

    out_file = tmp_path / "metrics.json"
    code = cli_main([
        "E14", "--telemetry", "--json-out", str(out_file),
        "--set", "cluster_sizes=(3,)", "--set", "num_reads=2",
        "--set", "num_sweeps=10", "--set", "seed=0",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "metrics report" in printed
    document = json.loads(out_file.read_text())
    assert document["schema"] == "repro-telemetry/v1"
    (record,) = document["experiments"]
    assert record["provenance"]["experiment_id"] == "E14"
    assert record["provenance"]["seed"] == 0
    assert record["metrics"]["schema"] == "repro-metrics/v1"
    assert _total(record["metrics"], "solver_sweeps_total") > 0
    assert telemetry.get_registry() is None  # CLI restores the level


def test_cli_rejects_bad_set(capsys):
    from repro.experiments.__main__ import main as cli_main

    assert cli_main(["E14", "--set", "nokey"]) == 2


# -- overhead guard ----------------------------------------------------
def test_disabled_overhead_is_small():
    """With telemetry disabled the instrumented simulator must stay
    close to a raw uninstrumented apply loop.

    Locally the gap is well under 5% (the disabled path costs a
    ``get_registry()`` and a ``get_tracer()`` call per run); the
    assertion bound is loose
    (50%) because shared CI machines jitter far more than the
    instrumentation costs.
    """
    qc = _representative_circuit(num_qubits=6, layers=6)
    sim = StatevectorSimulator(seed=0)
    n = qc.num_qubits

    def raw_run():
        # Mirrors StatevectorSimulator.run's disabled branch exactly,
        # minus the telemetry guard itself.
        state = np.zeros(2 ** n, dtype=complex)
        state[0] = 1.0
        for inst in qc.instructions:
            state = apply_matrix(state, inst.matrix(), inst.qubits, n)
        return state

    def timed(function, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - start)
        return best

    raw_run()          # warm caches
    sim.run(qc)
    assert telemetry.get_registry() is None
    baseline = timed(raw_run)
    instrumented = timed(lambda: sim.run(qc))
    assert instrumented <= baseline * 1.5 + 1e-3

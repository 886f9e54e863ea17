"""Tests for repro.telemetry.trace: the event tracer and its exports."""

import json
import threading
import time
from collections import defaultdict

import numpy as np
import pytest

from repro import telemetry
from repro.quantum import Circuit, StatevectorSimulator
from repro.quantum.statevector import apply_matrix
from repro.telemetry.progress import (
    MAX_PROGRESS_ROWS,
    PROGRESS_FIELDS,
    ProgressTrace,
)
from repro.telemetry.trace import Tracer


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts and ends with tracing and metrics off."""
    telemetry.disable_metrics()
    telemetry.disable_tracing()
    yield
    telemetry.disable_metrics()
    telemetry.disable_tracing()


# -- enable/disable ----------------------------------------------------
def test_disabled_by_default():
    assert telemetry.get_tracer() is None
    assert telemetry.observed_level() == "off"
    telemetry.trace_instant("x")  # safe no-op while disabled


def test_enable_disable_cycle():
    tracer = telemetry.enable_tracing()
    assert telemetry.observed_level() == "trace"
    assert telemetry.get_tracer() is tracer
    telemetry.trace_instant("marker")
    assert tracer.event_count == 1
    telemetry.disable_tracing()
    assert telemetry.get_tracer() is None
    telemetry.trace_instant("dropped")
    assert tracer.event_count == 1


# -- event recording ---------------------------------------------------
def test_begin_end_pairing():
    tracer = Tracer(sample_memory=False)
    with tracer.span("outer"):
        with tracer.span("inner", category="custom"):
            tracer.instant("tick")
    events = tracer.events()
    phases = [(e["ph"], e["name"]) for e in events]
    assert phases == [
        ("B", "outer"), ("B", "inner"), ("I", "tick"),
        ("E", "inner"), ("E", "outer"),
    ]
    inner = [e for e in events if e["name"] == "inner"]
    assert all(e["cat"] == "custom" for e in inner)
    tick = next(e for e in events if e["ph"] == "I")
    assert tick["s"] == "t"


def test_complete_event_has_duration():
    tracer = Tracer(sample_memory=False)
    start = tracer.timestamp_us()
    time.sleep(0.002)
    tracer.complete("work", start, category="gate", args={"qubits": [0]})
    (event,) = tracer.events()
    assert event["ph"] == "X"
    assert event["ts"] == pytest.approx(start)
    assert event["dur"] >= 1_000.0  # at least 1ms in microseconds
    assert event["args"] == {"qubits": [0]}


def test_ring_buffer_bounds_memory_and_counts_drops():
    tracer = Tracer(max_events=10, sample_memory=False)
    for index in range(25):
        tracer.instant(f"e{index}")
    assert tracer.event_count == 10
    assert tracer.dropped_events == 15
    names = [e["name"] for e in tracer.events()]
    assert names == [f"e{i}" for i in range(15, 25)]  # oldest dropped
    document = tracer.to_chrome_trace()
    assert document["metadata"]["dropped_events"] == 15
    tracer.clear()
    assert tracer.event_count == 0
    assert tracer.dropped_events == 0


def test_counter_events():
    tracer = Tracer(sample_memory=False)
    tracer.counter("load", {"queue": 3.0})
    (event,) = tracer.events()
    assert event["ph"] == "C"
    assert event["args"] == {"queue": 3.0}


# -- exports -----------------------------------------------------------
def test_chrome_trace_structure_and_monotonic_ts(tmp_path):
    tracer = Tracer(sample_memory=False)
    with tracer.span("run"):
        for index in range(5):
            tracer.instant(f"step{index}")
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path), metadata={"run": "test"})
    document = json.loads(path.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert document["metadata"]["run"] == "test"
    events = document["traceEvents"]
    assert events[0]["ph"] == "M"  # process_name metadata first
    payload = [e for e in events if e["ph"] != "M"]
    timestamps = [e["ts"] for e in payload]
    assert timestamps == sorted(timestamps)
    for event in payload:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)


def test_jsonl_export_round_trips():
    tracer = Tracer(sample_memory=False)
    tracer.instant("a")
    tracer.instant("b", args={"k": 1})
    lines = tracer.to_jsonl().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert [p["name"] for p in parsed] == ["a", "b"]
    assert parsed[1]["args"] == {"k": 1}


def test_memory_counter_events_at_span_boundaries():
    tracer = Tracer(sample_memory=True)
    with tracer.span("outer"):
        pass
    memory = [e for e in tracer.events() if e["name"] == "memory"]
    assert memory, "expected at least one memory sample"
    assert memory[0]["ph"] == "C"
    assert memory[0]["args"]["peak_rss_kb"] > 0


def test_memory_sampling_is_throttled():
    tracer = Tracer(sample_memory=True)
    for _ in range(200):  # hammer span boundaries back to back
        with tracer.span("tight"):
            pass
    memory = [e for e in tracer.events() if e["name"] == "memory"]
    # 400 boundaries in well under a second can produce only a handful
    # of samples at one-per-millisecond throttling.
    assert len(memory) < 100


# -- span mirroring ----------------------------------------------------
def test_collector_spans_mirror_onto_timeline():
    registry = telemetry.enable_metrics()
    tracer = telemetry.enable_tracing(sample_memory=False)
    with telemetry.span("experiment"):
        with telemetry.span("solver"):
            pass
    phases = [(e["ph"], e["name"]) for e in tracer.events()]
    assert phases == [
        ("B", "experiment"), ("B", "solver"),
        ("E", "solver"), ("E", "experiment"),
    ]
    begin = next(e for e in tracer.events() if e["name"] == "solver"
                 and e["ph"] == "B")
    assert begin["args"]["path"] == "experiment/solver"
    assert {e["cat"] for e in tracer.events()} == {"span"}
    # Both layers on: the registry times the same activations.
    spans = registry.get(telemetry.SPAN_METRIC)
    assert spans.labels(path="experiment/solver").count == 1


def test_disable_between_enter_and_exit_keeps_pairs():
    telemetry.enable_metrics()
    tracer = telemetry.enable_tracing(sample_memory=False)
    handle = telemetry.span("pinned")
    handle.__enter__()
    telemetry.disable_tracing()  # mid-span disable
    handle.__exit__(None, None, None)
    phases = [e["ph"] for e in tracer.events()]
    assert phases == ["B", "E"]  # the pinned tracer still got the E


def test_telemetry_span_tracer_only():
    tracer = telemetry.enable_tracing(sample_memory=False)
    assert telemetry.get_registry() is None
    with telemetry.span("bare"):
        pass
    phases = [(e["ph"], e["name"], e["cat"]) for e in tracer.events()]
    assert phases == [("B", "bare", "span"), ("E", "bare", "span")]


# -- simulator gate events ---------------------------------------------
def test_simulator_emits_per_gate_events():
    tracer = telemetry.enable_tracing(sample_memory=False)
    qc = Circuit(2).h(0).cx(0, 1)
    StatevectorSimulator(seed=0).run(qc)
    gates = [e for e in tracer.events() if e["cat"] == "gate"]
    assert [g["name"] for g in gates] == ["gate.h", "gate.cx"]
    assert gates[1]["args"]["qubits"] == [0, 1]
    assert all(g["ph"] == "X" for g in gates)


def test_run_batch_emits_per_position_events():
    tracer = telemetry.enable_tracing(sample_memory=False)
    circuits = [Circuit(2).h(0).rz(0.1 * i, 1) for i in range(4)]
    StatevectorSimulator(seed=0).run_batch(circuits)
    batched = [e for e in tracer.events() if e["cat"] == "gate_batch"]
    assert [b["name"] for b in batched] == ["gate_batch.h",
                                           "gate_batch.rz"]
    assert all(b["args"]["batch"] == 4 for b in batched)


def test_simulator_results_identical_with_tracing():
    qc = Circuit(3).h(0).cx(0, 1).rzz(0.4, 1, 2)
    plain = StatevectorSimulator(seed=0).run(qc)
    telemetry.enable_tracing(sample_memory=False)
    traced = StatevectorSimulator(seed=0).run(qc)
    np.testing.assert_array_equal(plain, traced)


# -- ProgressTrace -----------------------------------------------------
def test_progress_trace_uniform_rows():
    progress = ProgressTrace(label="sa")
    progress.record(iteration=0, best_energy=1.5)
    progress.record(iteration=1, best_energy=1.0, current_energy=1.2,
                    acceptance_rate=0.5, schedule_value=0.1)
    rows = progress.rows()
    assert len(progress) == 2
    assert all(set(row) == set(PROGRESS_FIELDS) for row in rows)
    assert rows[0]["acceptance_rate"] is None
    assert rows[1]["schedule_value"] == 0.1
    assert progress.best_energy == 1.0


def test_progress_trace_bounded():
    progress = ProgressTrace(max_rows=5)
    for index in range(9):
        progress.record(iteration=index, best_energy=-float(index))
    assert len(progress) == 5
    assert progress.truncated == 4


def test_progress_trace_mirrors_instant_events():
    tracer = telemetry.enable_tracing(sample_memory=False)
    progress = ProgressTrace(label="sa")
    progress.record(iteration=0, best_energy=-1.0)
    (event,) = tracer.events()
    assert event["name"] == "convergence.sa"
    assert event["cat"] == "convergence"
    assert event["args"]["best_energy"] == -1.0


# -- thread isolation (satellite) --------------------------------------
def test_concurrent_spans_stay_consistent():
    """Span events from many threads interleave without corruption:
    every thread's B/E sequence is properly nested and the export is
    globally ts-sorted."""
    tracer = telemetry.enable_tracing(sample_memory=False)
    telemetry.enable_metrics()
    errors = []

    def worker(worker_id):
        try:
            for index in range(50):
                with telemetry.span(f"w{worker_id}"):
                    with telemetry.span("inner"):
                        pass
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    events = tracer.events()
    assert len(events) == 4 * 50 * 4  # 2 spans x (B+E) per iteration
    timestamps = [e["ts"] for e in events]
    assert timestamps == sorted(timestamps)
    per_thread = defaultdict(list)
    for event in events:
        per_thread[event["tid"]].append(event)
    # Thread idents may be reused by non-overlapping threads, so there
    # are between 1 and 4 distinct tids; nesting must hold for each.
    assert 1 <= len(per_thread) <= 4
    for thread_events in per_thread.values():
        stack = []
        for event in thread_events:
            if event["ph"] == "B":
                stack.append(event["name"])
            elif event["ph"] == "E":
                assert stack.pop() == event["name"]
        assert not stack


def test_concurrent_enable_disable_never_crashes():
    """Flipping tracing on/off while other threads emit events must
    never raise — the pinned-reference pattern guarantees it."""
    telemetry.enable_metrics()
    errors = []
    stop = threading.Event()

    def toggler():
        try:
            while not stop.is_set():
                telemetry.enable_tracing(sample_memory=False)
                telemetry.disable_tracing()
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def emitter():
        try:
            while not stop.is_set():
                with telemetry.span("work"):
                    telemetry.trace_instant("tick")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=toggler),
               threading.Thread(target=emitter),
               threading.Thread(target=emitter)]
    for thread in threads:
        thread.start()
    time.sleep(0.2)
    stop.set()
    for thread in threads:
        thread.join()
    assert not errors


# -- disabled overhead (satellite) -------------------------------------
def test_disabled_tracer_overhead_is_small():
    """With tracing (and metrics) disabled the instrumented simulator
    must stay close to a raw apply loop — same budget as the
    disabled-overhead guard in test_telemetry.py."""
    qc = Circuit(6)
    for layer in range(6):
        for q in range(6):
            qc.ry(0.3 * (layer + 1), q)
        for q in range(5):
            qc.cx(q, q + 1)
    sim = StatevectorSimulator(seed=0)
    n = qc.num_qubits

    def raw_run():
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

    raw_run()
    sim.run(qc)
    assert telemetry.get_tracer() is None
    assert telemetry.get_registry() is None
    baseline = timed(raw_run)
    instrumented = timed(lambda: sim.run(qc))
    assert instrumented <= baseline * 1.5 + 1e-3


def test_progress_rows_capped_constant():
    assert MAX_PROGRESS_ROWS == 10_000

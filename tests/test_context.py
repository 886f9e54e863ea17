"""Trace-context, flight-recorder, profiler and obs-report tests.

Mirrors the cheap-when-off discipline of ``tests/test_metrics.py``:
every layer must be a no-op until explicitly enabled, and enabling it
must never perturb solve results.
"""

import json
import threading
import time

import pytest

from repro import telemetry
from repro.compile import SolverConfig, solve
from repro.db.joinorder import JoinOrderQUBO
from repro.db.workloads import random_join_graph
from repro.telemetry import context as context_mod
from repro.telemetry import flight as flight_mod
from repro.telemetry import health as health_mod
from repro.telemetry import obs_report as obs_mod
from repro.telemetry import profiler as profiler_mod
from repro.telemetry import trace as trace_mod


@pytest.fixture(autouse=True)
def _clean_layers():
    """Every test starts and ends with all obs layers off."""
    yield
    telemetry.observe("off")


def compiled_problem(seed=0):
    graph = random_join_graph(4, "chain", seed=seed)
    return JoinOrderQUBO(graph).compile()


# -- global guard (cheap-when-off semantics) ---------------------------
def test_enable_disable_cycle_and_env_opt_in(monkeypatch):
    assert context_mod.get_context_state() is None
    assert telemetry.observed_level() == "off"
    telemetry.observe("context")
    state = context_mod.get_context_state()
    assert state is not None
    telemetry.observe("context")
    assert context_mod.get_context_state() is state  # idempotent
    telemetry.observe("metrics")
    assert context_mod.get_context_state() is None
    monkeypatch.setenv(telemetry.ENV_VAR, "context")
    telemetry._observe_from_env()
    assert context_mod.get_context_state() is not None
    monkeypatch.setenv(telemetry.ENV_VAR, "metrics")
    telemetry._observe_from_env()
    assert context_mod.get_context_state() is None


def test_disabled_layer_is_inert_shared_noop():
    assert context_mod.current_context() is None
    scope = context_mod.activate("abc123")
    assert scope is context_mod._NOOP_SCOPE
    with scope:
        assert context_mod.current_context() is None
    # trace_id=None is a no-op even with the layer on.
    telemetry.observe("context")
    assert context_mod.activate(None) is context_mod._NOOP_SCOPE


def test_mint_inherits_trace_and_job_ids():
    telemetry.observe("context")
    state = context_mod.get_context_state()
    root = state.mint(stage="pipeline")
    assert len(root.trace_id) == 16
    assert root.parent_id is None
    with state.activate(root):
        child = state.mint(job_id=41, stage="dispatch")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.job_id == 41
        with state.activate(child):
            grandchild = state.mint(stage="worker")
            assert grandchild.trace_id == root.trace_id
            assert grandchild.job_id == 41  # inherited
            with state.activate(grandchild):
                assert context_mod.current_context() is grandchild
            assert context_mod.current_context() is child
    assert context_mod.current_context() is None
    assert state.minted == 3


def test_context_stack_is_thread_local():
    telemetry.observe("context")
    state = context_mod.get_context_state()
    seen = {}

    def worker():
        seen["inner"] = context_mod.current_context()

    with state.activate(state.mint()):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["inner"] is None


def test_tracer_events_carry_context_annotation():
    telemetry.observe("context")
    tracer = trace_mod.enable_tracing(sample_memory=False)
    with context_mod.activate(
            context_mod.get_context_state().new_trace_id(),
            job_id=7, stage="dispatch"):
        tracer.instant("inside", args={"custom": 1})
    tracer.instant("outside")
    events = {event["name"]: event for event in tracer.events()}
    inside = events["inside"]["args"]
    assert inside["custom"] == 1
    assert inside["job_id"] == 7
    assert inside["stage"] == "dispatch"
    assert len(inside["trace_id"]) == 16
    assert "args" not in events["outside"]


def test_tracer_annotation_does_not_override_explicit_args():
    telemetry.observe("context")
    tracer = trace_mod.enable_tracing(sample_memory=False)
    with context_mod.activate("ffff000011112222", job_id=1):
        tracer.instant("event", args={"trace_id": "explicit"})
    (event,) = [e for e in tracer.events() if e["name"] == "event"]
    assert event["args"]["trace_id"] == "explicit"
    assert event["args"]["job_id"] == 1


def test_solve_is_bit_for_bit_identical_with_context_enabled():
    problem = compiled_problem(seed=3)
    config = SolverConfig(num_sweeps=40, num_reads=3, seed=9,
                          convergence=False)
    baseline = solve(problem, "sa", config=config)
    telemetry.observe("context")
    state = context_mod.get_context_state()
    with state.activate(state.mint(stage="pipeline")):
        traced = solve(problem, "sa", config=config)
    assert traced.solution == baseline.solution
    assert traced.energy == baseline.energy
    assert list(traced.energies) == list(baseline.energies)
    # And the default-off result carries no obs keys at all.
    assert "trace_id" not in baseline.provenance
    assert "profile" not in baseline.provenance


# -- flight recorder ---------------------------------------------------
def test_flight_guard_and_env_opt_in(monkeypatch, tmp_path):
    assert flight_mod.get_flight_recorder() is None
    telemetry.observe("flight")
    recorder = flight_mod.get_flight_recorder()
    assert recorder is not None
    telemetry.observe("flight", flight_dir=str(tmp_path))
    assert flight_mod.get_flight_recorder() is recorder  # redirected
    assert recorder.dump_dir == str(tmp_path)
    telemetry.observe("context")
    assert flight_mod.get_flight_recorder() is None
    monkeypatch.setenv(telemetry.ENV_VAR, "flight")
    monkeypatch.setenv(flight_mod.ENV_DIR_VAR, str(tmp_path / "env"))
    telemetry._observe_from_env()
    recorder = flight_mod.get_flight_recorder()
    assert recorder is not None
    assert recorder.dump_dir == str(tmp_path / "env")
    monkeypatch.setenv(telemetry.ENV_VAR, "")
    telemetry._observe_from_env()
    assert flight_mod.get_flight_recorder() is None


def test_flight_events_default_ids_from_context():
    telemetry.observe("flight")
    recorder = flight_mod.get_flight_recorder()
    state = context_mod.get_context_state()
    with state.activate(state.mint(job_id=5)):
        event = recorder.record("job", "dispatching")
    assert event["job_id"] == 5
    assert event["trace_id"] is not None
    explicit = recorder.record("job", "finish", trace_id="t1", job_id=9)
    assert explicit["trace_id"] == "t1" and explicit["job_id"] == 9


def test_flight_ring_is_bounded_and_counts_drops():
    recorder = flight_mod.FlightRecorder(max_events=4)
    for index in range(10):
        recorder.record("k", f"event{index}")
    assert len(recorder.events()) == 4
    assert recorder.dropped == 6
    assert [event["name"] for event in recorder.events()] == [
        "event6", "event7", "event8", "event9"]


def test_capsule_dump_filters_to_trace_plus_ambient(tmp_path):
    recorder = flight_mod.FlightRecorder(dump_dir=str(tmp_path))
    recorder.record("job", "mine", trace_id="aaa", job_id=1)
    recorder.record("job", "other", trace_id="bbb", job_id=2)
    recorder.record("slo", "ambient")  # no ids: rides in every capsule
    capsule = recorder.dump("job_timeout", trace_id="aaa", job_id=1,
                            detail={"deadline": 0.1})
    assert [event["name"] for event in capsule["events"]] == [
        "mine", "ambient"]
    assert capsule["event_count"] == 2
    assert flight_mod.validate_flight_document(capsule) == []
    # And the on-disk copy round-trips through the validator too.
    with open(capsule["path"], encoding="utf-8") as handle:
        assert flight_mod.validate_flight_document(
            json.load(handle)) == []


def test_validate_flight_document_catches_corruption():
    assert flight_mod.validate_flight_document([]) \
        == ["document is not a JSON object"]
    capsule = flight_mod.FlightRecorder().dump("why")
    broken = dict(capsule)
    broken["schema"] = "wrong/v0"
    broken["event_count"] = 99
    broken["events"] = [{"kind": "", "name": "x", "seq": "nope"}]
    problems = flight_mod.validate_flight_document(broken)
    assert any("schema tag" in problem for problem in problems)
    assert any("event_count" in problem for problem in problems)
    assert any("'seq'" in problem for problem in problems)


def test_slo_breach_dumps_one_capsule_and_dedupes(tmp_path):
    telemetry.observe("flight", flight_dir=str(tmp_path))
    recorder = flight_mod.get_flight_recorder()
    rule = health_mod.SLORule(
        name="queue_wait_p95",
        expr="p95(service_queue_wait_seconds) < 0.001",
        description="p95 queue wait under 1ms",
    )
    snapshot = {
        "schema": "repro-metrics/v1",
        "histograms": {"service_queue_wait_seconds": {"series": [{
            "labels": {}, "count": 10, "sum": 0.1,
            "reservoir": [0.01] * 10,
        }]}},
        "counters": {}, "gauges": {},
    }
    first = health_mod.evaluate_rules([rule], snapshot)
    assert first.status == "fail"
    assert len(recorder.capsules) == 1
    capsule = recorder.capsules[0]
    assert capsule["reason"] == "slo_breach"
    assert capsule["detail"]["rules"][0]["rule"] == "queue_wait_p95"
    assert flight_mod.validate_flight_document(capsule) == []
    # The identical breach evaluated again must not dump a second one.
    health_mod.evaluate_rules([rule], snapshot)
    assert len(recorder.capsules) == 1


# -- sampling profiler -------------------------------------------------
def test_profiler_guard_and_env_opt_in(monkeypatch):
    assert profiler_mod.maybe_capture(None) is None
    assert profiler_mod.maybe_capture(False) is None
    assert profiler_mod.maybe_capture(True) is not None
    telemetry.observe("trace")
    assert profiler_mod.maybe_capture(None) is not None
    assert profiler_mod.maybe_capture(False) is None
    telemetry.observe("flight")
    assert profiler_mod.maybe_capture(None) is None
    monkeypatch.setenv(telemetry.ENV_VAR, "trace")
    telemetry._observe_from_env()
    assert profiler_mod.maybe_capture(None) is not None


def _busy(deadline):
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


def test_profile_capture_samples_this_thread():
    capture = profiler_mod.ProfileCapture(interval=0.001)
    with capture:
        _busy(time.perf_counter() + 0.08)
    summary = capture.summary(top=5)
    assert summary["samples"] > 0
    assert summary["duration_seconds"] > 0
    assert summary["stacks"]
    sites = " ".join(entry["site"] for entry in summary["hotspots"])
    assert "_busy" in sites
    fractions = [entry["fraction"] for entry in summary["hotspots"]]
    assert all(0 < fraction <= 1 for fraction in fractions)


def test_solve_profile_opt_in_attaches_provenance_and_trace():
    tracer = trace_mod.enable_tracing(sample_memory=False)
    problem = compiled_problem(seed=1)
    config = SolverConfig(num_sweeps=400, num_reads=4, seed=2,
                          convergence=False)
    baseline = solve(problem, "sa", config=config, profile=False)
    profiled = solve(problem, "sa", config=config, profile=True)
    assert profiled.solution == baseline.solution
    assert list(profiled.energies) == list(baseline.energies)
    summary = profiled.provenance["profile"]
    assert summary["samples"] >= 0
    assert "hotspots" in summary
    mirrored = [event for event in tracer.events()
                if event["cat"] == "profile"]
    assert mirrored and mirrored[0]["name"] == "profile.sa"


# -- obs-report join ---------------------------------------------------
def _trace_document(events):
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": {}}


def _service_events(trace_id, job_id):
    return [
        {"name": "service.job.submitted", "cat": "service", "ph": "I",
         "ts": 10.0, "pid": 1, "tid": 1,
         "args": {"trace_id": trace_id, "job_id": job_id,
                  "solver": "sa"}},
        {"name": "service.worker.sa", "cat": "span", "ph": "B",
         "ts": 20.0, "pid": 2, "tid": 2,
         "args": {"trace_id": trace_id, "job_id": job_id,
                  "stage": "worker"}},
        {"name": "convergence.sa", "cat": "convergence", "ph": "I",
         "ts": 25.0, "pid": 2, "tid": 2,
         "args": {"trace_id": trace_id, "job_id": job_id}},
        {"name": "service.job.dispatch", "cat": "service", "ph": "I",
         "ts": 30.0, "pid": 1, "tid": 1,
         "args": {"trace_id": trace_id, "job_id": job_id,
                  "solver": "sa", "dispatch": "warm",
                  "worker_pid": 2, "queue_seconds": 0.004}},
        {"name": "service.job.finish", "cat": "service", "ph": "I",
         "ts": 40.0, "pid": 1, "tid": 1,
         "args": {"trace_id": trace_id, "job_id": job_id,
                  "solver": "sa", "status": "done",
                  "queue_seconds": 0.004}},
    ]


def test_obs_report_join_and_timeline():
    events = (_service_events("t1" * 8, 1)
              + _service_events("t2" * 8, 2)
              + [{"name": "untagged", "ph": "I", "ts": 1.0,
                  "pid": 1, "tid": 1}])
    capsule = flight_mod.FlightRecorder().dump(
        "job_timeout", trace_id="t2" * 8, job_id=2,
        detail={"deadline": 0.1})
    traces = obs_mod.join_artifacts(events, [capsule])
    assert sorted(traces) == sorted(["t1" * 8, "t2" * 8])
    summary = obs_mod.build_timeline("t1" * 8, traces["t1" * 8])
    assert summary["job_ids"] == [1]
    assert summary["solver"] == "sa"
    assert summary["dispatch"] == "warm"
    assert summary["worker_pid"] == 2
    assert summary["queue_seconds"] == 0.004
    assert summary["status"] == "done"
    assert summary["convergence_rows"] == 1
    assert len(summary["worker_spans"]) == 1
    rendered = obs_mod.render_timeline(
        summary, traces["t1" * 8]["capsules"])
    assert "queue wait: 4.00ms" in rendered
    assert "dispatch: warm (worker pid 2)" in rendered
    failed = obs_mod.build_timeline("t2" * 8, traces["t2" * 8])
    rendered = obs_mod.render_timeline(
        failed, traces["t2" * 8]["capsules"])
    assert "flight capsule: job_timeout" in rendered


def test_obs_report_cli_end_to_end(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(
        _trace_document(_service_events("cafe" * 4, 3))))
    recorder = flight_mod.FlightRecorder(dump_dir=str(tmp_path))
    recorder.record("job", "timeout", trace_id="cafe" * 4, job_id=3)
    recorder.dump("job_timeout", trace_id="cafe" * 4, job_id=3)

    assert obs_mod.main([str(trace_path), "--list"]) == 0
    assert "cafe" * 4 in capsys.readouterr().out

    assert obs_mod.main([str(trace_path), "cafe" * 4,
                         "--flight", str(tmp_path),
                         "--validate"]) == 0
    out = capsys.readouterr().out
    assert "queue wait: 4.00ms" in out
    assert "flight capsule: job_timeout" in out

    assert obs_mod.main([str(trace_path), "--pick", "failed",
                         "--flight", str(tmp_path)]) == 0
    assert "trace " + "cafe" * 4 in capsys.readouterr().out

    # Unknown trace id: exit 2 (the acceptance-criteria contract).
    assert obs_mod.main([str(trace_path), "0" * 16]) == 2

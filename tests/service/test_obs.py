"""Cross-layer observability through the solve service.

Covers the tentpole guarantees: trace ids survive the warm-pool pipe
protocol into workers and back through drain-merge; failure capsules
are on disk *before* ``handle.result()`` returns; and enabling the
whole stack never changes solve results.
"""

import json
import os
import signal
import time

import pytest

from repro import telemetry
from repro.compile import SolverConfig
from repro.compile import solve as dispatch_solve
from repro.db import JoinOrderQUBO, random_join_graph
from repro.service import (
    JobCancelledError,
    JobStatus,
    JobTimeoutError,
    ServiceError,
    SolveService,
)
from repro.telemetry import flight as flight_mod
from repro.telemetry import obs_report as obs_mod
from repro.telemetry import trace as trace_mod


@pytest.fixture(autouse=True)
def _clean_layers():
    yield
    telemetry.observe("off")


def problem(seed=0, relations=4):
    graph = random_join_graph(relations, "chain", seed=seed)
    return JoinOrderQUBO(graph).compile()


def config(seed=7, sweeps=60, reads=2):
    return SolverConfig(num_sweeps=sweeps, num_reads=reads, seed=seed,
                        convergence=False)


#: Runs for minutes if never reaped — deadline/SIGKILL fodder.
SLOW = SolverConfig(num_sweeps=2_000_000, num_reads=50, seed=1,
                    convergence=False)


@pytest.mark.parametrize("mode", ["process", "thread"])
def test_trace_ids_propagate_into_workers_and_drain_merge(mode):
    telemetry.observe("context")
    tracer = trace_mod.enable_tracing(sample_memory=False)
    specs = [(problem(seed=index), "sa", config(seed=50 + index))
             for index in range(3)]
    with SolveService(max_workers=2, mode=mode) as service:
        results = service.solve_many(specs)
    trace_ids = [result.provenance["service"]["trace_id"]
                 for result in results]
    assert len(set(trace_ids)) == 3
    assert all(len(trace_id) == 16 for trace_id in trace_ids)

    # Worker-side spans carry the parent's trace ids in both modes;
    # process-mode ones arrive via drain-merge.
    events = tracer.events()
    worker_span_traces = {
        event["args"]["trace_id"] for event in events
        if event.get("ph") == "B"
        and (event.get("args") or {}).get("stage") == "worker"}
    assert worker_span_traces == set(trace_ids)
    if mode == "thread":
        return

    # The drain log (stats()["drains"], populated at shutdown) maps
    # each worker pid to the jobs/traces it ran.
    drains = service.stats()["drains"]
    assert drains, "drain log must be populated after shutdown"
    drained = {job["trace_id"]
               for entry in drains for job in entry["jobs"]}
    assert set(trace_ids) <= drained
    for entry in drains:
        assert entry["pid"] > 0
        for job in entry["jobs"]:
            assert job["solver"] == "sa"
            assert job["ok"] is True
            assert job["duration"] >= 0

    # And the merge itself is announced on the timeline.
    merges = [event for event in events
              if event["name"] == "service.pool.drain_merge"]
    assert merges


def test_solve_results_bit_for_bit_with_full_stack_enabled():
    specs = [(problem(seed=index), "sa", config(seed=80 + index))
             for index in range(3)]
    baseline = [dispatch_solve(p, s, config=c) for p, s, c in specs]
    telemetry.observe("trace")
    with SolveService(max_workers=2) as service:
        results = service.solve_many(specs)
    for direct, result in zip(baseline, results):
        assert direct.solution == result.solution
        assert direct.energy == result.energy
        assert list(direct.energies) == list(result.energies)
        # The obs keys are additive: provenance gains trace_id only.
        assert "trace_id" not in direct.provenance.get("service", {})
        assert result.provenance["service"]["trace_id"]


def test_flight_capsule_on_deadline_reap(tmp_path):
    telemetry.observe("flight", flight_dir=str(tmp_path))
    recorder = flight_mod.get_flight_recorder()
    with SolveService(max_workers=1) as service:
        handle = service.submit(problem(relations=7), "sa", SLOW,
                                deadline=0.3)
        with pytest.raises(JobTimeoutError):
            handle.result(timeout=60)
        # The capsule must already exist when result() raises — the
        # dump happens before the job event is set.
        capsules = [capsule for capsule in recorder.capsules
                    if capsule.get("job_id") == handle.job_id]
        assert len(capsules) == 1
    capsule = capsules[0]
    assert capsule["reason"] == "job_timeout"
    assert capsule["trace_id"] == handle.trace_id
    assert capsule["detail"]["deadline"] == 0.3
    assert flight_mod.validate_flight_document(capsule) == []
    names = [event["name"] for event in capsule["events"]]
    assert "dispatching" in names and "timeout" in names
    with open(capsule["path"], encoding="utf-8") as handle_:
        on_disk = json.load(handle_)
    assert flight_mod.validate_flight_document(on_disk) == []


def test_thread_mode_deadline_is_checked_after_the_run(tmp_path):
    telemetry.observe("flight", flight_dir=str(tmp_path))
    recorder = flight_mod.get_flight_recorder()
    with SolveService(max_workers=1, mode="thread") as service:
        # A thread cannot be reaped: the job runs to the end, then its
        # overrun turns the result into a timeout.
        handle = service.submit(problem(), "sa", config(),
                                deadline=1e-6)
        with pytest.raises(JobTimeoutError, match="post-hoc"):
            handle.result(timeout=60)
        assert handle.status is JobStatus.TIMEOUT
        assert service.stats()["jobs"]["timeout"] == 1
        capsules = [capsule for capsule in recorder.capsules
                    if capsule.get("job_id") == handle.job_id]
    assert [capsule["reason"] for capsule in capsules] == ["job_timeout"]
    assert capsules[0]["trace_id"] == handle.trace_id


def test_flight_capsule_on_midjob_worker_kill(tmp_path):
    telemetry.observe("flight", flight_dir=str(tmp_path))
    recorder = flight_mod.get_flight_recorder()
    with SolveService(max_workers=1) as service:
        handle = service.submit(problem(relations=7), "sa", SLOW)
        deadline = time.time() + 30
        while handle._job.process is None:
            assert time.time() < deadline, "job never started"
            time.sleep(0.01)
        time.sleep(0.1)  # let the worker process actually spawn
        os.kill(handle._job.process.pid, signal.SIGKILL)
        with pytest.raises(ServiceError):
            handle.result(timeout=60)
        capsules = [capsule for capsule in recorder.capsules
                    if capsule.get("job_id") == handle.job_id]
        assert len(capsules) == 1
        assert capsules[0]["reason"] == "job_failed"
        assert capsules[0]["trace_id"] == handle.trace_id
        assert flight_mod.validate_flight_document(capsules[0]) == []
        # The reaped worker is replaced: the service still serves.
        follow_up = service.solve(problem(), "sa", config())
        assert follow_up.feasible


def test_cancelled_running_job_reports_one_terminal_event():
    telemetry.observe("trace")
    tracer = telemetry.get_tracer()
    recorder = flight_mod.get_flight_recorder()
    with SolveService(max_workers=1) as service:
        handle = service.submit(problem(relations=7), "sa", SLOW)
        deadline = time.time() + 30
        while handle._job.process is None:
            assert time.time() < deadline, "job never started"
            time.sleep(0.01)
        assert handle.cancel()
        with pytest.raises(JobCancelledError):
            handle.result(timeout=60)
        # One dispatcher: by the time the next job is served it has
        # also seen the reaped worker and tried its own resolution.
        assert service.solve(problem(), "sa", config()).feasible
    finishes = [event["args"] for event in tracer.events()
                if event["name"] == "service.job.finish"
                and event["args"]["job_id"] == handle.job_id]
    assert [args["status"] for args in finishes] == ["cancelled"]
    terminal = [event["name"]
                for event in recorder.events(job_id=handle.job_id)
                if event["kind"] == "job"
                and event["name"] in ("cancelled", "failed", "done")]
    assert terminal == ["cancelled"]
    cancelled = telemetry.get_registry().get("service_jobs_total")
    assert cancelled.labels(status="cancelled").value == 1


def test_cache_hit_and_disabled_layer_provenance():
    with SolveService(max_workers=1) as service:
        first = service.solve(problem(), "sa", config())
        # Layer off: no trace_id key at all (bit-for-bit provenance).
        assert "trace_id" not in first.provenance["service"]
    telemetry.observe("context")
    with SolveService(max_workers=1) as service:
        first = service.solve(problem(), "sa", config())
        again = service.solve(problem(), "sa", config())
    assert again.provenance["service"]["cache"] == "hit"
    # The cache hit is a new job with its own trace identity.
    assert again.provenance["service"]["trace_id"] \
        != first.provenance["service"]["trace_id"]


def test_obs_report_reconstructs_service_run(tmp_path, capsys):
    telemetry.observe("flight", flight_dir=str(tmp_path / "flight"))
    tracer = trace_mod.enable_tracing(sample_memory=False)
    specs = [(problem(seed=index), "sa", config(seed=30 + index))
             for index in range(2)]
    with SolveService(max_workers=2) as service:
        results = service.solve_many(specs)
    # The reaped job runs in its own service: killing a warm worker
    # loses whatever spans it had not yet drained, so sharing a pool
    # with the successful jobs would race their worker spans away.
    with SolveService(max_workers=2) as service:
        timeout_handle = service.submit(problem(relations=7), "sa",
                                        SLOW, deadline=0.3)
        with pytest.raises(JobTimeoutError):
            timeout_handle.result(timeout=60)
    trace_path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(trace_path))

    # A successful job's timeline: queue wait, dispatch, worker spans.
    trace_id = results[0].provenance["service"]["trace_id"]
    assert obs_mod.main([str(trace_path), trace_id]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}" in out
    assert "queue wait:" in out
    assert "dispatch:" in out
    assert "worker spans:" in out

    # The reaped job's timeline joins with its flight capsule.
    assert obs_mod.main([str(trace_path), "--pick", "failed",
                         "--flight", str(tmp_path / "flight"),
                         "--validate"]) == 0
    out = capsys.readouterr().out
    assert f"trace {timeout_handle.trace_id}" in out
    assert "flight capsule: job_timeout" in out

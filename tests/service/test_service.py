"""Integration tests for SolveService: correctness, deadlines, cache,
coalescing, cancellation, validation."""

import math
import os
import time

import numpy as np
import pytest

from repro import telemetry
from repro.annealing import SimulatedAnnealingSolver
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


def problem(seed=0, relations=4):
    graph = random_join_graph(relations, "chain", seed=seed)
    return JoinOrderQUBO(graph).compile()


def config(seed=7, sweeps=60, reads=4):
    return SolverConfig(num_sweeps=sweeps, num_reads=reads, seed=seed,
                        convergence=False)


#: A config whose job runs for minutes — used to hold a worker busy
#: for deadline/cancellation tests (it is always reaped, never run to
#: completion).
SLOW = SolverConfig(num_sweeps=2_000_000, num_reads=50, seed=1,
                    convergence=False)


def results_equal(first, second):
    return (first.solution == second.solution
            and first.energy == second.energy
            and list(first.energies) == list(second.energies))


@pytest.mark.parametrize("mode", ["process", "thread"])
def test_solve_many_matches_sequential_bit_for_bit(mode):
    specs = [(problem(seed=index), "sa", config(seed=100 + index))
             for index in range(4)]
    sequential = [dispatch_solve(p, s, config=c) for p, s, c in specs]
    with SolveService(max_workers=2, mode=mode) as service:
        concurrent = service.solve_many(specs)
    assert all(results_equal(direct, result)
               for direct, result in zip(sequential, concurrent))


def test_submit_returns_handle_and_result():
    with SolveService(max_workers=1) as service:
        handle = service.submit(problem(), "sa", config())
        result = handle.result(timeout=60)
        assert handle.done()
        assert handle.status is JobStatus.DONE
        assert handle.exception() is None
        assert result.feasible
        provenance = result.provenance["service"]
        assert provenance["mode"] == "process"
        assert provenance["cache"] == "miss"
        assert provenance["worker_pid"] > 0


def test_deadline_blowing_worker_is_reaped():
    with SolveService(max_workers=1) as service:
        handle = service.submit(problem(relations=7), "sa", SLOW,
                                deadline=0.4)
        with pytest.raises(JobTimeoutError):
            handle.result(timeout=60)
        assert handle.status is JobStatus.TIMEOUT
        # The worker slot is free again: a normal job still runs.
        follow_up = service.solve(problem(), "sa", config())
        assert follow_up.feasible


def test_cancel_queued_job():
    with SolveService(max_workers=1, mode="thread") as service:
        decoy = service.submit(problem(relations=6), "sa",
                               config(seed=2, sweeps=2000, reads=20))
        queued = service.submit(problem(), "sa", config(seed=3))
        assert queued.cancel()
        assert queued.status is JobStatus.CANCELLED
        with pytest.raises(JobCancelledError):
            queued.result(timeout=60)
        assert decoy.result(timeout=60).feasible
        # Cancelling a finished job reports False.
        assert not queued.cancel()
        assert not decoy.cancel()


def test_cancel_running_process_job_reaps_worker():
    with SolveService(max_workers=1) as service:
        handle = service.submit(problem(relations=7), "sa", SLOW)
        deadline = time.time() + 30
        while handle.status is JobStatus.PENDING:
            assert time.time() < deadline, "job never started"
            time.sleep(0.01)
        time.sleep(0.1)  # let the worker process actually spawn
        assert handle.cancel()
        assert handle.status is JobStatus.CANCELLED
        follow_up = service.solve(problem(), "sa", config())
        assert follow_up.feasible


def test_cache_hit_serves_without_reexecution():
    spec = [(problem(), "sa", config())] * 1
    with SolveService(max_workers=2) as service:
        first = service.solve_many(spec)
        second = service.solve_many(spec)
        assert results_equal(first[0], second[0])
        assert second[0].provenance["service"]["cache"] == "hit"
        stats = service.stats()
        # One executed job total; the repeat never touched the queue.
        assert stats["jobs"]["done"] == 1
        assert stats["cache"]["hits"] == 1
        assert stats["jobs"]["cache_hits_served"] == 1


def test_seedless_jobs_bypass_the_cache():
    seedless = SolverConfig(num_sweeps=40, num_reads=2,
                            convergence=False)
    with SolveService(max_workers=1, mode="thread") as service:
        result = service.solve(problem(), "sa", seedless)
        assert result.provenance["service"]["cache"] == "off"
        service.solve(problem(), "sa", seedless)
        stats = service.stats()
        assert stats["jobs"]["done"] == 2
        assert stats["cache"]["skips"] == 2


def test_identical_inflight_jobs_coalesce():
    with SolveService(max_workers=1, mode="thread") as service:
        decoy = service.submit(problem(seed=9, relations=6), "sa",
                               config(seed=9, sweeps=2000, reads=20))
        original = service.submit(problem(), "sa", config())
        duplicate = service.submit(problem(), "sa", config())
        assert results_equal(original.result(timeout=60),
                             duplicate.result(timeout=60))
        assert decoy.result(timeout=60) is not None
        stats = service.stats()
        assert stats["jobs"]["coalesced"] == 1
        assert stats["jobs"]["done"] == 2  # decoy + one shared job


def test_submit_validation_errors():
    with SolveService(max_workers=1) as service:
        with pytest.raises(TypeError):
            service.submit("not a problem", "sa")
        with pytest.raises(ValueError, match="in-process only"):
            service.submit(problem(), SimulatedAnnealingSolver(seed=1))
        with pytest.raises(ValueError, match="unknown solver"):
            service.submit(problem(), "nope")
        with pytest.raises(ValueError, match="unpicklable options"):
            service.submit(problem(), "sa",
                           SolverConfig(options={"hook": lambda: 0}))
        for deadline in (-1.0, 0, math.nan, math.inf, -math.inf, True):
            with pytest.raises(ValueError, match="deadline"):
                service.submit(problem(), "sa", config(),
                               deadline=deadline)
        # Nothing reached the worker: it serves the next job as is.
        assert service.solve(problem(), "sa", config()).feasible
        assert service.stats()["pool"]["respawns"] == 0
    with pytest.raises(ValueError, match="deadline"):
        SolveService(max_workers=1, default_deadline=math.nan)


@pytest.mark.parametrize("name, value", [
    ("max_workers", True),
    ("max_workers", 2.0),
    ("queue_capacity", 2.5),
    ("queue_capacity", False),
    ("cache_entries", math.nan),
    ("cache_entries", True),
])
def test_constructor_rejects_bad_counts(name, value):
    # A cache bound of NaN never evicts (len > nan is always false),
    # and a float worker count fails deep inside range().
    with pytest.raises(ValueError, match=name):
        SolveService(mode="thread", **{name: value})


def test_constructor_stores_numpy_counts_as_int():
    with SolveService(max_workers=np.int64(2), mode="thread",
                      queue_capacity=np.int32(4),
                      cache_entries=np.uint8(0)) as service:
        stats = service.stats()
        assert type(stats["max_workers"]) is int
        assert stats["max_workers"] == 2
        assert type(stats["queue"]["capacity"]) is int
        assert stats["cache"] is None
        assert service.solve(problem(), "sa", config()).feasible


def test_thread_mode_allows_unpicklable_options():
    # The pickling guard is a cross-process requirement only; inline
    # workers can carry arbitrary options — here a generator-backed
    # beta schedule, which pickle rejects but the SA backend accepts.
    schedule = (0.1 * (index + 1) for index in range(40))
    with SolveService(max_workers=1, mode="thread") as service:
        handle = service.submit(
            problem(), "sa",
            SolverConfig(num_sweeps=40, num_reads=2, seed=3,
                         convergence=False,
                         options={"beta_schedule": schedule}))
        assert handle.result(timeout=60).feasible


@pytest.mark.parametrize("mode", ["process", "thread"])
def test_worker_failure_surfaces_as_service_error(mode):
    with SolveService(max_workers=1, mode=mode) as service:
        # An unknown backend option crashes inside the worker; the
        # handle carries the child traceback.
        handle = service.submit(
            problem(), "sa",
            SolverConfig(num_sweeps=40, num_reads=2, seed=3,
                         convergence=False,
                         options={"definitely_not_a_knob": 1}))
        with pytest.raises(ServiceError, match="definitely_not_a_knob"):
            handle.result(timeout=60)
        assert handle.status is JobStatus.FAILED


@pytest.mark.parametrize("mode", ["process", "thread", "direct"])
def test_result_provenance_in_both_modes(mode, monkeypatch):
    # Every entry point runs one backend step: its duration is the
    # backend run alone, so a decode slowed well past that run shows
    # in no duration, and its profile.<solver> instant is recorded by
    # the process that ran the backend (drain-merged in process mode).
    from repro.compile import dispatch

    delay = 0.2
    decode = dispatch.decode_samples

    def slow_decode(problem, samples):
        time.sleep(delay)
        return decode(problem, samples)

    monkeypatch.setattr(dispatch, "decode_samples", slow_decode)
    telemetry.observe("trace")
    try:
        if mode == "direct":
            result = dispatch_solve(problem(), "sa", config=config())
        else:
            with SolveService(max_workers=1, mode=mode) as service:
                result = service.solve(problem(), "sa", config())
        events = telemetry.get_tracer().events()
    finally:
        telemetry.observe("off")
    assert result.provenance["duration_seconds"] < delay
    assert "hotspots" in result.provenance["profile"]
    profiles = [event for event in events if event["cat"] == "profile"]
    assert [event["name"] for event in profiles] == ["profile.sa"]
    if mode == "direct":
        assert profiles[0]["pid"] == os.getpid()
        return
    block = result.provenance["service"]
    assert block["dispatch"] == ("cold" if mode == "process"
                                 else "inline")
    assert (block["worker_pid"] == os.getpid()) == (mode == "thread")
    assert profiles[0]["pid"] == block["worker_pid"]


def test_shutdown_rejects_new_work():
    service = SolveService(max_workers=1, mode="thread")
    service.shutdown()
    with pytest.raises(ServiceError):
        service.submit(problem(), "sa", config())


def test_solve_many_accepts_dict_and_bare_problem_specs():
    with SolveService(max_workers=1, mode="thread") as service:
        results = service.solve_many(
            [problem(),
             {"problem": problem(seed=1), "solver": "sa",
              "config": config(seed=11)}],
            solver="sa", config=config(seed=10))
        assert len(results) == 2
        assert all(result.feasible for result in results)
        with pytest.raises(ValueError, match="unknown job-spec keys"):
            service.solve_many([{"problem": problem(), "bogus": 1}])
        with pytest.raises(TypeError):
            service.solve_many([42])


def test_stats_shape():
    with SolveService(max_workers=1, mode="thread") as service:
        service.solve(problem(), "sa", config())
        stats = service.stats()
    assert stats["mode"] == "thread"
    assert stats["max_workers"] == 1
    assert stats["queue"]["capacity"] == 128
    assert stats["jobs"]["done"] == 1
    assert stats["jobs"]["submitted"] == 1
    assert stats["cache"]["entries"] == 1

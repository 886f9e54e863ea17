"""Warm-pool lifecycle: crash respawn, deadline and cancel reap,
process hygiene, one round trip per job, and bit-for-bit parity
across worker counts."""

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro import telemetry
from repro.compile import SolverConfig
from repro.compile import solve as dispatch_solve
from repro.db import (
    JoinOrderQUBO,
    PartitioningIsing,
    PartitioningProblem,
    random_join_graph,
)
from repro.service import (
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


SLOW = SolverConfig(num_sweeps=2_000_000, num_reads=50, seed=1,
                    convergence=False)


def results_equal(first, second):
    return (first.solution == second.solution
            and first.energy == second.energy
            and list(first.energies) == list(second.energies)
            and [s.assignment for s in first.samples.samples]
            == [s.assignment for s in second.samples.samples])


@pytest.mark.parametrize("workers", [0, 2, 4])
def test_parity_with_sequential_across_worker_counts(workers):
    specs = [(problem(seed=index), "sa", config(seed=40 + index))
             for index in range(6)]
    # Ising models cross the process boundary too (partitioning).
    specs += [(PartitioningIsing(PartitioningProblem.random(
                   10, seed=index)).compile(), "sa",
               config(seed=60 + index))
              for index in range(2)]
    sequential = [dispatch_solve(p, s, config=c) for p, s, c in specs]
    if workers == 0:
        # workers=0 means no service at all: the sequential baseline
        # compared against itself pins the comparison helper.
        assert all(results_equal(r, r) for r in sequential)
        return
    with SolveService(max_workers=workers) as service:
        concurrent = service.solve_many(specs)
    assert all(results_equal(direct, result)
               for direct, result in zip(sequential, concurrent))


@pytest.mark.parametrize("mode", ["process", "thread"])
def test_same_model_jobs_run_one_round_trip_each_with_parity(mode):
    shared = problem(seed=5)
    configs = [config(seed=200 + index) for index in range(10)]
    sequential = [dispatch_solve(shared, "sa", config=c)
                  for c in configs]
    registry = telemetry.enable_metrics()
    try:
        with SolveService(max_workers=1, mode=mode) as service:
            handles = [service.submit(shared, "sa", c) for c in configs]
            results = [handle.result(timeout=120) for handle in handles]
            stats = service.stats()
    finally:
        telemetry.disable_metrics()
    assert all(results_equal(direct, result)
               for direct, result in zip(sequential, results))
    # 10 same-model jobs queued behind one dispatcher are still 10
    # dispatches: each job is timed once, and in process mode each is
    # its own worker round trip.
    execute = registry.get("service_execute_seconds")
    assert execute.labels(solver="sa").count == 10
    if mode == "process":
        assert stats["pool"]["dispatches_cold"] == 10
        assert stats["pool"]["jobs_run"] == 10


def test_cancel_reaps_running_job_with_same_model_jobs_queued():
    shared = problem(seed=5, relations=6)
    # The first job is long enough to still be running when cancelled.
    configs = [config(seed=500 + index,
                      sweeps=30000 if index == 0 else 3000, reads=20)
               for index in range(3)]
    with SolveService(max_workers=1) as service:
        # The decoy holds the only worker while the same-model jobs
        # queue up behind it.
        decoy = service.submit(problem(seed=6, relations=6), "sa",
                               config(seed=1, sweeps=1500, reads=20))
        handles = [service.submit(shared, "sa", c) for c in configs]
        deadline = time.time() + 60
        while handles[0].status is JobStatus.PENDING:
            assert time.time() < deadline, "job never started"
            time.sleep(0.005)
        # Only the first same-model job left the queue.
        assert [h.status for h in handles[1:]] == [JobStatus.PENDING] * 2
        time.sleep(0.2)  # let the dispatch actually reach the worker
        assert handles[0].cancel()
        deadline = time.time() + 20
        while service.stats()["pool"]["respawns"] < 1:
            assert time.time() < deadline, "cancel did not reap the worker"
            time.sleep(0.01)
        rest = [handle.result(timeout=120) for handle in handles[1:]]
        assert decoy.result(timeout=120).feasible
    assert handles[0].status is JobStatus.CANCELLED
    assert all(results_equal(dispatch_solve(shared, "sa", config=c), r)
               for c, r in zip(configs[1:], rest))


def test_worker_crash_mid_job_respawns_and_fails_job():
    with SolveService(max_workers=1) as service:
        handle = service.submit(problem(relations=6), "sa", SLOW)
        deadline = time.time() + 30
        while handle.status is JobStatus.PENDING:
            assert time.time() < deadline, "job never started"
            time.sleep(0.01)
        # Kill the warm worker out from under the job — a crash, not a
        # cancel (the job is not terminal), so the service must fail
        # the job and replace the worker.
        deadline = time.time() + 30
        while True:
            pid = service.stats()["pool"]["pids"][0]
            if pid is not None:
                break
            assert time.time() < deadline
            time.sleep(0.01)
        time.sleep(0.2)  # let the dispatch actually reach the worker
        os.kill(pid, 9)
        with pytest.raises(ServiceError, match="died|pipe"):
            handle.result(timeout=60)
        assert handle.status is JobStatus.FAILED
        # The pool healed: a fresh worker serves the next job.
        follow_up = service.solve(problem(), "sa", config())
        assert follow_up.feasible
        stats = service.stats()
        assert stats["pool"]["respawns"] == 1
        assert stats["pool"]["pids"][0] != pid


def test_deadline_reap_respawns_warm_worker():
    with SolveService(max_workers=1) as service:
        first_pid = service.stats()["pool"]["pids"][0]
        handle = service.submit(problem(relations=7), "sa", SLOW,
                                deadline=0.4)
        with pytest.raises(JobTimeoutError):
            handle.result(timeout=60)
        follow_up = service.solve(problem(), "sa", config())
        assert follow_up.feasible
        stats = service.stats()
        assert stats["pool"]["respawns"] == 1
        assert stats["pool"]["pids"][0] != first_pid


LEAK_PROBE = textwrap.dedent("""
    import json, os
    from multiprocessing import resource_tracker
    from repro.compile import SolverConfig
    from repro.db import JoinOrderQUBO, random_join_graph
    from repro.service import SolveService

    def listing():
        return set(os.listdir("/dev/shm"))

    before = listing()
    service = SolveService(max_workers=2)
    for seed in range(3):
        problem = JoinOrderQUBO(
            random_join_graph(4, "chain", seed=seed)).compile()
        service.solve(problem, "sa", SolverConfig(
            num_sweeps=60, num_reads=4, seed=seed, convergence=False))
    service.shutdown(wait=True)
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[1]) == os.getpid():
                children.append(int(entry))
    print(json.dumps({
        "children": children,
        "tracker_pid": resource_tracker._resource_tracker._pid,
        "new_shm": sorted(listing() - before),
    }))
""")


@pytest.mark.skipif(not (os.path.isdir("/proc")
                         and os.path.isdir("/dev/shm")),
                    reason="needs /proc and /dev/shm")
def test_process_service_leaves_no_process_tracker_or_shm_entry():
    # A fresh interpreter, so no earlier test's resource tracker or
    # workers can mask (or fake) a leak.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", LEAK_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["children"] == [], report
    assert report["tracker_pid"] is None, report
    assert report["new_shm"] == [], report

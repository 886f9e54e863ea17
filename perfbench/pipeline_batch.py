"""``pipeline_batch``: a JOB-style join-order workload through
``OptimizationPipeline(JoinOrderFormulation(polish=False), "sa",
service=SolveService(max_workers=2)).optimize_workload``.

Each batch is a fresh ``generate_join_workload`` draw (chain, star,
cycle and clique at 6, 8 and 10 relations, two instances per cell) and
every query runs at two SA seeds, so queued same-model jobs fold into
one warm-worker dispatch. The SA kernel takes nearly all the time and
the queue is deep. Unit of work: one ok plan (throughput); one
``optimize_workload`` call (latency); each call rescaled to the nominal
machine speed by the reference readings a helper takes, on CPU time,
while it runs (see ``common``).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List

from common import (
    REFERENCE_SECONDS,
    ConcurrentReference,
    Outcome,
    p50,
    peak_rss_mb,
    ratio,
)

TOPOLOGIES = ("chain", "star", "cycle", "clique")
SIZES = (6, 8, 10)
INSTANCES_PER_CELL = 2
SEEDS_PER_QUERY = 2
NUM_SWEEPS = 300
NUM_READS = 20
WORKERS = 2
#: Plans per run re-solved in-process for the bit-for-bit check.
CHECKED_PLANS = 8


def _instances(seed: int, batch: int, smoke: bool):
    from repro.db.workloads import generate_join_workload

    workload = generate_join_workload(
        TOPOLOGIES[:2] if smoke else TOPOLOGIES,
        (4,) if smoke else SIZES,
        1 if smoke else INSTANCES_PER_CELL,
        seed=seed * 1000 + batch)
    return list(workload)


def _configs(seed: int, batch: int, count: int, smoke: bool):
    """Two seeds per query, adjacent so the pair can fold."""
    from repro.compile import SolverConfig

    configs = []
    for _ in range(count):
        for copy in range(SEEDS_PER_QUERY):
            configs.append(SolverConfig(
                num_sweeps=20 if smoke else NUM_SWEEPS,
                num_reads=4 if smoke else NUM_READS,
                seed=seed * 10_000 + batch * 10 + copy,
                convergence=False))
    return configs


def _pipeline(service):
    from repro.pipeline import OptimizationPipeline
    from repro.pipeline.formulations import JoinOrderFormulation

    return OptimizationPipeline(JoinOrderFormulation(polish=False), "sa",
                                service=service)


def start_service():
    """A 2-worker process-mode service with both workers answered."""
    from repro.compile import SolverConfig
    from repro.db.joinorder import JoinOrderQUBO
    from repro.db.workloads import random_join_graph
    from repro.service import SolveService

    service = SolveService(max_workers=WORKERS)
    warmups = [JoinOrderQUBO(random_join_graph(4, seed=index)).compile()
               for index in range(WORKERS)]
    service.solve_many(warmups, solver="sa", config=SolverConfig(
        num_sweeps=10, num_reads=2, seed=0, convergence=False))
    return service


def setup_probe(seed: int, smoke: bool):
    _instances(seed, 0, smoke)
    return start_service().shutdown


def _check_plans(outcome: Outcome,
                 batches: List[Dict[str, Any]]) -> None:
    """Every plan is ok and a valid order; a seed-spread sample equals a
    direct in-process ``solve()`` of the same problem and config."""
    from repro.compile import solve
    from repro.pipeline.formulations import JoinOrderFormulation
    from repro.server import result_document

    formulation = JoinOrderFormulation(polish=False)
    checked = []
    for batch in batches:
        for plan, (instance, config) in zip(batch["plans"],
                                            batch["items"]):
            if not plan.ok:
                outcome.fail(f"plan status {plan.status}")
                continue
            if sorted(plan.solution.order) != list(
                    range(instance.num_relations)):
                outcome.fail("plan order is not a permutation")
                continue
            checked.append((plan, instance, config))
    stride = max(1, len(checked) // CHECKED_PLANS)
    for plan, instance, config in checked[::stride][:CHECKED_PLANS]:
        problem = formulation.compile(instance.graph)
        direct = result_document(solve(problem, "sa", config))
        served = result_document(plan.result)
        direct.pop("provenance")
        served.pop("provenance")
        if served != direct:
            outcome.fail(f"plan for {instance.instance_key} differs from "
                         f"direct solve()")


def _layers(batches: List[Dict[str, Any]], stats_before, stats_after,
            wall: float) -> Dict[str, float]:
    from repro.compile import assemble_result, decode_samples
    from repro.pipeline.formulations import JoinOrderFormulation

    formulation = JoinOrderFormulation(polish=False)
    queue, kernel, folded, stages = [], [], 0, {"formulation": [],
                                                "assembly": []}
    key_seconds, assemble_seconds = [], []
    spins = backend = 0.0
    jobs = 0
    for batch in batches:
        for plan, (instance, config) in zip(batch["plans"],
                                            batch["items"]):
            for report in plan.provenance.get("stages", []):
                if report["stage"] in stages:
                    stages[report["stage"]].append(report["seconds"])
            if plan.result is None:
                continue
            jobs += 1
            provenance = plan.result.provenance
            service = provenance.get("service", {})
            queue.append(service.get("queue_seconds", 0.0))
            folded += service.get("batched", 1) > 1
            kernel.append(provenance["duration_seconds"])
            backend += provenance["duration_seconds"]
            spins += (provenance["num_variables"] * config.num_sweeps
                      * config.num_reads)
            problem = formulation.compile(instance.graph)
            began = time.perf_counter()
            problem.content_key()
            key_seconds.append(time.perf_counter() - began)
            samples = plan.result.samples
            began = time.perf_counter()
            solutions = decode_samples(problem, samples)
            assemble_result(problem, "sa", config, samples, solutions,
                            provenance["duration_seconds"])
            assemble_seconds.append(time.perf_counter() - began)
    pool_before, pool_after = stats_before["pool"], stats_after["pool"]
    warm = pool_after["dispatches_warm"] - pool_before["dispatches_warm"]
    cold = pool_after["dispatches_cold"] - pool_before["dispatches_cold"]
    return {
        "service.queue_wait_s.p50": p50(queue),
        "service.batch_fold_frac": ratio(folded, jobs),
        "service.pool.warm_frac": ratio(warm, warm + cold),
        "service.shm_bytes": (stats_after["shm"]["bytes_shared"]
                              - stats_before["shm"]["bytes_shared"]),
        "service.worker_busy_frac": ratio(backend, WORKERS * wall),
        "compile.content_key_s.p50": p50(key_seconds),
        "compile.decode_assemble_s.p50": p50(assemble_seconds),
        "pipeline.formulation_s.p50": p50(stages["formulation"]),
        "pipeline.assembly_s.p50": p50(stages["assembly"]),
        "annealing.sa.kernel_s.p50": p50(kernel),
        "annealing.sa.spin_updates_per_s": ratio(spins, backend),
    }


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> Outcome:
    outcome = Outcome()
    service = start_service()
    reference = None
    try:
        pipeline = _pipeline(service)
        stats_before = service.stats()
        batches: List[Dict[str, Any]] = []
        reference = ConcurrentReference(clock=time.thread_time)
        started = time.perf_counter()
        while not batches or time.perf_counter() - started < seconds:
            number = len(batches)
            instances = _instances(seed, number, smoke)
            items = [(instance, config) for instance, config in zip(
                [i for i in instances for _ in range(SEEDS_PER_QUERY)],
                _configs(seed, number, len(instances), smoke))]
            outcome.attempted += len(items)
            began = time.perf_counter()
            plans = pipeline.optimize_workload(
                [instance.graph for instance, _ in items],
                configs=[config for _, config in items])
            batches.append({"plans": plans, "items": items,
                            "began": began,
                            "seconds": time.perf_counter() - began})
        slowdown = reference.stop() / REFERENCE_SECONDS
        for batch in batches:
            batch["nominal"] = reference.at_nominal_speed(
                batch["began"], batch["began"] + batch["seconds"])
        reference = None
        stats_after = service.stats()
        outcome.peak_rss_mb = peak_rss_mb(
            [os.getpid()] + [pid for pid in stats_after["pool"]["pids"]
                             if pid is not None])
    finally:
        if reference is not None:
            reference.stop()
        service.shutdown()

    _check_plans(outcome, batches)
    batch_seconds = [batch["seconds"] for batch in batches]
    # Over all batches, not a median of batch rates: a batch's SA time
    # depends on its draw of instances by about 10%, and a run's
    # two or three draws average it down only when pooled.
    ok = sum(plan.ok for batch in batches for plan in batch["plans"])
    outcome.throughput = ok / sum(batch["nominal"] for batch in batches)
    outcome.latency_p50 = p50([batch["nominal"] for batch in batches])
    outcome.named = {
        "queries_per_s": (ok / sum(batch_seconds), "1/s"),
        "batch_p50_s": (p50(batch_seconds), "s"),
        "machine_slowdown": (slowdown, "ratio"),
        "plans": (sum(len(batch["plans"]) for batch in batches), "count"),
        "batches": (len(batches), "count"),
    }
    if traced:
        outcome.layers = _layers(batches, stats_before, stats_after,
                                 sum(batch_seconds))
    return outcome

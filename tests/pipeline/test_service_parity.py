"""``pipeline_service_parity``: warm-pool routing is bit-for-bit.

Routing a pipeline workload through a :class:`SolveService` warm pool
(PR 7's shared-memory dispatch + cross-job batch folding) must return
exactly the plans the in-process path produces — same orders, same
costs — with the routing visible in stage provenance.
"""

import pytest

from repro.compile import SolverConfig
from repro.db import random_join_graph
from repro.db.workloads import generate_join_workload
from repro.experiments.harness import run_pipeline
from repro.pipeline import JoinOrderFormulation, OptimizationPipeline
from repro.service import SolveService


def _solve_report(plan):
    return next(report for report in plan.provenance["stages"]
                if report["stage"] == "solve")


def test_pipeline_service_parity_workers_0_vs_2():
    workload = generate_join_workload(
        topologies=("chain", "star"), sizes=(4, 5),
        instances_per_cell=2, seed=0,
    )
    formulation = JoinOrderFormulation(polish=False)
    direct = run_pipeline(workload.graphs(), formulation, workers=0)
    pooled = run_pipeline(workload.graphs(), formulation, workers=2)
    assert len(direct) == len(pooled) == len(workload)
    for in_process, via_pool in zip(direct, pooled):
        assert in_process.status == via_pool.status == "ok"
        assert in_process.solution.order == via_pool.solution.order
        assert in_process.cost == via_pool.cost
        assert not _solve_report(in_process)["detail"].get(
            "via_service", False
        )
        assert _solve_report(via_pool)["detail"]["via_service"] is True


def test_pipeline_reuses_caller_provided_service():
    workload = generate_join_workload(
        topologies=("chain",), sizes=(4,), instances_per_cell=3, seed=1,
    )
    reference = OptimizationPipeline(
        "joinorder", solve="sa"
    ).optimize_workload(workload.graphs())
    with SolveService(max_workers=2, mode="process") as service:
        pipeline = OptimizationPipeline("joinorder", solve="sa",
                                        service=service)
        plans = pipeline.optimize_workload(workload.graphs())
        stats = service.stats()
    assert stats["pool"]["jobs_run"] >= len(workload)
    for got, want in zip(plans, reference):
        assert got.solution.order == want.solution.order
        assert got.cost == want.cost
        # The solver-side provenance records the service routing.
        assert got.provenance["solver"]["service"]["mode"] == "process"


@pytest.mark.parametrize("mode", [None, "thread", "process"])
def test_failing_submit_becomes_that_instances_plan(mode):
    # The middle config cannot cross a process boundary, so a
    # process-mode submit raises; like a failing in-process solve it
    # must become that instance's infeasible plan while the other
    # instances' jobs still run and are gathered.
    graphs = [random_join_graph(4, "chain", seed=seed) for seed in range(3)]
    configs = [SolverConfig(num_sweeps=60, num_reads=4, seed=seed)
               for seed in range(3)]
    configs[1] = SolverConfig(num_sweeps=60, num_reads=4, seed=1,
                              options={"hook": lambda x: x})
    reference = OptimizationPipeline("joinorder")
    expected = [reference.optimize(graph, config=config)
                for graph, config in zip(graphs, configs)]
    if mode is None:
        plans = reference.optimize_workload(graphs, configs=configs)
    else:
        with SolveService(max_workers=2, mode=mode) as service:
            plans = OptimizationPipeline(
                "joinorder", service=service,
            ).optimize_workload(graphs, configs=configs)
    assert [plan.status for plan in expected] == ["ok", "infeasible", "ok"]
    assert [plan.status for plan in plans] == ["ok", "infeasible", "ok"]
    report = _solve_report(plans[1])
    assert report["status"] == "error"
    assert "hook" in report["detail"]["error"]
    for index in (0, 2):
        assert plans[index].solution.order == expected[index].solution.order
        assert plans[index].cost == expected[index].cost

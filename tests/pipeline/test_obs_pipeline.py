"""Pipeline-layer observability: stage metrics, trace contexts, and
the end-to-end ``obs-report`` acceptance path.

The acceptance criterion for the correlated-observability stack: one
``trace_id`` minted at pipeline entry is queryable end-to-end —
``obs-report <trace_id>`` reconstructs queue wait, dispatch kind,
per-stage timings and convergence for a job that went through
``OptimizationPipeline`` + ``SolveService`` at ``workers=2``.
"""

import pytest

from repro import telemetry
from repro.db.workloads import random_join_graph
from repro.pipeline import OptimizationPipeline
from repro.service import SolveService
from repro.telemetry import metrics as metrics_mod
from repro.telemetry import obs_report as obs_mod
from repro.telemetry import trace as trace_mod


@pytest.fixture(autouse=True)
def _clean_layers():
    yield
    telemetry.observe("off")


def graphs(count=3, relations=5):
    return [random_join_graph(relations, "chain", seed=seed)
            for seed in range(count)]


def test_stage_histogram_labeled_by_stage_and_formulation():
    registry = metrics_mod.enable_metrics()
    plan = OptimizationPipeline("joinorder").optimize(graphs(1)[0])
    assert plan.status == "ok"
    entry = registry.snapshot()["histograms"]["pipeline_stage_seconds"]
    assert entry["labelnames"] == ["stage", "formulation"]
    observed = {series["labels"]["stage"] for series in entry["series"]}
    assert observed == {"pre_check", "formulation", "solve", "assembly"}
    for series in entry["series"]:
        assert series["labels"]["formulation"] == "joinorder"
        assert series["count"] == 1
        assert series["sum"] >= 0


def test_stage_histogram_counts_failed_stage_too():
    registry = metrics_mod.enable_metrics()
    plan = OptimizationPipeline("mqo").optimize(graphs(1)[0])
    assert plan.status != "ok"  # join graph is not an MQO instance
    entry = registry.snapshot()["histograms"]["pipeline_stage_seconds"]
    stages = {series["labels"]["stage"]: series["count"]
              for series in entry["series"]}
    # The failing run still accounts for the stages it reached.
    assert stages.get("pre_check", 0) >= 1 or \
        stages.get("formulation", 0) >= 1


def test_trace_id_in_provenance_only_when_context_enabled():
    graph = graphs(1)[0]
    off = OptimizationPipeline("joinorder").optimize(graph)
    assert "trace_id" not in off.provenance
    telemetry.observe("context")
    on = OptimizationPipeline("joinorder").optimize(graph)
    assert len(on.provenance["trace_id"]) == 16
    # Observability never touches the answer.
    assert on.solution.order == off.solution.order
    assert on.cost == off.cost


def test_workload_plans_get_distinct_trace_ids():
    telemetry.observe("context")
    plans = OptimizationPipeline("joinorder").optimize_workload(graphs(3))
    trace_ids = [plan.provenance["trace_id"] for plan in plans]
    assert len(set(trace_ids)) == 3


def test_obs_report_end_to_end_through_service(tmp_path, capsys):
    telemetry.observe("context")
    tracer = trace_mod.enable_tracing(sample_memory=False)
    with SolveService(max_workers=2) as service:
        pipeline = OptimizationPipeline("joinorder", service=service)
        plans = pipeline.optimize_workload(graphs(3))
    assert all(plan.status == "ok" for plan in plans)
    baseline = OptimizationPipeline("joinorder").optimize_workload(
        graphs(3))
    for plan, direct in zip(plans, baseline):
        assert plan.solution.order == direct.solution.order
        assert plan.cost == direct.cost

    trace_path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(trace_path))

    # Pipeline provenance and service provenance agree on the id.
    trace_id = plans[0].provenance["trace_id"]
    assert plans[0].provenance["solver"]["service"]["trace_id"] \
        == trace_id

    # The acceptance criterion: obs-report reconstructs the job's
    # whole journey from just the trace file and the trace_id.
    assert obs_mod.main([str(trace_path), trace_id]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}" in out
    assert "queue wait:" in out
    assert "dispatch:" in out
    assert "pipeline stages:" in out
    for stage in ("pre_check", "formulation", "solve", "assembly"):
        assert stage in out

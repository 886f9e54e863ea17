"""Golden list of the metric families one end-to-end scenario exports.

One scenario runs every instrumented layer once with the live-metrics
registry on: ``solve()`` with four solvers, the statevector simulator,
a two-worker process service batch with a cache hit and a folded job,
a pipeline run and one HTTP job. The sorted ``(name, kind,
labelnames)`` triples the registry then holds are pinned below, so a
renamed metric or a changed label set fails here before it reaches a
Prometheus scrape or an SLO rule.
"""

import numpy as np
import pytest

from repro.compile import SolverConfig, solve
from repro.db import JoinOrderQUBO, random_join_graph
from repro.pipeline import JoinOrderFormulation, OptimizationPipeline
from repro.quantum import Circuit, StatevectorSimulator
from repro.server.testing import Client, ServerThread
from repro.service import SolveService
from repro.telemetry import metrics as _metrics

#: The families the scenario exported while a second store kept the
#: work counts and span timings.
BASELINE = [
    ("pipeline_stage_seconds", "histogram", ("stage", "formulation")),
    ("quantum_gate_applications_total", "counter", ("mode",)),
    ("quantum_run_seconds", "histogram", ("mode",)),
    ("quantum_statevector_peak_bytes", "gauge", ()),
    ("server_jobs_total", "counter", ("status",)),
    ("server_request_seconds", "histogram", ("route",)),
    ("server_requests_total", "counter", ("route", "method", "status")),
    ("server_stream_events_total", "counter", ()),
    ("server_streams_open", "gauge", ()),
    ("service_batch_folds_total", "counter", ()),
    ("service_cache_events_total", "counter", ("event",)),
    ("service_execute_seconds", "histogram", ("solver",)),
    ("service_jobs_total", "counter", ("status",)),
    ("service_metrics_merges_total", "counter", ()),
    ("service_queue_depth", "gauge", ()),
    ("service_queue_wait_seconds", "histogram", ()),
    ("service_worker_busy_seconds_total", "counter", ()),
    ("service_worker_idle_seconds_total", "counter", ()),
    ("service_worker_respawns_total", "counter", ()),
    ("service_workers_busy", "gauge", ()),
    ("solver_moves_total", "counter", ("solver", "outcome")),
    ("solver_solve_seconds", "histogram", ("solver",)),
    ("solver_sweep_rate", "gauge", ("solver",)),
    ("solver_sweeps_total", "counter", ("solver",)),
]

#: Families added when the registry became the only store, each a fact
#: that used to be kept outside the registry.
ADDED = [
    ("compile_constraints_total", "counter", ("kind",)),
    ("compile_decoded_samples_total", "counter", ("solver",)),
    ("compile_problems_total", "counter", ()),
    ("qaoa_energy_evaluations_total", "counter", ()),
    ("quantum_circuit_evaluations_total", "counter", ("mode",)),
    ("quantum_gates_total", "counter", ("gate",)),
    ("quantum_shots_total", "counter", ()),
    ("span_seconds", "histogram", ("path",)),
    ("sqa_worldline_moves_accepted_total", "counter", ()),
]


@pytest.fixture(autouse=True)
def _clean_metrics():
    _metrics.disable_metrics()
    yield
    _metrics.disable_metrics()


def _problem(seed, relations=3):
    graph = random_join_graph(relations, "chain", seed=seed)
    return JoinOrderQUBO(graph).compile()


def _config(seed, sweeps=20, reads=2):
    return SolverConfig(num_sweeps=sweeps, num_reads=reads, seed=seed,
                        convergence=False)


def _service_batch():
    """Two decoys hold both dispatchers while three same-model jobs
    queue behind them, so the first of those folds the other two; a
    resubmitted job is then served from the cache."""
    shared = _problem(1)
    with SolveService(max_workers=2, mode="process") as service:
        decoys = [service.submit(_problem(10 + index, relations=6), "sa",
                                 _config(index, sweeps=1500, reads=20))
                  for index in range(2)]
        handles = [service.submit(shared, "sa", _config(100 + index))
                   for index in range(3)]
        results = [handle.result(timeout=120)
                   for handle in decoys + handles]
        hit = service.submit(shared, "sa", _config(100)).result(
            timeout=120)
    assert max(r.provenance["service"]["batched"] for r in results) > 1
    assert hit.provenance["service"]["cache"] == "hit"


def _http_job():
    body = {
        "problem": {"kind": "qubo", "num_variables": 3,
                    "linear": {"0": -1.0, "1": -1.0, "2": -1.0},
                    "quadratic": [[0, 1, 2.0], [1, 2, 2.0]]},
        "solver": "sa",
        "config": {"num_sweeps": 50, "num_reads": 2, "seed": 3,
                   "convergence": True},
    }
    with ServerThread(workers=0) as thread:
        with Client(*thread.address) as client:
            status, _, accepted = client.submit(body)
            assert status == 201
            events = [event for event, _, _
                      in client.stream(accepted["job_id"])]
            assert "result" in events


def _scenario_triples():
    registry = _metrics.enable_metrics()
    problem = _problem(0)
    for solver in ("sa", "sqa", "tabu", "qaoa"):
        solve(problem, solver, config=_config(1))
    simulator = StatevectorSimulator(seed=0)
    simulator.run(Circuit(2).h(0).cx(0, 1))
    template = Circuit(2).ry(0.0, 0).rz(0.0, 1).cx(0, 1)
    simulator.run_angles(template, np.array([[0.1, 0.2], [0.3, 0.4]]))
    _service_batch()
    OptimizationPipeline(JoinOrderFormulation(), solve="sa").optimize(
        random_join_graph(3, "star", seed=2), config=_config(5))
    _http_job()
    _metrics.disable_metrics()
    return sorted((name, registry.get(name).kind,
                   registry.get(name).labelnames)
                  for name in registry.instrument_names())


def test_metric_families_are_pinned():
    assert _scenario_triples() == sorted(BASELINE + ADDED)

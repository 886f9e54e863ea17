"""obs-report ``--source server``: HTTP request legs join job traces.

The server mints one trace context per request; with tracing on, the
``server.request.received`` instant and the ``server.request`` span
carry that ``trace_id``, which is the same id the service-side job
events use — so one trace tells the whole story from socket to solver.
"""

import pytest

from repro import telemetry
from repro.server.testing import Client, ServerThread
from repro.telemetry import obs_report as obs_mod
from repro.telemetry import trace as trace_mod


@pytest.fixture(autouse=True)
def _clean_layers():
    yield
    telemetry.observe("off")


def body(seed):
    return {
        "problem": {"kind": "qubo", "num_variables": 3,
                    "linear": {"0": -1.0, "1": -1.0, "2": -1.0},
                    "quadratic": [[0, 1, 2.0], [1, 2, 2.0]]},
        "solver": "sa",
        "config": {"num_sweeps": 100, "num_reads": 2, "seed": seed},
    }


def test_http_leg_joins_job_trace(tmp_path, capsys):
    telemetry.observe("context")
    tracer = trace_mod.enable_tracing(sample_memory=False)
    with ServerThread(workers=0) as thread:
        with Client(*thread.address) as client:
            status, _, accepted = client.submit(body(seed=21))
            assert status == 201
            trace_id = accepted["trace_id"]
            assert trace_id
            client.wait_result(accepted["job_id"])
    trace_path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(trace_path))

    # --source server filters the listing to HTTP-entered traces.
    assert obs_mod.main([str(trace_path), "--source", "server",
                         "--list"]) == 0
    listing = capsys.readouterr().out
    assert trace_id in listing

    # The timeline leads with the request leg and the handler wait.
    assert obs_mod.main([str(trace_path), trace_id,
                         "--source", "server"]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id}" in out
    assert "http: POST /v1/jobs -> 201" in out
    assert "handler wait:" in out


def test_source_server_rejects_http_free_trace(tmp_path, capsys):
    telemetry.observe("context")
    tracer = trace_mod.enable_tracing(sample_memory=False)
    # A service-only run: trace-annotated events, but no HTTP leg.
    from repro.compile import SolverConfig
    from repro.db import JoinOrderQUBO, random_join_graph
    from repro.service import SolveService

    problem = JoinOrderQUBO(random_join_graph(3, "chain",
                                              seed=0)).compile()
    with SolveService(max_workers=1, mode="thread") as service:
        service.solve(problem, "sa",
                      SolverConfig(num_sweeps=50, num_reads=1, seed=1,
                                   convergence=False))
    trace_path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(trace_path))
    assert obs_mod.main([str(trace_path), "--source", "server",
                         "--list"]) == 2
    assert "no traces with HTTP request events" in \
        capsys.readouterr().err


def test_build_timeline_computes_handler_wait():
    events = [
        {"name": "server.request.received", "ph": "I", "ts": 100.0,
         "args": {"trace_id": "t1", "route": "/v1/jobs",
                  "method": "POST", "path": "/v1/jobs"}},
        {"name": "service.job.submitted", "ph": "I", "ts": 400.0,
         "args": {"trace_id": "t1", "job_id": 1, "solver": "sa"}},
        {"name": "server.request", "ph": "X", "ts": 100.0,
         "dur": 900.0,
         "args": {"trace_id": "t1", "route": "/v1/jobs",
                  "method": "POST", "status": 201}},
    ]
    traces = obs_mod.group_by_trace(events)
    summary = obs_mod.build_timeline("t1", traces["t1"])
    http = summary["http"]
    assert http["status"] == 201
    assert http["seconds"] == pytest.approx(900.0 / 1e6)
    assert http["handler_wait_seconds"] == pytest.approx(300.0 / 1e6)
    assert obs_mod.filter_http_traces(traces) == traces

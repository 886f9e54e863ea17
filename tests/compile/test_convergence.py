"""Convergence diagnostics through the ``solve`` front door.

Every registered backend must emit the same uniform row schema into
``SolveResult.convergence`` when asked — explicitly via
``SolverConfig(convergence=True)``, or implicitly while an event
tracer is active.
"""

import pytest

from repro import telemetry
from repro.annealing import SimulatedAnnealingSolver
from repro.compile import SolverConfig, available_solvers, solve
from repro.db import JoinOrderQUBO, random_join_graph
from repro.telemetry.progress import PROGRESS_FIELDS

# 3 relations -> 9 QUBO variables, small enough for the statevector
# backends (qaoa/exact) that would be infeasible at tutorial scale.
SMOKE_CONFIG = SolverConfig(num_sweeps=40, num_reads=2, seed=3,
                            convergence=True)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable_metrics()
    telemetry.disable_tracing()
    yield
    telemetry.disable_metrics()
    telemetry.disable_tracing()


def _problem(seed=0):
    return JoinOrderQUBO(random_join_graph(3, "chain", seed=seed)).compile()


@pytest.mark.parametrize("name", sorted(available_solvers()))
def test_every_solver_emits_uniform_rows(name):
    result = solve(_problem(), solver=name, config=SMOKE_CONFIG)
    rows = result.convergence
    assert rows is not None and len(rows) >= 1
    for row in rows:
        assert tuple(row) == PROGRESS_FIELDS
        assert row["iteration"] >= 0
        assert row["best_energy"] is not None
    # best_energy is monotone non-increasing.
    bests = [row["best_energy"] for row in rows]
    assert all(b <= a + 1e-9 for a, b in zip(bests, bests[1:]))
    # Sample-space backends can never return a sample better than the
    # best energy seen mid-run (SA/SQA return *final* states, so the
    # traced best may be strictly lower).  QAOA rows carry optimizer
    # expectation values, which live on a different scale entirely.
    if name != "qaoa":
        assert bests[-1] <= result.energy + 1e-6
    assert result.provenance["convergence_rows"] == len(rows)


def test_convergence_off_by_default():
    config = SolverConfig(num_sweeps=40, num_reads=2, seed=3)
    result = solve(_problem(), solver="sa", config=config)
    assert result.convergence is None
    assert result.provenance["convergence_rows"] == 0


def test_convergence_false_wins_over_active_tracer():
    telemetry.enable_tracing()
    config = SolverConfig(num_sweeps=40, num_reads=2, seed=3,
                          convergence=False)
    result = solve(_problem(), solver="sa", config=config)
    assert result.convergence is None


def test_convergence_auto_on_under_tracing():
    tracer = telemetry.enable_tracing()
    config = SolverConfig(num_sweeps=40, num_reads=2, seed=3)
    result = solve(_problem(), solver="sa", config=config)
    assert result.convergence
    mirrored = [e for e in tracer.events()
                if e.get("cat") == "convergence"]
    assert len(mirrored) == len(result.convergence)


def test_convergence_does_not_change_results():
    config = SolverConfig(num_sweeps=40, num_reads=2, seed=3)
    plain = solve(_problem(), solver="sa", config=config)
    traced = solve(_problem(), solver="sa", config=SMOKE_CONFIG)
    assert traced.energy == plain.energy
    assert traced.samples.best_assignment.tolist() == \
        plain.samples.best_assignment.tolist()


def test_solver_instance_escape_hatch_gets_progress():
    instance = SimulatedAnnealingSolver(num_sweeps=40, num_reads=2, seed=3)
    result = solve(_problem(), solver=instance, config=SMOKE_CONFIG)
    assert result.convergence and len(result.convergence) >= 1
    # The temporary attachment is undone after the solve.
    assert instance.progress is None


def test_config_round_trips_and_validates_convergence():
    assert SolverConfig(convergence=True).to_dict()["convergence"] is True
    assert SolverConfig().to_dict()["convergence"] is None
    with pytest.raises(ValueError, match="convergence"):
        SolverConfig(convergence=1)

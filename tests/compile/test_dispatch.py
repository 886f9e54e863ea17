"""Unit tests for the solver registry and the ``solve`` front door."""

import numpy as np
import pytest

from repro.annealing import SimulatedAnnealingSolver
from repro.compile import (
    SolverConfig,
    available_solvers,
    solve,
)
from repro.db import (
    IndexSelectionProblem,
    IndexSelectionQUBO,
    JoinOrderQUBO,
    MQOProblem,
    MQOQUBO,
    TransactionSchedulingProblem,
    TransactionSchedulingQUBO,
    random_join_graph,
)
from repro.db.partitioning import PartitioningIsing, PartitioningProblem

SMOKE_CONFIG = SolverConfig(num_sweeps=50, num_reads=4, seed=7)


def _join_order_problem(seed=0):
    return JoinOrderQUBO(random_join_graph(3, "chain", seed=seed)).compile()


def _all_problems(seed=0):
    return [
        _join_order_problem(seed),
        MQOQUBO(MQOProblem.random(2, 2, seed=seed)).compile(),
        IndexSelectionQUBO(
            IndexSelectionProblem.random(3, seed=seed)
        ).compile(),
        TransactionSchedulingQUBO(
            TransactionSchedulingProblem.random(3, seed=seed), 3
        ).compile(),
        PartitioningIsing(
            PartitioningProblem.random(4, seed=seed)
        ).compile(),
    ]


def test_registry_lists_all_expected_solvers():
    names = available_solvers()
    assert set(names) == {"sa", "sqa", "tabu", "qaoa", "exact", "pt"}
    assert all(isinstance(d, str) and d for d in names.values())


def test_unknown_solver_raises_helpful_error():
    problem = _join_order_problem()
    with pytest.raises(ValueError) as excinfo:
        solve(problem, solver="annealotron")
    message = str(excinfo.value)
    assert "annealotron" in message
    for name in available_solvers():
        assert name in message


def test_solver_config_validation():
    with pytest.raises(ValueError, match="num_sweeps"):
        SolverConfig(num_sweeps=0)
    with pytest.raises(ValueError, match="num_reads"):
        SolverConfig(num_reads=-3)
    for bad in (2.5, True, float("nan"), "3"):
        with pytest.raises(ValueError, match="num_sweeps"):
            SolverConfig(num_sweeps=bad)
        with pytest.raises(ValueError, match="num_reads"):
            SolverConfig(num_reads=bad)
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(seed=1.5)
    with pytest.raises(ValueError, match="options"):
        SolverConfig(options=[("a", 1)])
    with pytest.raises(ValueError, match="uniform knobs"):
        SolverConfig(options={"num_sweeps": 5})
    config = SolverConfig(num_sweeps=10, num_reads=2, seed=np.int64(3))
    assert config.to_dict()["seed"] == 3
    config = SolverConfig(num_sweeps=np.int64(5), num_reads=np.int64(5))
    assert config.num_sweeps == config.num_reads == 5


@pytest.mark.parametrize("name", ["sa", "sqa", "tabu", "exact", "pt"])
@pytest.mark.parametrize("index", range(5))
def test_every_solver_solves_every_problem(name, index):
    """The acceptance matrix: all registered solvers run on all five
    formulations (QAOA is covered separately at smaller scale)."""
    problem = _all_problems()[index]
    result = solve(problem, solver=name, config=SMOKE_CONFIG)
    assert result.problem == problem.name
    assert result.solver == name
    assert result.feasible
    assert len(result.solutions) == len(result.samples)
    assert np.isfinite(result.energy)
    assert result.energies.min() == pytest.approx(result.energy)
    assert result.provenance["solver"] == name
    assert result.provenance["seed"] == 7
    assert result.provenance["num_variables"] == problem.num_variables


def test_qaoa_solves_compiled_problems():
    problem = MQOQUBO(MQOProblem.random(2, 2, seed=1)).compile()
    config = SolverConfig(num_sweeps=15, num_reads=1, seed=5,
                          options={"shots": 64})
    result = solve(problem, solver="qaoa", config=config)
    assert result.solver == "qaoa"
    assert result.feasible


def test_exact_matches_best_annealed_energy_on_small_problem():
    problem = _join_order_problem(seed=3)
    exact = solve(problem, solver="exact")
    annealed = solve(problem, solver="sa",
                     config=SolverConfig(num_sweeps=400, num_reads=20,
                                         seed=0))
    assert exact.energy <= annealed.energy + 1e-9


def test_same_seed_solves_are_identical():
    """Satellite: seeds thread uniformly, so two same-seed dispatches
    agree bit for bit."""
    config = SolverConfig(num_sweeps=80, num_reads=6, seed=123)
    for name in ("sa", "sqa", "tabu", "pt"):
        first = solve(_join_order_problem(seed=2), solver=name,
                      config=config)
        second = solve(_join_order_problem(seed=2), solver=name,
                       config=config)
        assert first.solution.order == second.solution.order
        assert first.energy == second.energy
        np.testing.assert_array_equal(first.energies, second.energies)
        assert [s.assignment for s in first.samples] == [
            s.assignment for s in second.samples
        ]


def test_different_seeds_usually_differ():
    problem = _join_order_problem(seed=2)
    a = solve(problem, solver="sa",
              config=SolverConfig(num_sweeps=5, num_reads=3, seed=0))
    b = solve(problem, solver="sa",
              config=SolverConfig(num_sweeps=5, num_reads=3, seed=1))
    assert (
        [s.assignment for s in a.samples]
        != [s.assignment for s in b.samples]
    )


def test_solver_instance_escape_hatch():
    problem = _join_order_problem()
    instance = SimulatedAnnealingSolver(num_sweeps=50, num_reads=4, seed=9)
    result = solve(problem, solver=instance)
    assert result.solver == "sa"  # taken from the class's solver_name
    assert result.feasible


def test_repair_flag_applies_problem_repair_hook():
    problem = TransactionSchedulingQUBO(
        TransactionSchedulingProblem.random(5, num_objects=4, seed=8), 5
    ).compile()
    assert problem.repair is not None
    # A deliberately under-powered solver so raw decodes may conflict.
    weak = SolverConfig(num_sweeps=1, num_reads=1, seed=0)
    repaired = solve(problem, solver="sa", config=weak, repair=True)
    assert repaired.feasible


def test_invalid_solver_object_rejected():
    problem = _join_order_problem()
    with pytest.raises(ValueError, match="registered solvers"):
        solve(problem, solver=42)

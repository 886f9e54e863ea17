"""Tests for exact, SA, SQA and tabu solvers plus sample sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import (
    QUBO,
    IsingModel,
    Sample,
    SampleSet,
    SimulatedAnnealingSolver,
    SimulatedQuantumAnnealingSolver,
    TabuSearchSolver,
    all_assignments,
    anneal_qubo,
    ground_states,
    qubo_spectrum,
    solve_ising_exact,
    solve_qubo_exact,
)
from repro.annealing.simulated_annealing import auto_beta_schedule
from repro.db import JoinOrderQUBO, random_join_graph
from repro.telemetry.progress import ProgressTrace


@pytest.fixture(scope="module")
def frustrated_qubo():
    rng = np.random.default_rng(5)
    return QUBO.from_matrix(rng.normal(size=(8, 8)))


# ----------------------------------------------------------------------
# SampleSet
# ----------------------------------------------------------------------
def test_sampleset_sorts_by_energy():
    ss = SampleSet([Sample((0,), 2.0), Sample((1,), -1.0)])
    assert ss.best_energy == -1.0
    assert ss.best.assignment == (1,)


def test_sampleset_merges_duplicates():
    ss = SampleSet([Sample((0, 1), 1.0), Sample((0, 1), 1.0, 3)])
    assert len(ss) == 1
    assert ss.best.num_occurrences == 4


def test_sampleset_success_probability():
    ss = SampleSet([Sample((0,), 0.0, 3), Sample((1,), 5.0, 1)])
    assert ss.success_probability(0.0) == pytest.approx(0.75)


def test_sampleset_rejects_empty():
    with pytest.raises(ValueError):
        SampleSet([])


def test_sampleset_energies_expanded():
    ss = SampleSet([Sample((0,), 1.0, 2), Sample((1,), 3.0)])
    assert sorted(ss.energies()) == [1.0, 1.0, 3.0]


# ----------------------------------------------------------------------
# Exact
# ----------------------------------------------------------------------
def test_all_assignments_lexicographic():
    rows = all_assignments(2)
    assert rows.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_all_assignments_limit():
    with pytest.raises(ValueError):
        all_assignments(30)


def test_exact_qubo_known_optimum():
    # min of x0 - 2 x1 + 3 x0 x1 is x = (0, 1) with energy -2.
    q = QUBO(2).add_linear(0, 1.0).add_linear(1, -2.0)
    q.add_quadratic(0, 1, 3.0)
    best = solve_qubo_exact(q)
    assert best.assignment == (0, 1)
    assert best.energy == pytest.approx(-2.0)


def test_exact_ising_ferromagnet():
    model = IsingModel(3, j={(0, 1): -1.0, (1, 2): -1.0})
    spins, energy = solve_ising_exact(model)
    assert energy == pytest.approx(-2.0)
    assert abs(spins.sum()) == 3  # all aligned


def test_qubo_spectrum_sorted_and_complete():
    q = QUBO(3).add_linear(0, 1.0)
    spectrum = qubo_spectrum(q)
    assert spectrum.size == 8
    assert (np.diff(spectrum) >= 0).all()


def test_ground_states_finds_degenerate_optima():
    # -Z0 Z1 in QUBO form has two ground states: 00 and 11.
    model = IsingModel(2, j={(0, 1): -1.0}).to_qubo()
    states = ground_states(model)
    assignments = {s.assignment for s in states}
    assert assignments == {(0, 0), (1, 1)}


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------
def test_sa_finds_optimum_of_small_qubo(frustrated_qubo):
    exact = solve_qubo_exact(frustrated_qubo)
    result = anneal_qubo(frustrated_qubo, num_sweeps=200, num_reads=10,
                         seed=0)
    assert result.best_energy == pytest.approx(exact.energy)


def test_sa_accepts_ising_directly():
    model = IsingModel.random(6, seed=1)
    solver = SimulatedAnnealingSolver(num_sweeps=100, num_reads=5, seed=2)
    result = solver.solve(model)
    _, exact_energy = solve_ising_exact(model)
    assert result.best_energy <= exact_energy + 2.0


def test_sa_deterministic_with_seed(frustrated_qubo):
    a = SimulatedAnnealingSolver(num_sweeps=50, num_reads=3, seed=9)
    b = SimulatedAnnealingSolver(num_sweeps=50, num_reads=3, seed=9)
    assert (a.solve(frustrated_qubo).best_energy
            == b.solve(frustrated_qubo).best_energy)


def test_sa_validates_args():
    with pytest.raises(ValueError):
        SimulatedAnnealingSolver(num_sweeps=0)
    with pytest.raises(ValueError):
        SimulatedAnnealingSolver(num_reads=0)


def test_sa_custom_schedule_length_checked(frustrated_qubo):
    solver = SimulatedAnnealingSolver(num_sweeps=10, beta_schedule=[1.0])
    with pytest.raises(ValueError):
        solver.solve(frustrated_qubo)


def test_auto_beta_schedule_is_increasing(frustrated_qubo):
    betas = auto_beta_schedule(frustrated_qubo.to_ising(), 50)
    assert len(betas) == 50
    assert betas[0] < betas[-1]
    assert betas[0] > 0


def test_auto_beta_schedule_scales_with_coefficients():
    small = IsingModel(2, j={(0, 1): 1.0})
    large = IsingModel(2, j={(0, 1): 1000.0})
    assert (auto_beta_schedule(large, 10)[0]
            < auto_beta_schedule(small, 10)[0])


def test_sa_penalized_onehot_problem():
    """SA respects one-hot penalties when weights dominate."""
    q = QUBO(3).add_linear(0, 5.0).add_linear(1, 1.0).add_linear(2, 3.0)
    q.add_penalty_exactly_one([0, 1, 2], weight=20.0)
    result = anneal_qubo(q, num_sweeps=100, num_reads=5, seed=3)
    assert result.best_assignment.tolist() == [0, 1, 0]


# ----------------------------------------------------------------------
# Simulated quantum annealing
# ----------------------------------------------------------------------
def test_sqa_finds_optimum_of_small_qubo(frustrated_qubo):
    exact = solve_qubo_exact(frustrated_qubo)
    solver = SimulatedQuantumAnnealingSolver(
        num_sweeps=200, num_reads=8, num_slices=10, seed=4
    )
    result = solver.solve(frustrated_qubo)
    assert result.best_energy <= exact.energy + 0.5


def test_sqa_validates_args():
    with pytest.raises(ValueError):
        SimulatedQuantumAnnealingSolver(num_slices=1)
    with pytest.raises(ValueError):
        SimulatedQuantumAnnealingSolver(beta=0.0)


def test_sqa_deterministic_with_seed(frustrated_qubo):
    make = lambda: SimulatedQuantumAnnealingSolver(
        num_sweeps=50, num_reads=3, num_slices=6, seed=11
    )
    assert (make().solve(frustrated_qubo).best_energy
            == make().solve(frustrated_qubo).best_energy)


def test_sqa_gamma_schedule_length_checked(frustrated_qubo):
    solver = SimulatedQuantumAnnealingSolver(
        num_sweeps=10, gamma_schedule=[1.0]
    )
    with pytest.raises(ValueError):
        solver.solve(frustrated_qubo)


# ----------------------------------------------------------------------
# Tabu search
# ----------------------------------------------------------------------
def test_tabu_finds_optimum_of_small_qubo(frustrated_qubo):
    exact = solve_qubo_exact(frustrated_qubo)
    solver = TabuSearchSolver(num_restarts=5, max_iterations=200, seed=5)
    result = solver.solve(frustrated_qubo)
    assert result.best_energy == pytest.approx(exact.energy)


def test_tabu_validates_args():
    with pytest.raises(ValueError):
        TabuSearchSolver(num_restarts=0)
    with pytest.raises(ValueError):
        TabuSearchSolver(max_iterations=0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000))
def test_property_heuristics_never_beat_exact(seed):
    """Sanity invariant: no heuristic reports energy below the true
    global minimum."""
    rng = np.random.default_rng(seed)
    q = QUBO.from_matrix(rng.normal(size=(6, 6)))
    floor = solve_qubo_exact(q).energy
    sa = anneal_qubo(q, num_sweeps=60, num_reads=3, seed=seed)
    tabu = TabuSearchSolver(num_restarts=2, max_iterations=60,
                            seed=seed).solve(q)
    assert sa.best_energy >= floor - 1e-9
    assert tabu.best_energy >= floor - 1e-9


# ----------------------------------------------------------------------
# Read-vectorized sweeps (PR 2)
# ----------------------------------------------------------------------
def test_vectorized_sa_reaches_optimum_with_telemetry(frustrated_qubo):
    """Lock-step reads still find the ground state, and the sweep and
    accept/reject counters stay populated."""
    from repro.telemetry import metrics

    exact = solve_qubo_exact(frustrated_qubo)
    registry = metrics.enable_metrics()
    try:
        solver = SimulatedAnnealingSolver(num_sweeps=200, num_reads=10,
                                          seed=0)
        result = solver.solve(frustrated_qubo)
    finally:
        metrics.disable_metrics()
    assert result.best_energy == pytest.approx(exact.energy)
    moves = registry.get("solver_moves_total")
    accepted = moves.labels(solver="sa", outcome="accepted").value
    rejected = moves.labels(solver="sa", outcome="rejected").value
    assert registry.get("solver_sweeps_total").value == 200 * 10
    assert accepted > 0
    assert (accepted + rejected
            == 200 * 10 * frustrated_qubo.num_variables)
    spans = registry.get("span_seconds")
    assert spans.labels(path="annealing.sa.solve").count == 1


def test_vectorized_sa_returns_one_sample_per_read(frustrated_qubo):
    result = SimulatedAnnealingSolver(num_sweeps=60, num_reads=7,
                                      seed=1).solve(frustrated_qubo)
    assert sum(s.num_occurrences for s in result) == 7


def test_vectorized_sqa_reaches_optimum_with_telemetry(frustrated_qubo):
    from repro.telemetry import metrics

    exact = solve_qubo_exact(frustrated_qubo)
    registry = metrics.enable_metrics()
    try:
        solver = SimulatedQuantumAnnealingSolver(
            num_sweeps=200, num_reads=8, num_slices=10, seed=4
        )
        result = solver.solve(frustrated_qubo)
    finally:
        metrics.disable_metrics()
    assert result.best_energy <= exact.energy + 0.5
    moves = registry.get("solver_moves_total")
    assert registry.get("solver_sweeps_total").value == 200 * 8
    assert moves.labels(solver="sqa", outcome="accepted").value > 0
    assert registry.get("sqa_worldline_moves_accepted_total").value >= 0


# ----------------------------------------------------------------------
# Frozen-prefix sweeps: parity with the full per-position loop
# ----------------------------------------------------------------------
class _ReferenceSweepSolver(SimulatedAnnealingSolver):
    """SA with the sweep that visits every position and applies flips
    through boolean fancy indexing, kept verbatim as the reference the
    shipped ``_sweep`` must reproduce bit for bit."""

    def _sweep(self, spins, local, couplings, beta, energies=None):
        reads, n = spins.shape
        order = self._rng.permutation(n)
        thresholds = self._rng.random((n, reads))
        accepted = 0
        for position, i in enumerate(order):
            delta = -2.0 * spins[:, i] * local[:, i]
            accept = thresholds[position] < np.exp(
                np.minimum(-beta * delta, 0.0)
            )
            if accept.any():
                flipped = spins[accept, i]
                spins[accept, i] = -flipped
                local[accept] -= 2.0 * flipped[:, None] * couplings[i]
                if energies is not None:
                    energies[accept] += delta[accept]
                accepted += int(accept.sum())
        return accepted


def _join_order_model(num_relations, topology, seed):
    graph = random_join_graph(num_relations, topology=topology, seed=seed)
    return JoinOrderQUBO(graph).compile().model


def _huge_coupling_qubo():
    model = QUBO(4).add_linear(0, -1.0).add_linear(3, 0.5)
    model.add_quadratic(0, 1, 1e6)
    model.add_quadratic(2, 3, -2.0)
    return model


#: (model factory, num_sweeps, num_reads)
_PARITY_CASES = [
    pytest.param(lambda: _join_order_model(3, "chain", 0), 1, 1,
                 id="join3"),
    pytest.param(lambda: _join_order_model(4, "star", 1), 20, 3,
                 id="join4"),
    pytest.param(lambda: _join_order_model(5, "cycle", 2), 50, 10,
                 id="join5"),
    pytest.param(lambda: _join_order_model(6, "clique", 3), 60, 10,
                 id="join6"),
    pytest.param(lambda: _join_order_model(7, "chain", 4), 100, 5,
                 id="join7"),
    pytest.param(lambda: _join_order_model(8, "star", 5), 200, 20,
                 id="join8"),
    pytest.param(lambda: IsingModel.random(12, density=0.5,
                                           field_scale=0.4, seed=3),
                 80, 7, id="ising12"),
    pytest.param(lambda: IsingModel.random(30, density=0.3,
                                           field_scale=1.0, seed=4),
                 40, 16, id="ising30"),
    pytest.param(lambda: IsingModel(1, h={0: 0.7}), 30, 4, id="one_spin"),
    pytest.param(lambda: IsingModel(3), 10, 5, id="no_terms"),
    pytest.param(_huge_coupling_qubo, 50, 6, id="huge_coupling"),
]


def _traced_solve(solver_cls, model, num_sweeps, num_reads, seed,
                  convergence, beta_schedule=None):
    """Samples, convergence rows and move counters of one solve."""
    from repro.telemetry import metrics

    progress = ProgressTrace() if convergence else None
    registry = metrics.enable_metrics()
    try:
        samples = solver_cls(num_sweeps=num_sweeps, num_reads=num_reads,
                             beta_schedule=beta_schedule, seed=seed,
                             progress=progress).solve(model)
    finally:
        metrics.disable_metrics()
    moves = registry.get("solver_moves_total")
    # repr keeps the sign of zero and every bit of each float.
    return repr((
        [(s.assignment, s.energy, s.num_occurrences) for s in samples],
        None if progress is None else progress.rows(),
        moves.labels(solver="sa", outcome="accepted").value,
        moves.labels(solver="sa", outcome="rejected").value,
    ))


@pytest.mark.parametrize("convergence", [False, True])
@pytest.mark.parametrize("factory, num_sweeps, num_reads", _PARITY_CASES)
def test_sa_sweep_matches_reference_bit_for_bit(factory, num_sweeps,
                                                num_reads, convergence):
    model = factory()
    assert (_traced_solve(SimulatedAnnealingSolver, model, num_sweeps,
                          num_reads, 7, convergence)
            == _traced_solve(_ReferenceSweepSolver, model, num_sweeps,
                             num_reads, 7, convergence))


@pytest.mark.parametrize("convergence", [False, True])
@pytest.mark.parametrize("factory, num_sweeps, num_reads", _PARITY_CASES)
def test_sa_sweep_matches_reference_on_a_custom_schedule(
        factory, num_sweeps, num_reads, convergence):
    """beta 0 accepts every move and 1e3 freezes most sweeps."""
    schedule = [0.0, 0.1, 1.0, 10.0, 1e3]
    model = factory()
    assert (_traced_solve(SimulatedAnnealingSolver, model, len(schedule),
                          num_reads, 17, convergence, schedule)
            == _traced_solve(_ReferenceSweepSolver, model, len(schedule),
                             num_reads, 17, convergence, schedule))


@pytest.mark.parametrize("num_spins", range(1, 21))
def test_sa_sweep_matches_reference_at_every_width(num_spins):
    """Flips write into strided spin columns; numpy picks its inner
    loops by stride, so cover every row stride from 8 to 160 bytes."""
    model = IsingModel.random(num_spins, density=0.6, field_scale=0.5,
                              seed=num_spins)
    assert (_traced_solve(SimulatedAnnealingSolver, model, 30, 9,
                          num_spins, True)
            == _traced_solve(_ReferenceSweepSolver, model, 30, 9,
                             num_spins, True))


def test_frozen_sweep_is_a_no_op_that_keeps_the_rng_stream():
    # All spins up is the ground state of a ferromagnetic chain: every
    # flip costs energy, and at beta = 1e3 no read accepts one.
    model = IsingModel(4, j={(0, 1): -1.0, (1, 2): -1.0, (2, 3): -1.0})
    couplings = model.coupling_matrix()
    spins = np.ones((3, 4))
    local = spins @ couplings + model.local_fields()
    energies = model.energies(spins)
    before = (spins.copy(), local.copy(), energies.copy())
    shipped = SimulatedAnnealingSolver(seed=5)
    reference = _ReferenceSweepSolver(seed=5)
    assert shipped._sweep(spins, local, couplings, 1e3, energies) == 0
    assert reference._sweep(spins.copy(), local.copy(), couplings,
                            1e3) == 0
    for after, expected in zip((spins, local, energies), before):
        assert np.array_equal(after, expected)
    assert shipped._rng.random(4).tolist() == \
        reference._rng.random(4).tolist()

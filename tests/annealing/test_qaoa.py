"""Tests for the QAOA solver."""

import math

import numpy as np
import pytest

from repro.annealing import (
    QAOASolver,
    QUBO,
    IsingModel,
    approximation_ratio,
    basis_energies,
    bits_to_spins,
    qaoa_circuit,
    solve_ising_exact,
)
from repro.annealing.qaoa import _qaoa_state
from repro.annealing.results import Sample, SampleSet
from repro.db import IndexSelectionProblem, IndexSelectionQUBO
from repro.quantum import StatevectorSimulator
from repro.quantum.gates import rx_matrix
from repro.quantum.statevector import apply_matrix
from repro.telemetry.progress import ProgressTrace


@pytest.fixture(scope="module")
def triangle_maxcut():
    """MaxCut on a triangle as an Ising model: J = +1 on each edge."""
    return IsingModel(3, j={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})


def test_qaoa_circuit_structure(triangle_maxcut):
    qc = qaoa_circuit(triangle_maxcut, gammas=[0.3], betas=[0.2])
    ops = qc.count_ops()
    assert ops["h"] == 3
    assert ops["rzz"] == 3
    assert ops["rx"] == 3


def test_qaoa_circuit_depth_two_layers(triangle_maxcut):
    qc = qaoa_circuit(triangle_maxcut, gammas=[0.3, 0.1], betas=[0.2, 0.4])
    assert qc.count_ops()["rzz"] == 6


def test_qaoa_circuit_angle_length_mismatch(triangle_maxcut):
    with pytest.raises(ValueError):
        qaoa_circuit(triangle_maxcut, gammas=[0.1], betas=[0.1, 0.2])


def test_basis_energies_match_model():
    model = IsingModel(2, h={0: 0.5}, j={(0, 1): -1.0})
    energies = basis_energies(model)
    # index 0 = |00> = spins (+1, +1): E = 0.5 - 1 = -0.5
    assert energies[0] == pytest.approx(-0.5)
    # index 3 = |11> = spins (-1, -1): E = -0.5 - 1 = -1.5
    assert energies[3] == pytest.approx(-1.5)


def _all_spins(num_spins):
    """Every configuration, one row per basis index (qubit 0 = MSB)."""
    indices = np.arange(2 ** num_spins)[:, None]
    bits = (indices >> np.arange(num_spins - 1, -1, -1)) & 1
    return 1 - 2 * bits


def _signed_zero_model():
    model = IsingModel(3, h={0: 0.25, 2: -1.0}, j={(0, 1): 0.5},
                       offset=-0.75)
    model.h[1] = -0.0
    model.j[(1, 2)] = -0.0
    return model


@pytest.mark.parametrize("model", [
    IsingModel(4, h={0: 0.5, 2: -1.25},
               j={(0, 1): -1.0, (1, 3): 0.75, (2, 3): 2.0}, offset=1.5),
    IsingModel.random(10, density=0.6, field_scale=0.5, seed=3),
    IsingModel(3),
    _signed_zero_model(),
], ids=["fields-couplings-offset", "random-10", "empty", "signed-zero"])
def test_basis_energies_match_vectorized_model_energies(model):
    expected = model.energies(_all_spins(model.num_spins))
    actual = basis_energies(model)
    scale = max(1.0, float(np.abs(expected).max()))
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= 1e-14 * scale


def test_qaoa_sample_energy_is_that_of_its_assignment():
    """Samples carry x = (1 + s) / 2 bits, like every other solver.

    The Ising model needs nonzero fields: a zero-field spectrum is
    symmetric under flipping every spin, which would hide a sample
    labelled with the complement of its assignment.
    """
    qubo = (QUBO(3).add_linear(0, 1.0).add_linear(2, -0.5)
            .add_quadratic(0, 1, -3.0).add_quadratic(1, 2, 2.0))
    ising = IsingModel(3, h={0: 0.7, 1: -0.4},
                       j={(0, 1): 1.0, (1, 2): -0.6})
    for model, energy in ((qubo, qubo.energy),
                          (ising, lambda x: ising.energy(bits_to_spins(x)))):
        result = QAOASolver(p=1, restarts=1, seed=5).solve(model)
        assert len(result.samples) > 1
        for sample in result.samples:
            assert sample.energy == pytest.approx(
                energy(sample.assignment), abs=1e-12)


# ----------------------------------------------------------------------
# Fixed-angle parity: the diagonal-phase state vs the circuit reference
# ----------------------------------------------------------------------
def _fields_only():
    # (0, 1) and (1, 0) cancel to a zero-valued coupling entry.
    return IsingModel(4, h={0: 0.8, 1: -0.3, 2: 1.1, 3: -0.6},
                      j={(0, 1): 0.5, (1, 0): -0.5}, offset=0.4)


def _clique_with_fields():
    model = IsingModel.random(10, density=1.0, field_scale=0.5, seed=21)
    model.h[0] = 0.0
    return model


def _index_selection():
    problem = IndexSelectionProblem.random(4, seed=2)
    return IndexSelectionQUBO(problem).compile().model.to_ising()


PARITY_MODELS = {
    "triangle-maxcut": lambda: IsingModel(
        3, j={(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}),
    "fields-only": _fields_only,
    "clique-10-fields": _clique_with_fields,
    "index-selection": _index_selection,
}


def _circuit_state(model, gammas, betas):
    return StatevectorSimulator().run(qaoa_circuit(model, gammas, betas))


def _without_global_phase(state, reference):
    overlap = np.vdot(state, reference)
    return state * (overlap / abs(overlap))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PARITY_MODELS))
def test_diagonal_state_matches_circuit_at_fixed_angles(name, p):
    model = PARITY_MODELS[name]()
    angles = np.random.default_rng(p).uniform(0.0, math.pi, 2 * p)
    gammas, betas = angles[:p], angles[p:]
    energies = basis_energies(model)
    reference = _circuit_state(model, gammas, betas)
    state = _qaoa_state(energies, gammas, betas)

    aligned = _without_global_phase(state, reference)
    assert np.abs(aligned - reference).max() <= 1e-10
    tolerance = 1e-10 * float(np.abs(energies).max())
    probabilities = np.abs(state) ** 2
    reference_probabilities = np.abs(reference) ** 2
    assert abs(probabilities @ energies
               - reference_probabilities @ energies) <= tolerance

    def shots(probs):
        solver = QAOASolver(shots=256, seed=11)
        return solver._sample(probs / probs.sum(), energies,
                              model.num_spins).samples

    assert shots(probabilities) == shots(reference_probabilities)


def _per_qubit_state(energies, gammas, betas):
    """The mixer as one ``rx`` update per qubit (the reference path)."""
    n = energies.size.bit_length() - 1
    state = np.full(energies.size, 2.0 ** (-n / 2), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        state *= np.exp(-1j * gamma * energies)
        # Optimizer angles never repeat, so the mixer skips the LRU
        # behind gate_matrix: caching them would only evict its entries.
        mixer = rx_matrix(2.0 * beta)
        for q in range(n):
            state = apply_matrix(state, mixer, (q,), n)
    return state


@pytest.mark.parametrize("num_qubits", range(1, 17))
def test_factored_mixer_matches_per_qubit_updates(num_qubits):
    """Kronecker-factor mixers agree with one ``rx`` per qubit: one
    factor (1-5 qubits), equal factors (6, 8, 10, 12, 15, 16), unequal
    ones (7, 9, 11, 13, 14), and zgemm blocks from 11 qubits on."""
    rng = np.random.default_rng(num_qubits)
    for p in (1, 2, 3):
        energies = rng.normal(scale=3.0, size=2 ** num_qubits)
        untouched = energies.copy()
        angles = rng.uniform(0.0, math.pi, 2 * p)
        state = _qaoa_state(energies, angles[:p], angles[p:])
        reference = _per_qubit_state(energies, angles[:p], angles[p:])
        assert state.shape == (2 ** num_qubits,)
        assert state.dtype == complex
        assert state.flags.c_contiguous
        again = _qaoa_state(energies, angles[:p], angles[p:])
        assert not np.shares_memory(state, energies)
        assert not np.shares_memory(state, again)
        assert np.array_equal(state, again)
        assert np.array_equal(energies, untouched)
        assert np.abs(state - reference).max() <= 1e-14


@pytest.mark.parametrize("name", sorted(PARITY_MODELS))
def test_first_convergence_row_matches_circuit(name):
    """The solver's first evaluation sits at the circuit path's start
    angles: the seeded random stream is unchanged."""
    model = PARITY_MODELS[name]()
    p, seed = 2, 17
    progress = ProgressTrace()
    QAOASolver(p=p, restarts=1, maxiter=6, shots=8, seed=seed,
               progress=progress).solve(model)
    rng = np.random.default_rng(seed)
    rng.integers(2 ** 31)
    gammas = rng.uniform(0, math.pi, p)
    betas = rng.uniform(0, math.pi / 2, p)
    energies = basis_energies(model)
    reference = np.abs(_circuit_state(model, gammas, betas)) ** 2 @ energies
    first = progress.rows()[0]["current_energy"]
    assert abs(first - reference) <= 1e-10 * float(np.abs(energies).max())


def test_qaoa_improves_over_random_guessing(triangle_maxcut):
    result = QAOASolver(p=1, restarts=2, seed=0).solve(triangle_maxcut)
    energies = basis_energies(triangle_maxcut)
    random_expectation = float(energies.mean())
    assert result.expectation < random_expectation


def test_qaoa_samples_reach_ground_state(triangle_maxcut):
    result = QAOASolver(p=2, restarts=3, shots=512, seed=1).solve(
        triangle_maxcut
    )
    _, exact = solve_ising_exact(triangle_maxcut)
    assert result.samples.best_energy == pytest.approx(exact)


def test_qaoa_ratio_increases_with_depth(triangle_maxcut):
    shallow = QAOASolver(p=1, restarts=3, seed=2).solve(triangle_maxcut)
    deep = QAOASolver(p=3, restarts=3, seed=2).solve(triangle_maxcut)
    assert deep.approximation_ratio >= shallow.approximation_ratio - 0.02


def test_qaoa_accepts_qubo_input():
    q = QUBO(2).add_linear(0, 1.0).add_quadratic(0, 1, -3.0)
    result = QAOASolver(p=1, restarts=2, seed=3).solve(q)
    assert result.samples.best.assignment in {(1, 1), (0, 0), (0, 1), (1, 0)}


def test_qaoa_validates_args():
    with pytest.raises(ValueError):
        QAOASolver(p=0)
    with pytest.raises(ValueError):
        QAOASolver(optimizer="bfgs")
    with pytest.raises(ValueError):
        QAOASolver(restarts=0)
    for name, value in (("p", 2.5), ("shots", 2.5), ("shots", 0),
                        ("shots", -3), ("restarts", True),
                        ("maxiter", 0), ("p", True), ("maxiter", 1.0)):
        with pytest.raises(ValueError, match=name):
            QAOASolver(**{name: value})
    solver = QAOASolver(p=np.int64(2), restarts=np.int32(1),
                        shots=np.int64(8), maxiter=np.int16(8), seed=0)
    result = solver.solve(IsingModel(2, j={(0, 1): 1.0}))
    assert result.gammas.size == 2
    assert sum(s.num_occurrences for s in result.samples) == 8


def _loop_sample(solver, probabilities, energies, num_spins):
    """``QAOASolver._sample`` as one Python loop per distinct outcome
    (the reference for the vectorized bit extraction)."""
    outcomes = solver._rng.choice(
        probabilities.size, size=solver.shots, p=probabilities
    )
    samples = []
    for outcome, count in zip(*np.unique(outcomes, return_counts=True)):
        bits = tuple(
            1 - ((int(outcome) >> (num_spins - 1 - q)) & 1)
            for q in range(num_spins)
        )
        samples.append(Sample(bits, float(energies[outcome]), int(count)))
    return SampleSet(samples)


@pytest.mark.parametrize("num_spins", [1, 3, 9, 14])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_sample_matches_per_outcome_loop(num_spins, seed):
    rng = np.random.default_rng(seed)
    energies = rng.normal(size=2 ** num_spins)
    probabilities = rng.exponential(size=2 ** num_spins) ** 4
    probabilities /= probabilities.sum()
    shipped = QAOASolver(shots=256, seed=seed)._sample(
        probabilities, energies, num_spins)
    reference = _loop_sample(QAOASolver(shots=256, seed=seed),
                             probabilities, energies, num_spins)
    assert shipped.samples == reference.samples
    for sample in shipped.samples:
        assert {type(bit) for bit in sample.assignment} == {int}
        assert type(sample.energy) is float
        assert type(sample.num_occurrences) is int


def test_approximation_ratio_bounds():
    energies = np.array([-2.0, 0.0, 3.0])
    assert approximation_ratio(-2.0, energies) == pytest.approx(1.0)
    assert approximation_ratio(3.0, energies) == pytest.approx(0.0)
    assert approximation_ratio(0.5, energies) == pytest.approx(0.5)


def test_approximation_ratio_degenerate_spectrum():
    assert approximation_ratio(1.0, np.array([1.0, 1.0])) == 1.0


def test_qaoa_nelder_mead_also_works(triangle_maxcut):
    result = QAOASolver(p=1, optimizer="nelder-mead", restarts=1,
                        seed=4).solve(triangle_maxcut)
    assert result.nfev > 0
    assert result.gammas.size == 1

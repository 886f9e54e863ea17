"""Unit tests for Pauli observables."""

import itertools

import numpy as np
import pytest

from repro.quantum import (
    Circuit,
    PauliString,
    PauliSum,
    StatevectorSimulator,
    ising_hamiltonian,
    single_z,
    zz,
)

from repro.quantum.gates import PAULI_Z
from repro.quantum.statevector import apply_matrix, apply_matrix_batch

SIM = StatevectorSimulator()


def test_label_validation():
    with pytest.raises(ValueError):
        PauliString("XQ")
    with pytest.raises(ValueError):
        PauliString("")


def test_identity_detection():
    assert PauliString("II").is_identity
    assert not PauliString("IZ").is_identity


def test_support():
    assert PauliString("IXZI").support() == (1, 2)


def test_matrix_single_z():
    assert np.allclose(PauliString("Z").matrix(), np.diag([1, -1]))


def test_matrix_tensor_order():
    # "ZI" means Z on qubit 0 (most significant): diag(1,1,-1,-1).
    assert np.allclose(np.diag(PauliString("ZI").matrix()), [1, 1, -1, -1])
    assert np.allclose(np.diag(PauliString("IZ").matrix()), [1, -1, 1, -1])


def test_coefficient_scaling():
    scaled = 2.5 * PauliString("X")
    assert scaled.coefficient == 2.5
    assert np.allclose(scaled.matrix(), 2.5 * PauliString("X").matrix())


def test_expectation_z_on_zero_state():
    assert SIM.expectation(Circuit(1), PauliString("Z")) == pytest.approx(1.0)


def test_expectation_z_on_one_state():
    assert SIM.expectation(Circuit(1).x(0), PauliString("Z")) == pytest.approx(-1.0)


def test_expectation_x_on_plus_state():
    assert SIM.expectation(Circuit(1).h(0), PauliString("X")) == pytest.approx(1.0)


def test_expectation_y():
    # S H |0> is the +i eigenstate of Y... actually H then S gives |+i>.
    qc = Circuit(1).h(0).s(0)
    assert SIM.expectation(qc, PauliString("Y")) == pytest.approx(1.0)


def test_expectation_zz_on_bell_state():
    qc = Circuit(2).h(0).cx(0, 1)
    assert SIM.expectation(qc, PauliString("ZZ")) == pytest.approx(1.0)
    assert SIM.expectation(qc, PauliString("XX")) == pytest.approx(1.0)
    assert SIM.expectation(qc, PauliString("IZ")) == pytest.approx(0.0)


def test_apply_matches_matrix():
    rng = np.random.default_rng(3)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    term = PauliString("XYZ", 0.7)
    assert np.allclose(term.apply(state), term.matrix() @ state)


def dense_apply(term, state):
    """``PauliString.apply`` as it was for every label: one dense 2x2
    update per non-identity factor."""
    out = np.asarray(state, dtype=complex)
    apply = apply_matrix if out.ndim == 1 else apply_matrix_batch
    for qubit, char in enumerate(term.label):
        if char == "Z":
            out = apply(out, PAULI_Z, (qubit,), term.num_qubits)
    return term.coefficient * out


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_z_strings_apply_as_the_dense_factors_do(num_qubits):
    rng = np.random.default_rng(num_qubits)
    dim = 2 ** num_qubits
    single = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    batch = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
    for label in map("".join, itertools.product("IZ", repeat=num_qubits)):
        coefficient = complex(*rng.normal(size=2))
        for term in (PauliString(label), PauliString(label, coefficient)):
            for state in (single, batch):
                assert np.array_equal(term.apply(state),
                                      dense_apply(term, state))
            assert term.expectation(single) == float(
                np.vdot(single, dense_apply(term, single)).real)
            assert np.array_equal(
                term.expectation(batch),
                np.einsum("ij,ij->i", batch.conj(),
                          dense_apply(term, batch)).real)


def test_pauli_sum_qubit_mismatch():
    with pytest.raises(ValueError):
        PauliSum([PauliString("Z"), PauliString("ZZ")])
    with pytest.raises(ValueError):
        PauliSum([PauliString("Z")]).add(PauliString("ZZ"))


def test_pauli_sum_expectation_linear():
    obs = PauliSum([PauliString("Z", 2.0), PauliString("X", 3.0)])
    assert SIM.expectation(Circuit(1), obs) == pytest.approx(2.0)
    assert SIM.expectation(Circuit(1).h(0), obs) == pytest.approx(3.0)


def test_pauli_sum_arithmetic():
    a = PauliSum([PauliString("Z")])
    b = PauliSum([PauliString("X")])
    combined = (a + b) * 2.0
    assert len(combined) == 2
    assert combined.terms[0].coefficient == 2.0


def test_simplify_merges_and_drops():
    total = PauliSum([
        PauliString("Z", 1.0),
        PauliString("Z", 2.0),
        PauliString("X", 1e-15),
    ]).simplify()
    assert len(total) == 1
    assert total.terms[0].coefficient == pytest.approx(3.0)


def test_single_z_and_zz_helpers():
    assert single_z(1, 3).label == "IZI"
    assert zz(0, 2, 3).label == "ZIZ"
    with pytest.raises(ValueError):
        zz(1, 1, 3)


def test_expectation_from_counts_diagonal():
    obs = PauliSum([PauliString("ZI", 1.0), PauliString("IZ", 1.0)])
    counts = {"00": 50, "11": 50}
    assert obs.expectation_from_counts(counts) == pytest.approx(0.0)
    counts = {"00": 100}
    assert obs.expectation_from_counts(counts) == pytest.approx(2.0)


def test_expectation_from_counts_rejects_offdiagonal():
    obs = PauliSum([PauliString("XI")])
    with pytest.raises(ValueError):
        obs.expectation_from_counts({"00": 1})


def test_expectation_from_counts_rejects_empty():
    obs = PauliSum([PauliString("ZI")])
    with pytest.raises(ValueError):
        obs.expectation_from_counts({})


def test_ising_hamiltonian_groundstate():
    # H = -Z0 Z1: ground states are |00> and |11> with energy -1.
    ham = ising_hamiltonian({}, {(0, 1): -1.0}, num_qubits=2)
    matrix = ham.matrix()
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert eigenvalues[0] == pytest.approx(-1.0)


def test_ising_hamiltonian_constant_term():
    ham = ising_hamiltonian({0: 0.5}, {}, num_qubits=1, constant=2.0)
    assert SIM.expectation(Circuit(1), ham) == pytest.approx(2.5)


def test_ising_hamiltonian_skips_zero_coefficients():
    ham = ising_hamiltonian({0: 0.0}, {(0, 1): 0.0}, num_qubits=2)
    assert len(ham) == 0

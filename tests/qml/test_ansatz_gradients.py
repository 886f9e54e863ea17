"""Tests for ansatz builders and parameter-shift gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qml.ansatz import (
    build_ansatz,
    hardware_efficient_ansatz,
    strongly_entangling_ansatz,
    two_local_ansatz,
)
from repro.qml import gradients
from repro.qml.encoding import AmplitudeEncoding, AngleEncoding
from repro.qml.gradients import (
    expectation_function,
    finite_difference_gradient,
    parameter_shift_gradient,
)
from repro.quantum import Circuit, Parameter, PauliString, PauliSum, single_z


# ----------------------------------------------------------------------
# Ansatz builders
# ----------------------------------------------------------------------
def test_hea_parameter_count():
    qc, params = hardware_efficient_ansatz(3, 2, rotations=("ry", "rz"))
    assert len(params) == 12
    assert qc.num_parameters == 12


def test_hea_entangler_count():
    qc, _ = hardware_efficient_ansatz(4, 3)
    assert qc.count_ops()["cx"] == 3 * 3


def test_hea_cz_entangler():
    qc, _ = hardware_efficient_ansatz(3, 1, entangler="cz")
    assert "cz" in qc.count_ops()


def test_hea_single_qubit_no_entanglers():
    qc, _ = hardware_efficient_ansatz(1, 2)
    assert "cx" not in qc.count_ops()


def test_hea_rejects_bad_rotation():
    with pytest.raises(ValueError):
        hardware_efficient_ansatz(2, 1, rotations=("h",))


def test_hea_rejects_bad_entangler():
    with pytest.raises(ValueError):
        hardware_efficient_ansatz(2, 1, entangler="swap")


def test_strongly_entangling_parameter_count():
    _, params = strongly_entangling_ansatz(4, 2)
    assert len(params) == 3 * 2 * 4


def test_strongly_entangling_ring():
    qc, _ = strongly_entangling_ansatz(4, 1)
    assert qc.count_ops()["cx"] == 4


def test_two_local_parameter_count():
    _, params = two_local_ansatz(3, 2)
    # 2 layers * (3 ry + 2 rzz) + 3 final ry
    assert len(params) == 2 * 5 + 3


def test_build_ansatz_lookup():
    qc, params = build_ansatz("hardware_efficient", 2, 1)
    assert qc.num_qubits == 2
    with pytest.raises(KeyError):
        build_ansatz("nonexistent", 2, 1)


@pytest.mark.parametrize("builder", [
    hardware_efficient_ansatz,
    strongly_entangling_ansatz,
    two_local_ansatz,
])
def test_builders_validate_args(builder):
    with pytest.raises(ValueError):
        builder(0, 1)
    with pytest.raises(ValueError):
        builder(2, 0)


@pytest.mark.parametrize("name", [
    "hardware_efficient", "strongly_entangling", "two_local",
])
def test_ansatz_parameters_unique(name):
    qc, params = build_ansatz(name, 3, 2)
    assert len({id(p) for p in params}) == len(params)
    assert qc.parameters == params


# ----------------------------------------------------------------------
# Gradients
# ----------------------------------------------------------------------
def test_shift_gradient_matches_analytic_single_gate():
    theta = Parameter("theta")
    qc = Circuit(1).rx(theta, 0)
    obs = PauliSum([single_z(0, 1)])
    # <Z> = cos(theta); d/dtheta = -sin(theta)
    for value in (0.0, 0.4, 1.3, 3.0):
        grad = parameter_shift_gradient(qc, obs, [value])
        assert grad[0] == pytest.approx(-np.sin(value), abs=1e-9)


def test_shift_gradient_shared_parameter():
    theta = Parameter("theta")
    qc = Circuit(1).rx(theta, 0).rx(theta, 0)
    obs = PauliSum([single_z(0, 1)])
    # <Z> = cos(2 theta); derivative -2 sin(2 theta)
    grad = parameter_shift_gradient(qc, obs, [0.3])
    assert grad[0] == pytest.approx(-2.0 * np.sin(0.6), abs=1e-9)


def test_shift_gradient_scaled_parameter():
    theta = Parameter("theta")
    qc = Circuit(1).rx(3.0 * theta, 0)
    obs = PauliSum([single_z(0, 1)])
    grad = parameter_shift_gradient(qc, obs, [0.2])
    assert grad[0] == pytest.approx(-3.0 * np.sin(0.6), abs=1e-9)


def test_shift_gradient_value_count_mismatch():
    qc = Circuit(1).rx(Parameter("a"), 0)
    obs = PauliSum([single_z(0, 1)])
    with pytest.raises(ValueError):
        parameter_shift_gradient(qc, obs, [0.1, 0.2])


def test_shift_gradient_fallback_for_phase_gate():
    lam = Parameter("lam")
    qc = Circuit(1).h(0).p(lam, 0).h(0)
    obs = PauliSum([single_z(0, 1)])
    # <Z> after H P(l) H on |0> = cos(l)... verify vs finite differences.
    f = expectation_function(qc, obs)
    grad = parameter_shift_gradient(qc, obs, [0.7])
    fd = finite_difference_gradient(f, [0.7])
    assert grad[0] == pytest.approx(fd[0], abs=1e-4)


def test_expectation_function_evaluates():
    theta = Parameter("theta")
    qc = Circuit(1).ry(theta, 0)
    f = expectation_function(qc, PauliSum([single_z(0, 1)]))
    assert f([0.0]) == pytest.approx(1.0)
    assert f([np.pi]) == pytest.approx(-1.0)


def test_finite_difference_on_polynomial():
    grad = finite_difference_gradient(
        lambda v: v[0] ** 2 + 3 * v[1], [2.0, 5.0]
    )
    assert grad[0] == pytest.approx(4.0, abs=1e-4)
    assert grad[1] == pytest.approx(3.0, abs=1e-4)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_property_shift_matches_finite_difference(seed):
    """Parameter shift equals finite differences on random ansätze."""
    rng = np.random.default_rng(seed)
    qc, params = build_ansatz("hardware_efficient", 2, 1)
    obs = PauliSum([single_z(0, 2), PauliString("ZZ", 0.5)])
    values = rng.uniform(0, 2 * np.pi, size=len(params))
    analytic = parameter_shift_gradient(qc, obs, values)
    numeric = finite_difference_gradient(
        expectation_function(qc, obs), values
    )
    assert np.allclose(analytic, numeric, atol=1e-5)


# ----------------------------------------------------------------------
# Batched gradients: one row per circuit, equal to per-circuit calls
# ----------------------------------------------------------------------
def assert_batch_matches_single(circuits, observable, values):
    batched = parameter_shift_gradient(circuits, observable, values)
    single = np.stack([parameter_shift_gradient(c, observable, values)
                       for c in circuits])
    assert single.shape == batched.shape == (len(circuits), len(values))
    assert np.abs(batched - single).max() < 1e-12
    return batched


def test_batched_gradient_angle_encoded_rows():
    ansatz, params = hardware_efficient_ansatz(3, 2)
    encoding = AngleEncoding(3)
    rows = np.random.default_rng(1).uniform(-1, 1, size=(5, 3))
    circuits = [encoding.circuit(x).compose(ansatz) for x in rows]
    values = np.random.default_rng(2).uniform(-np.pi, np.pi, len(params))
    obs = PauliSum([single_z(0, 3), PauliString("XZY", 0.3)])
    assert_batch_matches_single(circuits, obs, values)


def test_batched_gradient_data_reuploading():
    ansatz, params = hardware_efficient_ansatz(2, 1)
    encoding = AngleEncoding(2)
    rows = np.random.default_rng(3).uniform(-1, 1, size=(4, 2))
    # Each weight occurs twice: data, ansatz, data, ansatz.
    circuits = []
    for x in rows:
        data = encoding.circuit(x)
        circuits.append(data.compose(ansatz).compose(data).compose(ansatz))
    values = np.random.default_rng(4).uniform(-np.pi, np.pi, len(params))
    assert_batch_matches_single(circuits, PauliSum([single_z(0, 2)]),
                                values)


def test_batched_gradient_scaled_parameter():
    theta = Parameter("theta")
    circuits = [Circuit(1).ry(x, 0).rx(3.0 * theta, 0)
                for x in (0.1, 0.9, -1.4)]
    batched = assert_batch_matches_single(
        circuits, PauliSum([single_z(0, 1)]), [0.2])
    # <Z> = cos(x) cos(3 theta): d/dtheta = -3 cos(x) sin(3 theta)
    expected = [-3.0 * np.cos(x) * np.sin(0.6) for x in (0.1, 0.9, -1.4)]
    assert np.allclose(batched[:, 0], expected, atol=1e-9)


def test_batched_gradient_phase_gate_fallback():
    lam = Parameter("lam")
    circuits = [Circuit(1).ry(x, 0).p(lam, 0).h(0) for x in (0.3, 1.1)]
    assert_batch_matches_single(circuits, PauliSum([single_z(0, 1)]),
                                [0.7])


def test_batched_gradient_amplitude_rows_differ_in_structure():
    ansatz, params = hardware_efficient_ansatz(2, 1)
    encoding = AmplitudeEncoding(4)
    rows = [[0.3, 0.5, 0.7, 0.2], [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]]
    circuits = [encoding.circuit(x).compose(ansatz) for x in rows]
    assert len({len(c) for c in circuits}) == 3  # near-zero RYs dropped
    values = np.random.default_rng(5).uniform(-np.pi, np.pi, len(params))
    assert_batch_matches_single(circuits, PauliSum([single_z(1, 2)]),
                                values)


def test_batched_gradient_spans_several_blocks():
    ansatz, params = hardware_efficient_ansatz(10, 1, rotations=("ry",))
    encoding = AngleEncoding(10)
    rows = np.random.default_rng(6).uniform(-1, 1, size=(7, 10))
    circuits = [encoding.circuit(x).compose(ansatz) for x in rows]
    # A circuit's trunk and 20 forks are 21 columns of 2**10
    # amplitudes; the blocks hold whole circuits, the last one fewer.
    per_block = gradients._BLOCK_AMPLITUDES // (21 << 10)
    assert 1 < per_block < len(circuits) and len(circuits) % per_block
    values = np.random.default_rng(7).uniform(-np.pi, np.pi, len(params))
    obs = PauliSum([single_z(0, 10), single_z(9, 10, 0.5)])
    assert_batch_matches_single(circuits, obs, values)


def test_batched_gradient_same_structure_other_parameter_slots():
    a, b = Parameter("a"), Parameter("b")
    circuits = [Circuit(1).ry(a, 0).rx(0.3, 0).ry(b, 0),
                Circuit(1).ry(a, 0).rx(b, 0).ry(b, 0)]
    assert_batch_matches_single(circuits, PauliSum([single_z(0, 1)]),
                                [0.4, -1.1])


def test_batched_gradient_rejects_different_parameter_lists():
    a, b = Parameter("a"), Parameter("b")
    obs = PauliSum([single_z(0, 1)])
    with pytest.raises(ValueError):
        parameter_shift_gradient([Circuit(1).ry(a, 0), Circuit(1).ry(b, 0)],
                                 obs, [0.1])
    with pytest.raises(ValueError):  # same parameters, other order
        parameter_shift_gradient(
            [Circuit(1).ry(a, 0).rx(b, 0), Circuit(1).rx(b, 0).ry(a, 0)],
            obs, [0.1, 0.2])
    with pytest.raises(ValueError):
        parameter_shift_gradient([], obs, [])

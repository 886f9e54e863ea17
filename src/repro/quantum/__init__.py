"""Gate-model quantum computing substrate.

A self-contained circuit IR plus exact statevector and density-matrix
simulators, the foundation every QML component in this library runs on.
"""

from .circuit import Circuit, Instruction, Parameter, ParameterExpression, parameter_vector
from .grover import (
    GroverResult,
    grover_minimum_search,
    grover_search,
    grover_search_predicate,
    optimal_iterations,
)
from .amplitude_estimation import (
    AmplitudeEstimationResult,
    amplitude_estimation,
    classical_sample_estimate,
    quantum_counting,
)
from .hhl import HHLResult, classical_reference, hhl_solve
from .swap_test import swap_test_circuit, swap_test_overlap
from .phase_estimation import (
    PhaseEstimationResult,
    phase_estimation,
    phase_from_eigenvalue,
)
from .qft import inverse_qft_circuit, qft_circuit, qft_matrix
from .serialization import circuit_from_qasm, circuit_to_qasm
from .tomography import (
    TomographyResult,
    project_to_physical,
    reconstruction_error,
    state_tomography,
)
from .transpile import (
    cancel_adjacent_inverses,
    merge_rotations,
    optimize_circuit,
    remove_identities,
)
from .density import DensityMatrixSimulator, purity, von_neumann_entropy
from .gates import gate_matrix, is_unitary, controlled
from .measurement import expectation_with_shots
from .mitigation import (
    ReadoutMitigator,
    ZNEResult,
    fold_circuit,
    zero_noise_extrapolation,
)
from .noise import (
    NoiseModel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    phase_damping_channel,
    phase_flip_channel,
)
from .operators import PauliString, PauliSum, ising_hamiltonian, single_z, zz
from .random_circuits import random_layered_circuit, random_statevector
from .statevector import (
    StatevectorSimulator,
    apply_diagonal_batch,
    apply_matrix,
    apply_matrix_batch,
    basis_state,
    fidelity,
    gate_angles,
    marginal_probabilities,
    zero_state,
)

__all__ = [
    "Circuit",
    "GroverResult",
    "grover_minimum_search",
    "grover_search",
    "grover_search_predicate",
    "optimal_iterations",
    "AmplitudeEstimationResult",
    "amplitude_estimation",
    "classical_sample_estimate",
    "quantum_counting",
    "swap_test_circuit",
    "swap_test_overlap",
    "HHLResult",
    "classical_reference",
    "hhl_solve",
    "PhaseEstimationResult",
    "phase_estimation",
    "phase_from_eigenvalue",
    "inverse_qft_circuit",
    "qft_circuit",
    "qft_matrix",
    "circuit_from_qasm",
    "circuit_to_qasm",
    "TomographyResult",
    "project_to_physical",
    "reconstruction_error",
    "state_tomography",
    "cancel_adjacent_inverses",
    "merge_rotations",
    "optimize_circuit",
    "remove_identities",
    "Instruction",
    "Parameter",
    "ParameterExpression",
    "parameter_vector",
    "DensityMatrixSimulator",
    "purity",
    "von_neumann_entropy",
    "gate_matrix",
    "is_unitary",
    "controlled",
    "expectation_with_shots",
    "ReadoutMitigator",
    "ZNEResult",
    "fold_circuit",
    "zero_noise_extrapolation",
    "NoiseModel",
    "amplitude_damping_channel",
    "bit_flip_channel",
    "depolarizing_channel",
    "phase_damping_channel",
    "phase_flip_channel",
    "PauliString",
    "PauliSum",
    "ising_hamiltonian",
    "single_z",
    "zz",
    "random_layered_circuit",
    "random_statevector",
    "StatevectorSimulator",
    "apply_diagonal_batch",
    "apply_matrix",
    "apply_matrix_batch",
    "basis_state",
    "fidelity",
    "gate_angles",
    "marginal_probabilities",
    "zero_state",
]

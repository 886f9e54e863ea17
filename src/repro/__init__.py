"""repro — Quantum machine learning for database research.

A from-scratch reproduction of the system surface of the SIGMOD 2023
tutorial "Quantum Machine Learning: Foundation, New Techniques, and
Opportunities for Database Research":

* :mod:`repro.quantum` — circuit IR + statevector / density-matrix
  simulators, noise channels, Pauli observables.
* :mod:`repro.qml` — encodings, ansätze, parameter-shift gradients,
  optimizers, variational models, quantum kernels, barren-plateau
  diagnostics.
* :mod:`repro.annealing` — QUBO/Ising modelling, simulated (quantum)
  annealing, tabu, exact solvers, QAOA.
* :mod:`repro.compile` — the problem-compilation IR
  (:class:`~repro.compile.CompiledProblem`, constraint primitives,
  analytic penalty weights) and the string-addressable solver
  registry behind ``repro.compile.solve``.
* :mod:`repro.db` — relational substrate and the QUBO formulations of
  join ordering, multiple-query optimization, index selection and
  transaction scheduling, plus learned cardinality estimation.
* :mod:`repro.baselines` — from-scratch classical ML baselines.
* :mod:`repro.datasets` — synthetic dataset generators.
* :mod:`repro.experiments` — runners regenerating every experiment in
  DESIGN.md.
* :mod:`repro.telemetry` — one metrics registry (counters, gauges,
  histograms, span timings), event tracing and run-provenance records
  across all of the above (off by default; see
  ``repro.telemetry.observe`` / ``REPRO_OBSERVE=metrics``).
"""

# Single source of truth for the package version; pyproject.toml reads
# it via ``[tool.setuptools.dynamic]``. Keep it a plain literal so
# setuptools can extract it statically without importing the package.
__version__ = "1.1.0"

from . import (
    annealing,
    baselines,
    compile,
    datasets,
    db,
    experiments,
    qml,
    quantum,
    telemetry,
)

__all__ = [
    "annealing",
    "baselines",
    "compile",
    "datasets",
    "db",
    "experiments",
    "qml",
    "quantum",
    "telemetry",
    "__version__",
]

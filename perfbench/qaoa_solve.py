"""``qaoa_solve``: ``repro.compile.solve(problem, "qaoa", config)``
in-process on seed-generated 9-14-qubit database QUBOs.

It bypasses the solve service and the server. Its time goes to
building a QAOA circuit per objective evaluation and applying it gate
by gate in ``StatevectorSimulator.run``. Unit of work: one solve,
rescaled to the nominal machine speed (see ``common``).
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

import numpy as np

from common import (
    LayerClock,
    Outcome,
    at_nominal_speed,
    count_gates,
    p50,
    peak_rss_mb,
    ratio,
    reference_seconds,
)

#: Each pass solves one problem of every shape, so every run sees the
#: same qubit counts: (kind, size parameters, target qubits, QAOA p).
SHAPES = (
    ("mqo", (3, 3), 9, 1),
    ("mqo", (3, 4), 12, 2),
    ("mqo", (4, 3), 12, 1),
    ("indexsel", (6,), 11, 2),
    ("indexsel", (7,), 12, 1),
    ("indexsel", (8,), 14, 1),
    ("joinorder", (3,), 9, 2),
)
SMOKE_SHAPES = (("mqo", (2, 3), 6, 1), ("joinorder", (3,), 9, 1))
RESTARTS = 2
MAXITER = 16
SHOTS = 256

#: Output-check bands, as approximation ratios (1 at the lowest basis
#: energy, 0 at the highest). The best of the shots must reach
#: MIN_BEST_RATIO (seeds 1-8 give 0.92 or more), and the shots' mean
#: may trail the uniform distribution's by at most MEAN_SLACK (short
#: angle searches on penalty-heavy spectra stay close to uniform).
MIN_BEST_RATIO = 0.85
MEAN_SLACK = 0.05


def _compile(kind: str, size: Tuple[int, ...], seed: int):
    from repro.db.indexsel import IndexSelectionProblem, IndexSelectionQUBO
    from repro.db.mqo import MQOProblem, MQOQUBO
    from repro.db.joinorder import JoinOrderQUBO
    from repro.db.workloads import random_join_graph

    if kind == "mqo":
        instance = MQOProblem.random(size[0], size[1], seed=seed)
        return instance, MQOQUBO(instance).compile()
    if kind == "indexsel":
        instance = IndexSelectionProblem.random(size[0], seed=seed)
        return instance, IndexSelectionQUBO(instance).compile()
    instance = random_join_graph(size[0], "chain", seed=seed)
    return instance, JoinOrderQUBO(instance).compile()


def build_inputs(seed: int, smoke: bool) -> List[tuple]:
    """(kind, instance, compiled problem, p) per shape, from ``seed``.

    Sub-seeds are searched in order until the compiled model has the
    shape's qubit count (index selection's slack width depends on the
    drawn budget), so every seed yields the same widths.
    """
    inputs = []
    for number, (kind, size, qubits, depth) in enumerate(
            SMOKE_SHAPES if smoke else SHAPES):
        for attempt in range(1000):
            sub_seed = seed * 100_003 + number * 1_009 + attempt
            instance, problem = _compile(kind, size, sub_seed)
            if problem.num_variables == qubits:
                break
        else:
            raise RuntimeError(f"no {kind}{size} instance with {qubits} "
                               f"qubits for seed {seed}")
        inputs.append((kind, instance, problem, depth))
    return inputs


def _config(depth: int, seed: int, smoke: bool):
    from repro.compile import SolverConfig

    return SolverConfig(num_sweeps=4 if smoke else MAXITER,
                        num_reads=1 if smoke else RESTARTS, seed=seed,
                        convergence=True,
                        options={"p": depth, "shots": SHOTS})


def _feasible(kind: str, instance, solution) -> bool:
    """Feasibility recomputed from the instance, not the problem hook."""
    if kind == "mqo":
        return (len(solution) == instance.num_queries and all(
            0 <= k < len(costs)
            for k, costs in zip(solution, instance.plan_costs)))
    if kind == "indexsel":
        return (len(set(solution)) == len(solution)
                and instance.total_size(solution) <= instance.budget)
    return sorted(solution.order) == list(range(instance.num_relations))


def check(kind: str, instance, problem, result) -> Tuple[List[str], int]:
    """Validity of one QAOA result (float-tolerant, not a digest).

    Returns the problems found and the number of samples whose energy
    is that of the *complemented* assignment. The QAOA backend labels
    basis states with bit 0 = spin +1 while the QUBO maps
    ``x = (1 + s) / 2``, so its samples arrive bit-complemented; the
    check accepts either labelling and reports the count, so it holds
    before and after that convention is reconciled.
    """
    from repro.annealing.qaoa import basis_energies

    problems = []
    complemented = 0
    for sample in result.samples:
        bits = list(sample.assignment)
        if np.isclose(problem.energy(bits), sample.energy, rtol=1e-9,
                      atol=1e-9):
            continue
        if np.isclose(problem.energy([1 - b for b in bits]),
                      sample.energy, rtol=1e-9, atol=1e-9):
            complemented += 1
            continue
        problems.append(f"sample energy {sample.energy} is not the model "
                        f"energy of its assignment")
        break
    if not (result.feasible and _feasible(kind, instance,
                                          result.solution)):
        problems.append("best solution infeasible")
    # QUBO -> Ising keeps the offset, so the Ising spectrum holds the
    # same energy values the samples carry.
    spectrum = basis_energies(problem.model.to_ising())
    lowest, highest = float(spectrum.min()), float(spectrum.max())
    best_ratio = ratio(highest - result.energy, highest - lowest)
    if best_ratio < MIN_BEST_RATIO:
        problems.append(f"best approximation ratio {best_ratio:.3f} < "
                        f"{MIN_BEST_RATIO}")
    counts = np.array([sample.num_occurrences for sample in result.samples])
    energies = np.array([sample.energy for sample in result.samples])
    mean_ratio = ratio(highest - float(counts @ energies / counts.sum()),
                       highest - lowest)
    uniform_ratio = ratio(highest - float(spectrum.mean()),
                          highest - lowest)
    if mean_ratio < uniform_ratio - MEAN_SLACK:
        problems.append(f"sampled mean ratio {mean_ratio:.3f} trails "
                        f"uniform {uniform_ratio:.3f} by over {MEAN_SLACK}")
    return problems, complemented


def setup_probe(seed: int, smoke: bool) -> None:
    import repro.compile  # noqa: F401 — the entry point's import cost

    build_inputs(seed, smoke)


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> Outcome:
    from repro.annealing import qaoa as qaoa_module
    from repro.compile import solve
    from repro.quantum.statevector import StatevectorSimulator

    inputs = build_inputs(seed, smoke)
    outcome = Outcome()
    clock = LayerClock()
    if traced:
        clock.wrap(qaoa_module, "qaoa_circuit", "circuit_build")
        clock.wrap(StatevectorSimulator, "run", "run",
                   inspect=lambda c, _sim, circuit, *a, **k:
                   count_gates(c, "run_gates", [circuit]))
    #: Solve seconds per shape, one entry per pass: raw and rescaled to
    #: the nominal machine speed.
    raw: List[List[float]] = [[] for _ in inputs]
    nominal: List[List[float]] = [[] for _ in inputs]
    evals = 0
    checked = []
    try:
        before = reference_seconds(3)
        started = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - started < seconds:
            for number, (kind, instance, problem, depth) in enumerate(
                    inputs):
                config = _config(depth, seed * 1000 + passes * 10 + number,
                                 smoke)
                outcome.attempted += 1
                began = time.perf_counter()
                try:
                    result = solve(problem, "qaoa", config)
                except Exception as exc:  # noqa: BLE001 — counted
                    outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
                    continue
                raw[number].append(time.perf_counter() - began)
                after = reference_seconds()
                nominal[number].append(
                    at_nominal_speed(raw[number][-1], before, after))
                before = after
                evals += len(result.convergence or [])
                checked.append((kind, instance, problem, result))
            passes += 1
        outcome.peak_rss_mb = peak_rss_mb([os.getpid()])
    finally:
        clock.restore()
    solve_seconds = [value for values in raw for value in values]

    samples = complemented = 0
    for kind, instance, problem, result in checked:
        problems, flipped = check(kind, instance, problem, result)
        for problem_text in problems:
            outcome.fail(f"{kind}: {problem_text}")
        samples += len(result.samples)
        complemented += flipped

    # A pass's time is the sum of each shape's median over passes, so
    # a burst of machine noise in one pass does not move the rate.
    def solves_per_s(per_shape: List[List[float]]) -> float:
        return ratio(len(inputs), sum(p50(values) for values in per_shape))

    outcome.throughput = solves_per_s(nominal)
    outcome.latency_p50 = p50([value for values in nominal
                               for value in values])
    outcome.named = {
        "qaoa_solves_per_s": (solves_per_s(raw), "1/s"),
        "qaoa_solve_p50_s": (p50(solve_seconds), "s"),
        "qaoa_solves": (len(solve_seconds), "count"),
        "qaoa_complemented_sample_frac":
            (ratio(complemented, samples), "ratio"),
    }
    if traced:
        solve_total = sum(solve_seconds)
        build = clock.seconds["circuit_build"]
        simulate = clock.seconds["run"]
        outcome.layers = {
            "annealing.qaoa.evals": evals,
            "annealing.qaoa.evals_per_s": ratio(evals, solve_total),
            "annealing.qaoa.circuit_build_s.per_eval": ratio(build, evals),
            "annealing.qaoa.residual_frac":
                ratio(solve_total - build - simulate, solve_total),
            "quantum.statevector.run_s.per_eval": ratio(simulate, evals),
            "quantum.statevector.gate_apps_per_s":
                ratio(clock.counts["run_gates"], simulate),
            "quantum.statevector.diagonal_gate_frac":
                ratio(clock.counts["diagonal_gates"],
                      clock.counts["all_gates"]),
        }
    return outcome

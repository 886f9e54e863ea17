"""Batched-vs-loop execution engine benchmark (perf-trajectory gate).

Measures the wall-clock win of the batched execution engine against
faithful re-implementations of the pre-batching Python loops, on two
reference workloads:

* **kernel Gram** — a fidelity-kernel Gram matrix (IQP encoding),
  batched ``Encoding.state_batch`` / ``StatevectorSimulator.run_batch``
  vs one simulator call per data point;
* **SA sweeps** — simulated annealing, read-vectorized ``(reads, n)``
  lock-step sweeps vs the per-read single-spin-flip Python loop;
* **compile dispatch** — the ``repro.compile`` front door
  (``solve(problem, solver="sa", config=...)``) vs calling the same
  seeded backend directly on the compiled model and hand-picking the
  best decode. The gate here is *overhead*, not speedup: dispatch must
  cost < 5% over the direct call;
* **metrics overhead** — the shipped (instrumented) hot paths with the
  live-metrics registry *disabled* vs bare replicas of the same code
  with the instrumentation stripped. This pins the cheap-when-off
  guarantee of ``repro.telemetry.metrics``: fetching ``get_registry()``
  and branching on ``None`` must stay inside the workload's embedded
  ``gate_max_overhead`` budget (2% at full scale). The same record
  covers the whole observability stack's disabled branches — the
  ``repro.compile.solve`` front door (telemetry span + profiler +
  metrics guards) vs a guard-free replica (``frontdoor_overhead``);
* **obs overhead** — the service-throughput batch with the
  trace-context and flight-recorder layers *enabled* vs the identical
  batch with them off: minting contexts, tagging jobs, ring-buffer
  recording and drain attribution must stay under the embedded
  ``gate_max_overhead`` (5% at full scale) with bit-for-bit identical
  results;
* **pipeline throughput** — a generated JOB-style join-order workload
  (``repro.db.workloads``) pushed through the staged
  ``repro.pipeline.OptimizationPipeline`` vs the direct
  compile-then-dispatch loop over the same graphs and configs. The
  gate is overhead: the pre-check / stage-report / plan-assembly
  machinery must cost < 5% over the raw formulation+solve path at
  full scale, with bit-for-bit identical decoded orders;
* **server throughput** — the HTTP front end (``repro.server``) under
  concurrent stdlib clients: a mixed cache-miss/cache-hit soak with
  request-latency quantiles and SSE stream-row lag, a backpressure
  phase against a tiny job queue (the 429 + ``Retry-After`` path must
  shed load without hanging while every accepted job completes).
  Results coming back over HTTP must match a direct in-process solve
  bit for bit.

Timings come from telemetry spans (``perf.<workload>.<impl>``). Run as
a script to write the committed perf trajectory::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py

which writes ``BENCH_perf.json`` (schema ``repro-bench/v1``) at the
repo root. Environment knobs: ``REPRO_PERF_SCALE=smoke`` shrinks every
workload for CI smoke runs, ``REPRO_PERF_JSON`` overrides the output
path. The same workloads also run as pytest benchmarks
(``pytest benchmarks/bench_perf_engine.py -s``) at smoke scale.
"""

import json
import math
import os
import sys
import time

import numpy as np

from repro import telemetry
from repro.annealing import IsingModel, SimulatedAnnealingSolver
from repro.annealing.ising import spins_to_bits
from repro.annealing.results import Sample, SampleSet
from repro.annealing.simulated_annealing import auto_beta_schedule
from repro.compile import SolverConfig
from repro.compile import dispatch as compile_dispatch
from repro.compile import solve as dispatch_solve
from repro.db import JoinOrderQUBO, random_join_graph
from repro.qml import FidelityQuantumKernel, IQPEncoding
from repro.quantum import StatevectorSimulator
from repro.quantum.statevector import (
    _apply_instruction_batch,
    _structurally_identical,
)
from repro.telemetry import context as _tracectx
from repro.telemetry import flight as _flight
from repro.telemetry import metrics as _metrics
from repro.telemetry import profiler as _profiler
from repro.telemetry.bench_schema import (
    BENCH_SCHEMA,
    MAX_DISPATCH_OVERHEAD,
    effective_speedup_floor,
    validate_document,
)

#: Reference scales from the PR-2 issue: the committed BENCH_perf.json
#: must show >= 5x on both workloads at these sizes.
FULL_SCALE = {
    "kernel": {"num_points": 64, "num_features": 6, "depth": 2},
    "sa": {"num_spins": 64, "num_reads": 100, "num_sweeps": 500},
    "compile": {"num_relations": 7, "num_sweeps": 400, "num_reads": 30,
                "repeats": 5},
    "service": {"num_jobs": 8, "num_relations": 7, "num_sweeps": 600,
                "num_reads": 30, "workers": 2,
                "gate_speedup_tolerance": 0.10},
    "metrics": {"num_spins": 48, "num_reads": 60, "num_sweeps": 300,
                "num_points": 160, "num_features": 8, "depth": 2,
                "repeats": 15, "gate_max_overhead": 0.02},
    "pipeline": {"topologies": ("chain", "star", "cycle", "clique"),
                 "size": 6, "instances_per_cell": 12,
                 "num_sweeps": 200, "num_reads": 10, "repeats": 3,
                 "gate_max_overhead": 0.05},
    "obs": {"num_jobs": 8, "num_relations": 7, "num_sweeps": 600,
            "num_reads": 30, "workers": 2, "repeats": 3,
            "gate_max_overhead": 0.05},
    "server": {"num_jobs": 8, "num_clients": 4, "num_sweeps": 300,
               "num_reads": 10, "queue_capacity": 2},
}
SMOKE_SCALE = {
    "kernel": {"num_points": 12, "num_features": 4, "depth": 2},
    "sa": {"num_spins": 24, "num_reads": 10, "num_sweeps": 50},
    "compile": {"num_relations": 5, "num_sweeps": 150, "num_reads": 10,
                "repeats": 3},
    "service": {"num_jobs": 8, "num_relations": 6, "num_sweeps": 400,
                "num_reads": 20, "workers": 2,
                "gate_speedup_tolerance": 0.5},
    "metrics": {"num_spins": 16, "num_reads": 10, "num_sweeps": 60,
                "num_points": 16, "num_features": 5, "depth": 2,
                "repeats": 3, "gate_max_overhead": 0.5},
    "pipeline": {"topologies": ("chain", "star"), "size": 5,
                 "instances_per_cell": 4, "num_sweeps": 100,
                 "num_reads": 5, "repeats": 2,
                 "gate_max_overhead": 0.5},
    "obs": {"num_jobs": 4, "num_relations": 6, "num_sweeps": 300,
            "num_reads": 10, "workers": 2, "repeats": 2,
            "gate_max_overhead": 0.5},
    "server": {"num_jobs": 4, "num_clients": 2, "num_sweeps": 150,
               "num_reads": 5, "queue_capacity": 2},
}

#: Speedup floor the service workload must clear when real
#: parallelism is physically possible (declared in its record as
#: ``gate_min_speedup`` and enforced by ``bench_schema --gates``).
SERVICE_MIN_SPEEDUP = 1.5

#: Speedup floor on single-CPU hosts: parity with the sequential loop.
#: The declared ``gate_speedup_tolerance`` absorbs the scheduler and
#: process-pool overhead a one-core box measurably pays (repeated
#: full-scale runs on a 1-CPU container land between 0.88x and 0.96x).
SERVICE_MIN_SPEEDUP_SINGLE_CPU = 1.0

# The PR-3 dispatch-overhead ceiling (and the schema tag) now live in
# repro.telemetry.bench_schema, shared with bench-compare and CI.


# ----------------------------------------------------------------------
# Loop references: the pre-batching implementations, kept verbatim so
# the perf trajectory always compares against the same baseline.
# ----------------------------------------------------------------------
def loop_encoded_states(encoding, X):
    """One simulator call per data point (pre-batching kernel path)."""
    simulator = StatevectorSimulator()
    return np.array([simulator.run(encoding.circuit(x)) for x in X])


def loop_gram(encoding, X):
    """Gram matrix over per-point encoded states."""
    states = loop_encoded_states(encoding, X)
    return np.abs(states @ states.conj().T) ** 2


def loop_sa_solve(ising, num_sweeps, num_reads, seed):
    """Pre-batching SA: per-read Python loop, one spin flip at a time.

    Returns the list of per-read final energies (ascending reads).
    """
    rng = np.random.default_rng(seed)
    fields = ising.local_fields()
    couplings = ising.coupling_matrix()
    n = ising.num_spins
    betas = auto_beta_schedule(ising, num_sweeps)
    energies = []
    for _ in range(num_reads):
        spins = rng.choice((-1.0, 1.0), size=n)
        for beta in betas:
            order = rng.permutation(n)
            thresholds = rng.random(n)
            for position, i in enumerate(order):
                local = fields[i] + couplings[i] @ spins
                delta = -2.0 * spins[i] * local
                if delta <= 0 or thresholds[position] < math.exp(
                        -beta * delta):
                    spins[i] = -spins[i]
        energies.append(float(ising.energies(spins[None, :])[0]))
    return energies


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _span_total(collector, path):
    spans = collector.snapshot()["spans"]
    return float(spans[path]["total_seconds"])


def run_kernel_workload(collector, num_points, num_features, depth,
                        seed=7):
    """Fidelity-kernel Gram: batched engine vs per-point loop."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(num_points, num_features))
    encoding = IQPEncoding(num_features, depth=depth)
    kernel = FidelityQuantumKernel(encoding)

    with collector.span("perf.kernel.loop"):
        reference = loop_gram(encoding, X)
    with collector.span("perf.kernel.batched"):
        batched = kernel(X)
    with collector.span("perf.kernel.batched_repeat"):
        repeat = kernel(X)

    loop_seconds = _span_total(collector, "perf.kernel.loop")
    batched_seconds = _span_total(collector, "perf.kernel.batched")
    return {
        "name": "kernel_gram",
        "params": {
            "num_points": num_points,
            "num_features": num_features,
            "depth": depth,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": loop_seconds / batched_seconds,
        "max_abs_diff": float(np.abs(batched - reference).max()),
        "deterministic": bool(np.array_equal(batched, repeat)),
    }


def run_sa_workload(collector, num_spins, num_reads, num_sweeps,
                    seed=11):
    """SA restarts: read-vectorized sweeps vs the per-read Python loop."""
    ising = IsingModel.random(num_spins, density=0.5, field_scale=0.3,
                              seed=seed)

    with collector.span("perf.sa.loop"):
        loop_energies = loop_sa_solve(ising, num_sweeps, num_reads,
                                      seed=seed)
    solver = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads, seed=seed)
    with collector.span("perf.sa.batched"):
        batched = solver.solve(ising)
    repeat = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads,
                                      seed=seed).solve(ising)

    loop_seconds = _span_total(collector, "perf.sa.loop")
    batched_seconds = _span_total(collector, "perf.sa.batched")
    return {
        "name": "sa_sweeps",
        "params": {
            "num_spins": num_spins,
            "num_reads": num_reads,
            "num_sweeps": num_sweeps,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": loop_seconds / batched_seconds,
        "loop_best_energy": min(loop_energies),
        "batched_best_energy": batched.best_energy,
        "deterministic": bool(
            batched.best_energy == repeat.best_energy
            and tuple(batched.best.assignment)
            == tuple(repeat.best.assignment)
        ),
    }


def _direct_sa_best(compiled, num_sweeps, num_reads, seed):
    """The pre-dispatch path: seeded backend + hand-rolled best pick.

    Mirrors exactly what ``repro.compile.solve`` does around the
    backend (decode every read, keep the strictly-best score) so the
    timing difference isolates the dispatch layer itself.
    """
    solver = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads, seed=seed)
    samples = solver.solve(compiled.model)
    solutions = [compiled.decode(sample.assignment)
                 for sample in samples]
    best = solutions[0]
    best_score = compiled.score(best)
    for candidate in solutions[1:]:
        score = compiled.score(candidate)
        if score < best_score:
            best, best_score = candidate, score
    return best


def run_compile_workload(collector, num_relations, num_sweeps,
                         num_reads, repeats, seed=13):
    """Compile-layer dispatch vs direct solver call on join ordering."""
    graph = random_join_graph(num_relations, topology="chain", seed=seed)
    compiled = JoinOrderQUBO(graph).compile()
    config = SolverConfig(num_sweeps=num_sweeps, num_reads=num_reads,
                          seed=seed)

    # Warm both paths once (first-call allocation noise), then time
    # min-of-``repeats`` — the stable estimator for sub-second runs.
    direct_warm = _direct_sa_best(compiled, num_sweeps, num_reads, seed)
    dispatch_warm = dispatch_solve(compiled, solver="sa", config=config)
    dispatch_repeat = dispatch_solve(compiled, solver="sa", config=config)

    direct_times = []
    with collector.span("perf.compile.direct"):
        for _ in range(repeats):
            started = time.perf_counter()
            _direct_sa_best(compiled, num_sweeps, num_reads, seed)
            direct_times.append(time.perf_counter() - started)
    dispatch_times = []
    with collector.span("perf.compile.dispatch"):
        for _ in range(repeats):
            started = time.perf_counter()
            dispatch_solve(compiled, solver="sa", config=config)
            dispatch_times.append(time.perf_counter() - started)

    direct_seconds = min(direct_times)
    dispatch_seconds = min(dispatch_times)
    return {
        "name": "compile_dispatch",
        "params": {
            "num_relations": num_relations,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "direct_seconds": direct_seconds,
        "dispatch_seconds": dispatch_seconds,
        "overhead_fraction": dispatch_seconds / direct_seconds - 1.0,
        "matches_direct": bool(
            dispatch_warm.solution.order == direct_warm.order
            and dispatch_warm.solution.cost == direct_warm.cost
        ),
        "deterministic": bool(
            dispatch_warm.solution.order == dispatch_repeat.solution.order
            and dispatch_warm.solution.cost == dispatch_repeat.solution.cost
        ),
    }


def run_service_workload(collector, num_jobs, num_relations,
                         num_sweeps, num_reads, workers, seed=17,
                         gate_speedup_tolerance=0.10):
    """Solve-service throughput: warm worker pool vs sequential loop.

    The main batch is ``num_jobs`` *independent* seeded join-order SA
    solves — the service's bread-and-butter shape, executed on the
    persistent warm pool (models pickled to a worker once, workers
    spawned once). Correctness is bit-for-bit: the concurrent results
    must equal the sequential dispatch results sample-for-sample
    (``matches_direct``), and a second service run must reproduce them
    (``deterministic``). The speedup gate is CPU-aware: with >= 2 CPUs
    the workload declares the real-parallelism floor (1.5x); on a
    single core — where parallel speedup is physically impossible — it
    declares parity (1.0x) instead. Both come with the declared
    ``gate_speedup_tolerance`` so scheduler jitter cannot flake the
    gate (see ``bench_schema.effective_speedup_floor``).

    A second measurement covers **cross-job batch folding**: the same
    number of jobs on *one shared model* (distinct seeds), which the
    pool folds into a few worker round trips. Its timings and parity
    land in the ``batch_*`` keys; the pool counters of the main run
    land in ``pool``.
    """
    from repro.service import SolveService
    from repro.service.bench import build_jobs, results_match

    jobs = build_jobs(num_jobs, num_relations, num_sweeps, num_reads,
                      seed)
    specs = [(problem, "sa", config) for problem, config in jobs]

    with collector.span("perf.service.sequential"):
        sequential = [dispatch_solve(problem, "sa", config=config)
                      for problem, config in jobs]
    with SolveService(max_workers=workers) as service:
        with collector.span("perf.service.concurrent"):
            concurrent = service.solve_many(specs)
        pool_stats = service.stats()["pool"]
    # A fresh service (empty cache, new workers) must reproduce the
    # batch exactly.
    with SolveService(max_workers=workers) as service:
        repeat = service.solve_many(specs)

    # Cross-job batching: same model, distinct seeds. Sequential
    # baseline first, then the service folds them into few dispatches.
    fold_problem = jobs[0][0]
    fold_configs = [SolverConfig(num_sweeps=num_sweeps,
                                 num_reads=num_reads,
                                 seed=seed * 3000 + index)
                    for index in range(num_jobs)]
    with collector.span("perf.service.batch_sequential"):
        fold_base = [dispatch_solve(fold_problem, "sa", config=c)
                     for c in fold_configs]
    with SolveService(max_workers=workers) as service:
        with collector.span("perf.service.batch_concurrent"):
            handles = [service.submit(fold_problem, "sa", c)
                       for c in fold_configs]
            fold_results = [handle.result() for handle in handles]
        fold_pool = service.stats()["pool"]

    sequential_seconds = _span_total(collector,
                                     "perf.service.sequential")
    service_seconds = _span_total(collector, "perf.service.concurrent")
    batch_sequential = _span_total(collector,
                                   "perf.service.batch_sequential")
    batch_service = _span_total(collector,
                                "perf.service.batch_concurrent")
    cpus = os.cpu_count() or 1
    record = {
        "name": "service_throughput",
        "params": {
            "num_jobs": num_jobs,
            "num_relations": num_relations,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "workers": workers,
            "seed": seed,
            "cpu_count": cpus,
        },
        "sequential_seconds": sequential_seconds,
        "service_seconds": service_seconds,
        "speedup": sequential_seconds / service_seconds,
        "matches_direct": all(
            results_match(direct, concurrent_result)
            for direct, concurrent_result in zip(sequential, concurrent)
        ),
        "deterministic": all(
            results_match(first, second)
            for first, second in zip(concurrent, repeat)
        ),
        "pool": {
            "respawns": pool_stats["respawns"],
            "dispatches_warm": pool_stats["dispatches_warm"],
            "dispatches_cold": pool_stats["dispatches_cold"],
            "jobs_run": pool_stats["jobs_run"],
        },
        "batch_sequential_seconds": batch_sequential,
        "batch_service_seconds": batch_service,
        "batch_speedup": batch_sequential / batch_service,
        "batch_max_size": max(
            r.provenance["service"]["batched"] for r in fold_results),
        "batch_dispatches": (fold_pool["dispatches_warm"]
                             + fold_pool["dispatches_cold"]),
        "batch_matches_direct": all(
            results_match(direct, folded)
            for direct, folded in zip(fold_base, fold_results)
        ),
    }
    if cpus >= 2 and workers >= 2:
        record["gate_min_speedup"] = SERVICE_MIN_SPEEDUP
        record["gate_speedup_tolerance"] = gate_speedup_tolerance
    else:
        # Single-core parity runs pay the full process round-trip
        # overhead with zero parallelism to hide it; give the parity
        # floor a wider jitter band than the real-speedup floor.
        record["gate_min_speedup"] = SERVICE_MIN_SPEEDUP_SINGLE_CPU
        record["gate_speedup_tolerance"] = max(
            gate_speedup_tolerance, 0.20)
    return record


# ----------------------------------------------------------------------
# Metrics cheap-when-off workload: shipped instrumented paths (registry
# disabled) vs bare replicas with the instrumentation stripped.
# ----------------------------------------------------------------------
def bare_sa_solve(ising, num_sweeps, num_reads, seed):
    """``SimulatedAnnealingSolver.solve`` minus every accounting hook.

    Byte-for-byte the same numerical work (same RNG consumption, same
    ``_sweep`` inner loop, same sample assembly) with the telemetry
    span, collector counters, metrics-registry guard and progress
    plumbing stripped — the baseline the shipped path's disabled-mode
    cost is measured against.
    """
    solver = SimulatedAnnealingSolver(num_sweeps=num_sweeps,
                                      num_reads=num_reads, seed=seed)
    fields = ising.local_fields()
    couplings = ising.coupling_matrix()
    n = ising.num_spins
    betas = list(auto_beta_schedule(ising, num_sweeps))
    spins = solver._rng.choice((-1.0, 1.0), size=(num_reads, n))
    local = spins @ couplings + fields
    for beta in betas:
        solver._sweep(spins, local, couplings, beta)
    energies = ising.energies(spins)
    return SampleSet([
        Sample(tuple(spins_to_bits(row.astype(int))), float(energy))
        for row, energy in zip(spins, energies)
    ])


def bare_run_batch(circuits, num_qubits):
    """``StatevectorSimulator.run_batch`` minus the accounting guard."""
    batch = len(circuits)
    states = np.zeros((batch, 2 ** num_qubits), dtype=complex)
    states[:, 0] = 1.0
    if not _structurally_identical(circuits):
        raise ValueError("metrics workload expects a template batch")
    for position in range(len(circuits[0].instructions)):
        states = _apply_instruction_batch(states, circuits, position,
                                          num_qubits)
    return states


def bare_frontdoor_solve(problem, config):
    """``repro.compile.solve`` minus every observability guard.

    Same registry backend, same decode, same result assembly — with
    the telemetry span, profiler ``maybe_capture``, metrics-registry
    histogram and convergence plumbing stripped. This is the baseline
    the front door's fully-disabled cost is measured against.
    """
    spec = compile_dispatch._REGISTRY["sa"]
    start = time.perf_counter()
    samples = spec.run(problem.model, config, None)
    solutions = compile_dispatch.decode_samples(problem, samples)
    duration = time.perf_counter() - start
    return compile_dispatch.assemble_result(
        problem, "sa", config, samples, solutions, duration)


def _min_paired_times(bare_fn, shipped_fn, repeats):
    """Interleaved timings; returns (bare_min, shipped_min, overhead).

    The two sides run back to back so slow drift (thermal, page
    cache) hits both equally, and the within-pair order flips every
    repeat so neither side systematically enjoys the warm-cache second
    slot. One untimed warmup pair runs first so compilation/allocator
    effects hit neither side.

    The overhead estimate is the smaller of two estimators of the same
    true ratio: the ratio of the per-side minima (robust as long as
    each side gets *one* clean run) and the median per-pair ratio
    (robust as long as most pairs are clean). On a shared one-core box
    their failure modes are near-disjoint — a short scheduler burst
    corrupts one side's minimum but only one pair's ratio, while a
    long burst spanning many pairs drags the median but leaves clean
    minima outside it. Timing noise only ever *inflates* a
    measurement, while a real regression (say per-sweep accounting
    sneaking into the hot loop) shifts every pair ratio and both
    minima uniformly upward, so sensitivity to real regressions
    survives taking the smaller estimate.
    """
    bare_fn()
    shipped_fn()
    bare_times, shipped_times = [], []
    for index in range(repeats):
        first, second = ((bare_fn, shipped_fn) if index % 2 == 0
                         else (shipped_fn, bare_fn))
        started = time.perf_counter()
        first()
        first_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        second()
        second_elapsed = time.perf_counter() - started
        if index % 2 == 0:
            bare_times.append(first_elapsed)
            shipped_times.append(second_elapsed)
        else:
            shipped_times.append(first_elapsed)
            bare_times.append(second_elapsed)
    ratios = sorted(shipped / bare
                    for bare, shipped in zip(bare_times, shipped_times))
    middle = len(ratios) // 2
    if len(ratios) % 2:
        median_ratio = ratios[middle]
    else:
        median_ratio = (ratios[middle - 1] + ratios[middle]) / 2.0
    bare_min, shipped_min = min(bare_times), min(shipped_times)
    overhead = min(shipped_min / bare_min, median_ratio) - 1.0
    return bare_min, shipped_min, overhead


def run_metrics_overhead_workload(collector, num_spins, num_reads,
                                  num_sweeps, num_points, num_features,
                                  depth, repeats, gate_max_overhead,
                                  seed=19):
    """Cheap-when-off gate for the live-metrics instrumentation.

    Four instrumented hot paths — SA ``solve`` (read-vectorized
    sweeps), ``run_batch`` (template batching),
    ``run_registry_backend`` (the service workers' dispatch slice) and
    the ``repro.compile.solve`` front door (telemetry span + profiler
    + metrics guards around the same backend) — are timed with *all*
    accounting disabled and compared against bare replicas of the
    identical numerical work with the instrumentation stripped. ``overhead_fraction`` is the worst of the three and the
    record embeds ``gate_max_overhead`` so ``bench_schema --gates``
    enforces the budget (2% at full scale). Every global collector /
    tracer / metrics registry is parked for the duration so the timed
    paths take their fully-disabled branch, then restored.
    """
    saved_collector = telemetry.get_collector()
    saved_tracer = telemetry.get_tracer()
    saved_registry = _metrics.get_registry()
    # Park the trace-context / flight / profiler globals too: the
    # front-door pair below times the fully-disabled branch of every
    # observability layer, not just metrics.
    saved_context = _tracectx._state
    saved_flight = _flight._recorder
    saved_profiler = _profiler._config
    _tracectx._state = None
    _flight._recorder = None
    _profiler._config = None
    if saved_collector is not None:
        telemetry.disable()
    if saved_tracer is not None:
        telemetry.disable_tracing()
    if saved_registry is not None:
        _metrics.disable_metrics()
    try:
        ising = IsingModel.random(num_spins, density=0.5,
                                  field_scale=0.3, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(num_points, num_features))
        encoding = IQPEncoding(num_features, depth=depth)
        circuits = [encoding.circuit(x) for x in X]
        simulator = StatevectorSimulator()
        config = SolverConfig(num_sweeps=num_sweeps,
                              num_reads=num_reads, seed=seed)

        # Correctness first: each replica must reproduce its shipped
        # path bit for bit (it is the same numerical code).
        bare_samples = bare_sa_solve(ising, num_sweeps, num_reads, seed)
        shipped_samples = SimulatedAnnealingSolver(
            num_sweeps=num_sweeps, num_reads=num_reads,
            seed=seed).solve(ising)
        num_qubits = circuits[0].num_qubits
        bare_states = bare_run_batch(circuits, num_qubits)
        shipped_states = simulator.run_batch(circuits)
        bare_dispatch = compile_dispatch._REGISTRY["sa"].run(
            ising, config, None)
        shipped_dispatch = compile_dispatch.run_registry_backend(
            ising, "sa", config)
        compiled = JoinOrderQUBO(random_join_graph(
            6, "chain", seed=seed)).compile()
        bare_front = bare_frontdoor_solve(compiled, config)
        shipped_front = dispatch_solve(compiled, "sa", config=config)
        deterministic = bool(
            np.array_equal(bare_samples.energies(),
                           shipped_samples.energies())
            and bare_samples.best.assignment
            == shipped_samples.best.assignment
            and np.array_equal(bare_states, shipped_states)
            and np.array_equal(bare_dispatch.energies(),
                               shipped_dispatch.energies())
            and bare_front.solution == shipped_front.solution
            and bare_front.energy == shipped_front.energy
            and np.array_equal(bare_front.energies,
                               shipped_front.energies)
        )

        sa_bare, sa_shipped, sa_over = _min_paired_times(
            lambda: bare_sa_solve(ising, num_sweeps, num_reads, seed),
            lambda: SimulatedAnnealingSolver(
                num_sweeps=num_sweeps, num_reads=num_reads,
                seed=seed).solve(ising),
            repeats)
        batch_bare, batch_shipped, batch_over = _min_paired_times(
            lambda: bare_run_batch(circuits, num_qubits),
            lambda: simulator.run_batch(circuits),
            repeats)
        dispatch_bare, dispatch_shipped, dispatch_over = _min_paired_times(
            lambda: compile_dispatch._REGISTRY["sa"].run(
                ising, config, None),
            lambda: compile_dispatch.run_registry_backend(
                ising, "sa", config),
            repeats)
        front_bare, front_shipped, front_over = _min_paired_times(
            lambda: bare_frontdoor_solve(compiled, config),
            lambda: dispatch_solve(compiled, "sa", config=config),
            repeats)
    finally:
        _tracectx._state = saved_context
        _flight._recorder = saved_flight
        _profiler._config = saved_profiler
        if saved_collector is not None:
            telemetry.enable(saved_collector)
        if saved_tracer is not None:
            telemetry.enable_tracing(saved_tracer)
        if saved_registry is not None:
            _metrics.enable_metrics(saved_registry)

    overheads = {
        "sa_overhead": sa_over,
        "batch_overhead": batch_over,
        "dispatch_overhead": dispatch_over,
        "frontdoor_overhead": front_over,
    }
    return {
        "name": "metrics_overhead",
        "params": {
            "num_spins": num_spins,
            "num_reads": num_reads,
            "num_sweeps": num_sweeps,
            "num_points": num_points,
            "num_features": num_features,
            "depth": depth,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "sa_bare_seconds": sa_bare,
        "sa_shipped_seconds": sa_shipped,
        "batch_bare_seconds": batch_bare,
        "batch_shipped_seconds": batch_shipped,
        "dispatch_bare_seconds": dispatch_bare,
        "dispatch_shipped_seconds": dispatch_shipped,
        "frontdoor_bare_seconds": front_bare,
        "frontdoor_shipped_seconds": front_shipped,
        **overheads,
        "overhead_fraction": max(overheads.values()),
        "gate_max_overhead": gate_max_overhead,
        "deterministic": deterministic,
    }


def run_obs_overhead_workload(collector, num_jobs, num_relations,
                              num_sweeps, num_reads, workers, repeats,
                              gate_max_overhead, seed=29):
    """Enabled-cost gate for the trace-context + flight-recorder stack.

    The service-throughput batch (independent seeded join-order jobs
    on the warm pool) runs once with the correlated-observability
    layers *off* and once with trace contexts and the in-memory flight
    recorder *on* — the configuration ``serve-bench --context
    --flight`` ships. The enabled side pays context minting per job,
    trace-id plumbing over the pipe protocol, ring-buffer recording
    and drain attribution; the record's ``overhead_fraction`` caps
    that cost at the embedded ``gate_max_overhead`` (5% at full
    scale). ``matches_direct`` asserts the observed batch reproduces
    the plain batch bit for bit — observability never touches the
    answer — and ``traced_jobs`` counts the distinct trace ids minted
    (one per job).
    """
    from repro.service import SolveService
    from repro.service.bench import build_jobs, results_match

    jobs = build_jobs(num_jobs, num_relations, num_sweeps, num_reads,
                      seed)
    specs = [(problem, "sa", config) for problem, config in jobs]

    def run_plain():
        with SolveService(max_workers=workers) as service:
            return service.solve_many(specs)

    def run_observed():
        _tracectx.enable_context()
        _flight.enable_flight()
        try:
            with SolveService(max_workers=workers) as service:
                return service.solve_many(specs)
        finally:
            _flight.disable_flight()
            _tracectx.disable_context()

    # Correctness first: the observed batch must reproduce the plain
    # batch bit for bit, and a second observed run must reproduce the
    # first (fresh service, fresh contexts — same answers).
    plain_warm = run_plain()
    observed_warm = run_observed()
    observed_repeat = run_observed()
    trace_ids = {result.provenance["service"]["trace_id"]
                 for result in observed_warm}

    plain_min, observed_min, overhead = _min_paired_times(
        run_plain, run_observed, repeats)

    return {
        "name": "obs_overhead",
        "params": {
            "num_jobs": num_jobs,
            "num_relations": num_relations,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "workers": workers,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "plain_seconds": plain_min,
        "observed_seconds": observed_min,
        "overhead_fraction": overhead,
        "matches_direct": all(
            results_match(plain, observed)
            for plain, observed in zip(plain_warm, observed_warm)
        ),
        "deterministic": all(
            results_match(first, second)
            for first, second in zip(observed_warm, observed_repeat)
        ),
        "traced_jobs": len(trace_ids),
        "gate_max_overhead": gate_max_overhead,
    }


def run_pipeline_workload(collector, topologies, size,
                          instances_per_cell, num_sweeps, num_reads,
                          repeats, gate_max_overhead, seed=23):
    """Staged pipeline vs direct compile+dispatch on a generated
    join-order workload.

    Both arms run the identical compiled problems at the identical
    seeded configs; the pipeline arm additionally pays pre-check,
    stage reporting and plan assembly per query. ``matches_direct``
    asserts the decoded orders and costs agree bit for bit (the
    polish is off so the pipeline does not improve on the raw
    decode), and the embedded ``gate_max_overhead`` caps the
    machinery's cost relative to the raw formulation+solve loop.
    """
    from repro.db.workloads import generate_join_workload
    from repro.pipeline import JoinOrderFormulation, OptimizationPipeline

    workload = generate_join_workload(
        topologies=topologies, sizes=(size,),
        instances_per_cell=instances_per_cell, seed=seed,
    )
    graphs = workload.graphs()
    configs = [SolverConfig(num_sweeps=num_sweeps, num_reads=num_reads,
                            seed=instance.seed % (2 ** 31))
               for instance in workload.instances]
    pipeline = OptimizationPipeline(
        JoinOrderFormulation(polish=False), solve="sa"
    )

    def run_direct():
        return [dispatch_solve(JoinOrderQUBO(graph).compile(),
                               solver="sa", config=config)
                for graph, config in zip(graphs, configs)]

    def run_pipe():
        return pipeline.optimize_workload(graphs, configs=configs)

    # Warm both paths once, keep the warm outputs for the parity and
    # determinism checks, then time min-of-repeats.
    direct_warm = run_direct()
    pipeline_warm = run_pipe()
    pipeline_repeat = run_pipe()

    direct_times = []
    with collector.span("perf.pipeline.direct"):
        for _ in range(repeats):
            started = time.perf_counter()
            run_direct()
            direct_times.append(time.perf_counter() - started)
    pipeline_times = []
    with collector.span("perf.pipeline.dispatch"):
        for _ in range(repeats):
            started = time.perf_counter()
            run_pipe()
            pipeline_times.append(time.perf_counter() - started)

    direct_seconds = min(direct_times)
    pipeline_seconds = min(pipeline_times)
    return {
        "name": "pipeline_throughput",
        "params": {
            "topologies": list(topologies),
            "size": size,
            "instances_per_cell": instances_per_cell,
            "num_queries": len(workload),
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "repeats": repeats,
            "workload_key": workload.workload_key,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "direct_seconds": direct_seconds,
        "pipeline_seconds": pipeline_seconds,
        "per_query_seconds": pipeline_seconds / len(workload),
        "overhead_fraction": pipeline_seconds / direct_seconds - 1.0,
        "matches_direct": all(
            plan.status == "ok"
            and plan.solution.order == result.solution.order
            and plan.solution.cost == result.solution.cost
            for plan, result in zip(pipeline_warm, direct_warm)
        ),
        "deterministic": all(
            first.solution.order == second.solution.order
            and first.solution.cost == second.solution.cost
            for first, second in zip(pipeline_warm, pipeline_repeat)
        ),
        "gate_max_overhead": gate_max_overhead,
    }


def _server_problem_body(index, num_sweeps, num_reads, seed, **extra):
    """A small QUBO submission body, distinct per ``index``.

    Distinct coefficients *and* seeds: identical bodies are idempotent
    (same server job) and identical solves coalesce inside the
    service, either of which would silently collapse the load the
    soak and backpressure phases mean to generate.
    """
    n = 4
    body = {
        "problem": {
            "kind": "qubo",
            "num_variables": n,
            "linear": {str(i): -1.0 - 0.1 * index for i in range(n)},
            "quadratic": [[i, i + 1, 2.0 + 0.05 * index]
                          for i in range(n - 1)],
        },
        "solver": "sa",
        "config": {"num_sweeps": num_sweeps, "num_reads": num_reads,
                   "seed": seed * 100 + index, "convergence": True},
    }
    body.update(extra)
    return body


def _strip_provenance(document):
    return {key: value for key, value in document.items()
            if key != "provenance"}


def run_server_workload(collector, num_jobs, num_clients, num_sweeps,
                        num_reads, queue_capacity, seed=31):
    """HTTP front-end soak and backpressure.

    **Soak** — ``num_clients`` stdlib clients drive a thread-mode
    server (HTTP-layer cost, not process-pool cost) through a mixed
    phase: each submits its share of ``num_jobs`` distinct problems
    (cache misses), polls results, then resubmits them under a tag
    (new server jobs that hit the result cache). Every request is
    timed client-side; the record carries p50/p95 request latency and
    aggregate request throughput. One extra job is then streamed live
    over SSE, with per-row lag = client receive time − row journal
    timestamp. ``matches_direct`` asserts the HTTP result document
    equals a direct in-process ``solve()`` bit for bit (config
    resolved the way the service stores it); ``deterministic`` asserts
    the cache-hit resubmission returns the identical document.

    **Backpressure** — a second server with a ``queue_capacity``-deep
    job queue takes a burst of distinct submissions: the record must
    show non-zero ``rejected_429`` (each with a usable ``Retry-After``)
    while every accepted job still completes.
    """
    import threading

    from repro.server import build_problem, result_document
    from repro.server.testing import Client, ServerThread
    from repro.telemetry.metrics import quantile

    latencies = []
    latency_lock = threading.Lock()
    documents = {}

    def timed(client, method, path, body=None):
        started = time.perf_counter()
        result = client.request(method, path, body)
        with latency_lock:
            latencies.append(time.perf_counter() - started)
        return result

    def soak_worker(thread, client_index, errors):
        try:
            with Client(*thread.address,
                        tenant=f"soak-{client_index}") as client:
                mine = range(client_index, num_jobs, num_clients)
                for index in mine:  # miss phase
                    body = _server_problem_body(index, num_sweeps,
                                                num_reads, seed)
                    status, _, accepted = timed(client, "POST",
                                                "/v1/jobs", body)
                    assert status == 201, f"submit -> {status}"
                    status, document = client.wait_result(
                        accepted["job_id"])
                    assert status == 200, f"result -> {status}"
                    documents[index] = document["result"]
                    status, _, _ = timed(
                        client, "GET",
                        f"/v1/jobs/{accepted['job_id']}")
                    assert status == 200, f"status -> {status}"
                for index in mine:  # hit phase: new jobs, cached solve
                    body = _server_problem_body(
                        index, num_sweeps, num_reads, seed,
                        tag=f"hit-{client_index}")
                    status, _, accepted = timed(client, "POST",
                                                "/v1/jobs", body)
                    assert status == 201, f"resubmit -> {status}"
                    status, document = client.wait_result(
                        accepted["job_id"])
                    assert status == 200, f"hit result -> {status}"
                    assert (_strip_provenance(document["result"])
                            == _strip_provenance(documents[index]))
        except BaseException as error:  # noqa: BLE001 — rethrown below
            errors.append(error)

    with ServerThread(workers=0, quota_rate=10_000.0,
                      quota_burst=10_000.0, max_inflight=256,
                      queue_capacity=max(64, num_jobs * 4)) as thread:
        errors = []
        workers = [threading.Thread(target=soak_worker,
                                    args=(thread, index, errors))
                   for index in range(num_clients)]
        with collector.span("perf.server.soak"):
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        if errors:
            raise errors[0]

        # Parity against the direct in-process path, on job 0.
        body = _server_problem_body(0, num_sweeps, num_reads, seed)
        problem = build_problem(body["problem"])
        config = SolverConfig(**body["config"]).resolve_convergence()
        direct = result_document(dispatch_solve(problem, "sa", config))
        matches_direct = (_strip_provenance(documents[0])
                          == _strip_provenance(direct))
        # Determinism: a tagged resubmission (new job, cached solve)
        # returns the identical document.
        with Client(*thread.address) as client:
            status, _, accepted = client.submit(
                dict(body, tag="verify"))
            assert status == 201
            _, document = client.wait_result(accepted["job_id"])
            deterministic = (_strip_provenance(document["result"])
                             == _strip_provenance(documents[0]))

            # Live SSE stream on a fresh, slower job: row lag is the
            # client receive time minus the row's journal timestamp.
            stream_body = _server_problem_body(
                num_jobs + 1000, num_sweeps * 4, num_reads, seed)
            _, _, accepted = client.submit(stream_body)
            lags = [received - data["ts"]
                    for event, data, received
                    in client.stream(accepted["job_id"])
                    if event == "convergence"]

    soak_seconds = _span_total(collector, "perf.server.soak")
    sorted_latencies = sorted(latencies)

    # Backpressure burst against a tiny queue: must shed with 429s
    # that carry Retry-After, never hang, and finish what it accepted.
    rejected_429 = 0
    retry_after_ok = True
    accepted_jobs = []
    with ServerThread(workers=0, quota_rate=10_000.0,
                      quota_burst=10_000.0, max_inflight=256,
                      queue_capacity=queue_capacity) as thread:
        with Client(*thread.address) as client:
            for index in range(num_jobs + 4):
                body = _server_problem_body(500 + index,
                                            num_sweeps * 4, num_reads,
                                            seed)
                status, headers, document = client.submit(body)
                if status == 429:
                    rejected_429 += 1
                    retry_after_ok = (
                        retry_after_ok
                        and int(headers.get("retry-after", 0)) >= 1
                        and document.get("reason") == "queue")
                else:
                    assert status == 201, f"burst submit -> {status}"
                    accepted_jobs.append(document["job_id"])
            accepted_all_completed = True
            for job_id in accepted_jobs:
                status, _ = client.wait_result(job_id)
                accepted_all_completed = (accepted_all_completed
                                          and status == 200)

    return {
        "name": "server_throughput",
        "params": {
            "num_jobs": num_jobs,
            "num_clients": num_clients,
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "queue_capacity": queue_capacity,
            "workers": 0,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "soak_seconds": soak_seconds,
        "requests_total": len(latencies),
        "requests_per_second": len(latencies) / soak_seconds,
        "request_p50_seconds": quantile(sorted_latencies, 0.50),
        "request_p95_seconds": quantile(sorted_latencies, 0.95),
        "stream_rows": len(lags),
        "stream_lag_p95_seconds": (quantile(sorted(lags), 0.95)
                                   if lags else 0.0),
        "rejected_429": rejected_429,
        "retry_after_ok": retry_after_ok,
        "accepted_all_completed": accepted_all_completed,
        "matches_direct": matches_direct,
        "deterministic": deterministic,
    }


def run_workloads(scale, collector=None):
    collector = collector or telemetry.get_collector() or telemetry.Collector()
    return [
        run_kernel_workload(collector, **scale["kernel"]),
        run_sa_workload(collector, **scale["sa"]),
        run_compile_workload(collector, **scale["compile"]),
        run_service_workload(collector, **scale["service"]),
        run_metrics_overhead_workload(collector, **scale["metrics"]),
        run_pipeline_workload(collector, **scale["pipeline"]),
        run_obs_overhead_workload(collector, **scale["obs"]),
        run_server_workload(collector, **scale["server"]),
    ]


# ----------------------------------------------------------------------
# Pytest entry points (smoke scale; correctness over raw speedup)
# ----------------------------------------------------------------------
def test_perf_kernel_batched_matches_loop(bench_telemetry):
    record = run_kernel_workload(bench_telemetry,
                                 **SMOKE_SCALE["kernel"])
    print("\nkernel Gram loop {loop_seconds:.4f}s vs batched "
          "{batched_seconds:.4f}s ({speedup:.1f}x)".format(**record))
    assert record["max_abs_diff"] < 1e-10
    assert record["deterministic"]
    assert record["speedup"] > 1.0


def test_perf_sa_batched_is_faster_and_deterministic(bench_telemetry):
    record = run_sa_workload(bench_telemetry, **SMOKE_SCALE["sa"])
    print("\nSA loop {loop_seconds:.4f}s vs batched "
          "{batched_seconds:.4f}s ({speedup:.1f}x)".format(**record))
    assert record["deterministic"]
    assert record["speedup"] > 1.0
    # Both dynamics are valid annealers; at equal budgets their best
    # energies land in the same range on this easy instance.
    assert (record["batched_best_energy"]
            <= record["loop_best_energy"] + 2.0)


def test_perf_compile_dispatch_overhead_is_small(bench_telemetry):
    record = run_compile_workload(bench_telemetry,
                                  **SMOKE_SCALE["compile"])
    print("\ncompile dispatch {dispatch_seconds:.4f}s vs direct "
          "{direct_seconds:.4f}s ({overhead_fraction:+.2%} overhead)"
          .format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    assert record["overhead_fraction"] < MAX_DISPATCH_OVERHEAD


def test_perf_service_matches_sequential_bit_for_bit(bench_telemetry):
    record = run_service_workload(bench_telemetry,
                                  **SMOKE_SCALE["service"])
    print("\nservice sequential {sequential_seconds:.4f}s vs "
          "concurrent {service_seconds:.4f}s ({speedup:.2f}x)"
          .format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    # Same-model jobs must fold into fewer dispatches than jobs and
    # stay bit-for-bit against per-seed sequential solves.
    assert record["batch_matches_direct"]
    assert record["batch_dispatches"] < record["params"]["num_jobs"]
    assert record["pool"]["respawns"] == 0
    # The workload declares its own CPU-aware floor (1.5x with real
    # CPUs, parity on a single core) plus a tolerance for scheduler
    # jitter; enforce exactly what the record declares.
    assert record["speedup"] >= effective_speedup_floor(record)


def test_perf_pipeline_dispatch_overhead_is_small(bench_telemetry):
    record = run_pipeline_workload(bench_telemetry,
                                   **SMOKE_SCALE["pipeline"])
    print("\npipeline {pipeline_seconds:.4f}s vs direct "
          "{direct_seconds:.4f}s ({overhead_fraction:+.2%} overhead, "
          "gate < {gate_max_overhead:.0%})".format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    assert record["overhead_fraction"] < record["gate_max_overhead"]


def test_perf_metrics_guard_is_cheap_when_off(bench_telemetry):
    record = run_metrics_overhead_workload(bench_telemetry,
                                           **SMOKE_SCALE["metrics"])
    print("\nmetrics-off overhead: sa {sa_overhead:+.2%}, batch "
          "{batch_overhead:+.2%}, dispatch {dispatch_overhead:+.2%}, "
          "frontdoor {frontdoor_overhead:+.2%} "
          "(gate < {gate_max_overhead:.0%})".format(**record))
    assert record["deterministic"]
    assert record["overhead_fraction"] < record["gate_max_overhead"]


def test_perf_server_soak_backpressure_and_cache(bench_telemetry):
    record = run_server_workload(bench_telemetry,
                                 **SMOKE_SCALE["server"])
    print("\nserver soak {requests_total} req in {soak_seconds:.3f}s "
          "(p50 {request_p50_seconds:.4f}s, p95 "
          "{request_p95_seconds:.4f}s), {stream_rows} stream rows, "
          "{rejected_429} rejected".format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    # The burst against a 2-deep queue must shed load with usable
    # Retry-After while every accepted job still completes.
    assert record["rejected_429"] > 0
    assert record["retry_after_ok"]
    assert record["accepted_all_completed"]
    assert record["stream_rows"] > 0


def test_perf_obs_stack_is_cheap_when_on(bench_telemetry):
    record = run_obs_overhead_workload(bench_telemetry,
                                       **SMOKE_SCALE["obs"])
    print("\nobs-on overhead: plain {plain_seconds:.4f}s vs observed "
          "{observed_seconds:.4f}s ({overhead_fraction:+.2%}, gate < "
          "{gate_max_overhead:.0%})".format(**record))
    assert record["matches_direct"]
    assert record["deterministic"]
    assert record["traced_jobs"] == record["params"]["num_jobs"]
    assert record["overhead_fraction"] < record["gate_max_overhead"]


# ----------------------------------------------------------------------
# Script entry point: write the committed perf trajectory
# ----------------------------------------------------------------------
def main():
    scale_name = os.environ.get("REPRO_PERF_SCALE", "full")
    scale = SMOKE_SCALE if scale_name == "smoke" else FULL_SCALE
    collector = telemetry.enable()
    runs = run_workloads(scale, collector)
    telemetry.disable()
    document = {
        "schema": BENCH_SCHEMA,
        "provenance": telemetry.collect_provenance(
            "bench_perf_engine").to_dict(),
        "scale": scale_name,
        "workloads": runs,
    }
    # Fail fast on malformed output rather than committing it: CI and
    # bench-compare both consume this file through the same validator.
    validate_document(document)
    target = os.environ.get("REPRO_PERF_JSON", "")
    if not target:
        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))
        target = os.path.join(repo_root, "BENCH_perf.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for record in runs:
        if "loop_seconds" in record:
            print("{name}: loop {loop_seconds:.3f}s, batched "
                  "{batched_seconds:.3f}s -> {speedup:.1f}x"
                  .format(**record))
        elif "sequential_seconds" in record:
            print("{name}: sequential {sequential_seconds:.3f}s, "
                  "service {service_seconds:.3f}s -> {speedup:.2f}x "
                  "({workers} workers, {cpus} cpus)"
                  .format(workers=record["params"]["workers"],
                          cpus=record["params"]["cpu_count"],
                          **record))
        elif record["name"] == "metrics_overhead":
            print("{name}: sa {sa_overhead:+.2%}, batch "
                  "{batch_overhead:+.2%}, dispatch "
                  "{dispatch_overhead:+.2%}, frontdoor "
                  "{frontdoor_overhead:+.2%} (worst "
                  "{overhead_fraction:+.2%}, gate < "
                  "{gate_max_overhead:.0%})".format(**record))
        elif record["name"] == "obs_overhead":
            print("{name}: plain {plain_seconds:.3f}s, observed "
                  "{observed_seconds:.3f}s -> {overhead_fraction:+.2%} "
                  "overhead (gate < {gate_max_overhead:.0%})"
                  .format(**record))
        elif record["name"] == "pipeline_throughput":
            print("{name}: direct {direct_seconds:.3f}s, pipeline "
                  "{pipeline_seconds:.3f}s -> {overhead_fraction:+.2%} "
                  "overhead (gate < {gate_max_overhead:.0%})"
                  .format(**record))
        elif record["name"] == "server_throughput":
            print("{name}: {requests_total} req in {soak_seconds:.3f}s "
                  "(p95 {request_p95_seconds:.4f}s), {rejected_429} "
                  "shed".format(**record))
        else:
            print("{name}: direct {direct_seconds:.3f}s, dispatch "
                  "{dispatch_seconds:.3f}s -> {overhead_fraction:+.2%} "
                  "overhead".format(**record))
    print(f"wrote {target}")
    # The 5x floor applies to the batched-vs-loop workloads only;
    # service and metrics workloads declare their own gates
    # (gate_min_speedup + tolerance, gate_max_overhead) checked here
    # exactly as bench_schema --gates would.
    slow = [r for r in runs
            if "loop_seconds" in r
            and r.get("speedup", math.inf) < 5.0]
    heavy = [r for r in runs
             if "gate_max_overhead" not in r
             and r.get("overhead_fraction", 0.0) >= MAX_DISPATCH_OVERHEAD]
    over_budget = [r for r in runs
                   if "gate_max_overhead" in r
                   and r.get("overhead_fraction", 0.0)
                   >= r["gate_max_overhead"]]
    under_gate = [r for r in runs
                  if "gate_min_speedup" in r
                  and r.get("speedup", 0.0) < effective_speedup_floor(r)]
    status = 0
    if scale_name == "full" and slow:
        names = ", ".join(r["name"] for r in slow)
        print(f"WARNING: speedup below 5x on: {names}", file=sys.stderr)
        status = 1
    if scale_name == "full" and heavy:
        names = ", ".join(r["name"] for r in heavy)
        print(f"WARNING: dispatch overhead >= 5% on: {names}",
              file=sys.stderr)
        status = 1
    if scale_name == "full" and over_budget:
        names = ", ".join(r["name"] for r in over_budget)
        print("WARNING: overhead above declared gate_max_overhead "
              f"on: {names}", file=sys.stderr)
        status = 1
    if scale_name == "full" and under_gate:
        names = ", ".join(r["name"] for r in under_gate)
        print(f"WARNING: speedup below declared gate on: {names}",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

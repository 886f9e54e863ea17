"""Shared benchmark configuration.

Each ``bench_e*.py`` regenerates one DESIGN.md experiment through
``repro.experiments.run_experiment`` at a benchmark-friendly scale,
prints the same table the full experiment produces (visible with
``pytest benchmarks/ --benchmark-only -s``) and asserts the *shape* of
the result — who wins, and roughly by how much — mirroring the
tutorial's qualitative claims.

Every benchmark runs with a fresh metrics registry, and the session
writes each test's ``repro-metrics/v1`` snapshot to a
``BENCH_*.json`` trajectory file — the format future PRs diff against
to spot perf regressions. Set ``REPRO_BENCH_JSON`` to choose the
output path (default: ``BENCH_telemetry.json`` at the repo root); set
it to ``0`` to skip writing.
"""

import json
import os
import time

import pytest

from repro import telemetry
from repro.experiments import format_table

_BENCH_RUNS = []


@pytest.fixture
def show_table():
    """Print an ExperimentResult table after the benchmark body."""

    def render(result):
        print()
        print(format_table(result))
        return result

    return render


@pytest.fixture(autouse=True)
def bench_telemetry(request):
    """Fresh registry per benchmark; snapshot recorded at teardown."""
    registry = telemetry.enable_metrics()
    started = time.perf_counter()
    yield registry
    elapsed = time.perf_counter() - started
    telemetry.disable_metrics()
    if registry.instrument_names():
        _BENCH_RUNS.append({
            "test": request.node.nodeid,
            "duration_seconds": elapsed,
            "metrics": registry.snapshot(include_reservoir=False),
        })


def pytest_sessionfinish(session, exitstatus):
    target = os.environ.get("REPRO_BENCH_JSON", "")
    if target == "0" or not _BENCH_RUNS:
        return
    if not target:
        repo_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))
        target = os.path.join(repo_root, "BENCH_telemetry.json")
    document = {
        "schema": "repro-bench/v1",
        "provenance": telemetry.collect_provenance("benchmarks").to_dict(),
        "runs": _BENCH_RUNS,
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

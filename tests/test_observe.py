"""The one telemetry switch: ``repro.telemetry.observe`` and its five
cumulative levels, read from ``REPRO_OBSERVE`` at import."""

import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.compile import SolverConfig
from repro.db import JoinOrderQUBO, random_join_graph
from repro.service import SolveService
from repro.telemetry import context as context_mod
from repro.telemetry import flight as flight_mod
from repro.telemetry import profiler as profiler_mod


@pytest.fixture(autouse=True)
def _clean_layers():
    telemetry.observe("off")
    yield
    telemetry.observe("off")


def layers():
    """Registry, context state, recorder, tracer, profiler capture."""
    return (telemetry.get_registry(), context_mod.get_context_state(),
            flight_mod.get_flight_recorder(), telemetry.get_tracer(),
            profiler_mod.maybe_capture(None))


@pytest.mark.parametrize("level", telemetry.LEVELS)
def test_each_level_includes_the_ones_below(level):
    telemetry.observe(level)
    rank = telemetry.LEVELS.index(level)
    assert [layer is not None for layer in layers()] \
        == [rank >= 1, rank >= 2, rank >= 3, rank >= 4, rank >= 4]
    assert telemetry.observed_level() == level


def test_layers_that_stay_on_keep_their_objects():
    telemetry.observe("context")
    registry, state = layers()[:2]
    telemetry.observe("context")
    assert layers()[:2] == (registry, state)
    telemetry.observe("trace")
    assert layers()[:2] == (registry, state)
    telemetry.observe("metrics")  # the layers above the level go
    assert layers() == (registry, None, None, None, None)


def test_unknown_level_raises_and_changes_nothing():
    telemetry.observe("metrics")
    registry = telemetry.get_registry()
    with pytest.raises(ValueError, match="metrics, context, flight"):
        telemetry.observe("verbose")
    assert layers() == (registry, None, None, None, None)


def test_observed_level_names_the_highest_layer_on():
    telemetry.enable_tracing()
    assert telemetry.observed_level() == "trace"
    telemetry.observe("off")
    telemetry.enable_metrics()
    assert telemetry.observed_level() == "metrics"


def test_env_level_is_read_at_import(tmp_path):
    env = dict(os.environ, REPRO_OBSERVE="flight",
               REPRO_FLIGHT_DIR=str(tmp_path))
    probe = ("from repro import telemetry; "
             "print(telemetry.observed_level(), "
             "telemetry.get_flight_recorder().dump_dir)")
    shown = subprocess.run([sys.executable, "-c", probe], env=env,
                           capture_output=True, text=True, check=True)
    assert shown.stdout.split() == ["flight", str(tmp_path)]
    env["REPRO_OBSERVE"] = "loud"
    failed = subprocess.run([sys.executable, "-c", "import repro.telemetry"],
                            env=env, capture_output=True, text=True)
    assert failed.returncode != 0
    assert "ValueError: REPRO_OBSERVE='loud'" in failed.stderr
    assert "off, metrics, context, flight, trace" in failed.stderr


def test_warm_worker_raises_itself_to_each_task_level():
    problem = JoinOrderQUBO(random_join_graph(4, "chain", seed=0)).compile()
    config = SolverConfig(num_sweeps=60, num_reads=2, seed=7,
                          convergence=False)
    telemetry.observe("metrics")  # the worker starts at this level
    with SolveService(max_workers=1) as service:
        telemetry.observe("trace")
        result = service.solve(problem, "sa", config)
    # The worker profiled the solve and drained its spans at trace.
    assert "hotspots" in result.provenance["profile"]
    assert any(event["name"] == "service.worker.sa"
               for event in telemetry.get_tracer().events())

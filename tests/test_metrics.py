"""Tests for the live-metrics layer: instruments, registry, exports,
health rules, sampler, report CLI and hot-path instrumentation."""

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro import telemetry
from repro.telemetry import health as health_mod
from repro.telemetry import metrics as metrics_mod
from repro.telemetry.health import (
    DEFAULT_SLO_RULES,
    SLORule,
    evaluate_rule,
    evaluate_rules,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    RESERVOIR_SIZE,
    MetricsRegistry,
    quantile,
    validate_prometheus_text,
)
from repro.telemetry.metrics_report import load_snapshot, main as report_main
from repro.telemetry.sampler import MetricsSampler


@pytest.fixture(autouse=True)
def _clean_metrics():
    """Every test starts and ends with the global registry removed."""
    metrics_mod.disable_metrics()
    yield
    metrics_mod.disable_metrics()


# -- instruments -------------------------------------------------------
def test_counter_labels_and_totals():
    registry = MetricsRegistry()
    jobs = registry.counter("jobs_total", "jobs", ("status",))
    jobs.labels(status="done").inc()
    jobs.labels(status="done").inc(2)
    jobs.labels(status="failed").inc()
    assert jobs.labels(status="done").value == 3
    assert jobs.value == 4  # total across label sets
    with pytest.raises(ValueError):
        jobs.labels(status="done").inc(-1)
    with pytest.raises(ValueError):
        jobs.labels(wrong="x")
    with pytest.raises(ValueError):
        jobs.inc()  # labeled instrument needs .labels(...)


def test_gauge_set_inc_dec_and_set_max():
    registry = MetricsRegistry()
    depth = registry.gauge("queue_depth")
    depth.set(5)
    depth.inc()
    depth.dec(2)
    assert depth.value == 4
    peak = registry.gauge("peak_bytes")
    peak.set_max(100)
    peak.set_max(50)  # running max keeps the larger value
    assert peak.value == 100


def test_histogram_buckets_reservoir_and_timer():
    registry = MetricsRegistry()
    hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    series = hist.labels()
    assert series.count == 5
    assert series.sum == pytest.approx(56.05)
    # Per-bucket counts: <=0.1, <=1, <=10, overflow.
    assert series._bucket_counts == [1, 2, 1, 1]
    assert series.quantile(0.5) == pytest.approx(0.5)
    with hist.time() as timer:
        pass
    assert timer.elapsed is not None and timer.elapsed >= 0
    assert series.count == 6


def test_registry_get_or_create_and_conflicts():
    registry = MetricsRegistry()
    first = registry.counter("c", "help", ("a",))
    assert registry.counter("c", "other help", ("a",)) is first
    with pytest.raises(ValueError):
        registry.gauge("c")  # kind conflict
    with pytest.raises(ValueError):
        registry.counter("c", labelnames=("b",))  # label conflict
    registry.histogram("h", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("h", buckets=(1.0, 3.0))  # bucket conflict
    with pytest.raises(ValueError):
        registry.counter("bad name")
    with pytest.raises(ValueError):
        registry.counter("ok", labelnames=("bad-label",))


def test_quantile_interpolation():
    assert quantile([], 0.5) is None
    assert quantile([3.0], 0.99) == 3.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_reservoir_stays_bounded_and_estimates_quantiles():
    registry = MetricsRegistry()
    hist = registry.histogram("wide", buckets=DEFAULT_BUCKETS)
    n = RESERVOIR_SIZE * 3
    for index in range(n):
        hist.observe(index / n)
    series = hist.labels()
    assert len(series._reservoir) == RESERVOIR_SIZE
    assert series.count == n
    # A uniform ramp's median is ~0.5 even from the decayed sample.
    assert series.quantile(0.5) == pytest.approx(0.5, abs=0.1)


# -- concurrency (satellite: threads hammering labeled instruments) ----
def test_concurrent_counter_and_histogram_updates_are_exact():
    registry = MetricsRegistry()
    counter = registry.counter("ops_total", "ops", ("worker",))
    hist = registry.histogram("op_seconds", "ops", ("worker",),
                              buckets=(0.25, 0.5, 0.75))
    per_thread, num_threads = 2000, 8

    def hammer(worker_id):
        label = str(worker_id % 2)  # two label sets, contended
        series = hist.labels(worker=label)
        for index in range(per_thread):
            counter.labels(worker=label).inc()
            series.observe((index % 100) / 100.0)

    threads = [threading.Thread(target=hammer, args=(i,))
               for i in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = per_thread * num_threads
    assert counter.value == total
    snap = registry.snapshot()
    hist_series = snap["histograms"]["op_seconds"]["series"]
    assert sum(entry["count"] for entry in hist_series) == total
    assert sum(sum(entry["bucket_counts"]) for entry in hist_series) == total
    # Cumulative bucket counts must be monotone for every series.
    for entry in hist_series:
        cumulative, previous = 0, -1
        for bucket in entry["bucket_counts"]:
            cumulative += bucket
            assert cumulative >= previous
            previous = cumulative
    problems = validate_prometheus_text(registry.to_prometheus())
    assert problems == []


# -- snapshot / merge --------------------------------------------------
def test_snapshot_merge_adds_counters_and_histograms():
    parent, worker = MetricsRegistry(), MetricsRegistry()
    for registry in (parent, worker):
        registry.counter("jobs", "", ("status",)).labels(
            status="done").inc(3)
        hist = registry.histogram("t", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            hist.observe(value)
        registry.gauge("depth").set(7)
    parent.merge_snapshot(worker.snapshot())
    assert parent.counter("jobs", "", ("status",)).value == 6
    merged = parent.histogram("t", buckets=(1.0, 2.0)).labels()
    assert merged.count == 6
    assert merged.sum == pytest.approx(14.0)
    assert merged._bucket_counts == [2, 2, 2]
    assert parent.gauge("depth").value == 7  # last write wins
    # Merging into an empty registry recreates instruments wholesale.
    fresh = MetricsRegistry()
    fresh.merge_snapshot(parent.snapshot())
    assert fresh.counter("jobs", "", ("status",)).value == 6


def test_snapshot_always_embeds_percentiles():
    registry = MetricsRegistry()
    hist = registry.histogram("t")
    for value in range(1, 101):
        hist.observe(float(value))
    entry = registry.snapshot(include_reservoir=False)
    series = entry["histograms"]["t"]["series"][0]
    assert "reservoir" not in series
    assert series["p50"] == pytest.approx(50.5)
    assert series["p95"] == pytest.approx(95.05)
    with_reservoir = registry.snapshot()["histograms"]["t"]["series"][0]
    assert len(with_reservoir["reservoir"]) == 100


# -- exports -----------------------------------------------------------
def test_prometheus_export_invariants_and_validation():
    registry = MetricsRegistry()
    registry.counter("c_total", "a counter", ("kind",)).labels(
        kind='we"ird\\').inc(2)
    registry.gauge("g", "a gauge").set(-1.5)
    hist = registry.histogram("h_seconds", "a histogram",
                              buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 3.0):
        hist.observe(value)
    text = registry.to_prometheus()
    assert validate_prometheus_text(text) == []
    assert '# TYPE c_total counter' in text
    assert 'h_seconds_bucket{le="+Inf"} 3' in text
    assert 'h_seconds_count 3' in text
    # The checker catches real violations.
    broken = text.replace('h_seconds_bucket{le="+Inf"} 3',
                          'h_seconds_bucket{le="+Inf"} 2')
    assert any("+Inf" in problem
               for problem in validate_prometheus_text(broken))
    assert any("no # TYPE" in problem
               for problem in validate_prometheus_text("mystery 1\n"))


def test_prometheus_checker_cli_runs_once(tmp_path):
    """``python -m repro.telemetry FILE`` exits 0 on a valid file and 1
    on an invalid one, and imports its module only once: runpy's
    RuntimeWarning, raised as an error here, would exit 1 on both."""
    registry = MetricsRegistry()
    registry.counter("c_total", "a counter").inc()
    valid = tmp_path / "valid.prom"
    valid.write_text(registry.to_prometheus())
    invalid = tmp_path / "invalid.prom"
    invalid.write_text("mystery 1\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for path, code in ((valid, 0), (invalid, 1)):
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.telemetry", str(path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == code, result.stderr
        assert "RuntimeWarning" not in result.stderr


def test_json_export_round_trips():
    registry = MetricsRegistry()
    registry.counter("c").inc(4)
    document = json.loads(registry.to_json())
    assert document["schema"] == "repro-metrics/v1"
    assert document["counters"]["c"]["series"][0]["value"] == 4


# -- global guard (cheap-when-off semantics) ---------------------------
def test_enable_disable_cycle_and_env_opt_in(monkeypatch):
    assert metrics_mod.get_registry() is None
    assert telemetry.observed_level() == "off"
    registry = metrics_mod.enable_metrics()
    assert metrics_mod.get_registry() is registry
    metrics_mod.disable_metrics()
    assert metrics_mod.get_registry() is None
    monkeypatch.setenv(telemetry.ENV_VAR, "metrics")
    telemetry._observe_from_env()
    assert metrics_mod.get_registry() is not None
    monkeypatch.setenv(telemetry.ENV_VAR, "off")
    telemetry._observe_from_env()
    assert metrics_mod.get_registry() is None


def test_solver_records_metrics_only_when_enabled():
    from repro.annealing import IsingModel, SimulatedAnnealingSolver

    ising = IsingModel.random(8, density=0.5, seed=3)
    solver = SimulatedAnnealingSolver(num_sweeps=10, num_reads=2, seed=3)
    solver.solve(ising)  # disabled: must not create any state
    registry = metrics_mod.enable_metrics()
    solver.solve(ising)
    snap = registry.snapshot()
    sweeps = snap["counters"]["solver_sweeps_total"]["series"]
    assert sweeps == [{"labels": {"solver": "sa"}, "value": 20.0}]
    moves = {tuple(sorted(entry["labels"].items())): entry["value"]
             for entry in snap["counters"]["solver_moves_total"]["series"]}
    accepted = moves[(("outcome", "accepted"), ("solver", "sa"))]
    rejected = moves[(("outcome", "rejected"), ("solver", "sa"))]
    assert accepted + rejected == 20 * 8  # sweeps * spins


def test_statevector_and_dispatch_record_metrics(monkeypatch):
    import time

    from repro.compile import SolverConfig, dispatch
    from repro.db import JoinOrderQUBO, random_join_graph
    from repro.quantum import Circuit, StatevectorSimulator

    registry = metrics_mod.enable_metrics()
    qc = Circuit(2)
    qc.h(0)
    qc.cx(0, 1)
    state = StatevectorSimulator().run(qc)
    problem = JoinOrderQUBO(random_join_graph(4, "chain", seed=0)).compile()
    # solver_solve_seconds and duration_seconds both time the backend
    # run alone, the same seconds: a slow decode shows in neither.
    decode = dispatch.decode_samples

    def slow_decode(problem, samples):
        time.sleep(0.05)
        return decode(problem, samples)

    monkeypatch.setattr(dispatch, "decode_samples", slow_decode)
    result = dispatch.solve(problem, "sa", config=SolverConfig(
        num_sweeps=20, num_reads=2, seed=1))
    snap = registry.snapshot()
    gates = snap["counters"]["quantum_gate_applications_total"]["series"]
    assert gates == [{"labels": {"mode": "single"}, "value": 2.0}]
    assert (snap["gauges"]["quantum_statevector_peak_bytes"]["series"]
            [0]["value"] == state.nbytes)
    solve_hist = snap["histograms"]["solver_solve_seconds"]["series"]
    assert solve_hist[0]["labels"] == {"solver": "sa"}
    assert solve_hist[0]["count"] == 1
    assert solve_hist[0]["sum"] < 0.05
    assert result.provenance["duration_seconds"] == solve_hist[0]["sum"]


# -- health / SLO rules ------------------------------------------------
def _snapshot_with(timeouts=0, submitted=10, queue_waits=(0.01, 0.02)):
    registry = MetricsRegistry()
    jobs = registry.counter("service_jobs_total", "", ("status",))
    jobs.labels(status="submitted").inc(submitted)
    if timeouts:
        jobs.labels(status="timeout").inc(timeouts)
    events = registry.counter("service_cache_events_total", "", ("event",))
    events.labels(event="hit").inc(4)
    events.labels(event="miss").inc(6)
    wait = registry.histogram("service_queue_wait_seconds")
    for value in queue_waits:
        wait.observe(value)
    return registry.snapshot()


def test_default_rules_pass_on_healthy_snapshot():
    report = evaluate_rules(DEFAULT_SLO_RULES, _snapshot_with())
    assert report.ok
    assert report.status == "ok"
    assert "health: OK" in report.render()


def test_timeout_rate_rule_fails_and_report_serializes():
    report = evaluate_rules(DEFAULT_SLO_RULES,
                            _snapshot_with(timeouts=5))
    assert report.status == "fail"
    assert [r.rule for r in report.failures()] == ["timeout_rate"]
    payload = report.to_dict()
    assert payload["status"] == "fail"
    assert any(entry["status"] == "fail" for entry in payload["rules"])


def test_missing_metric_degrades_to_warn_not_crash():
    rule = SLORule(name="ghost", expr="p95(nonexistent_seconds) < 1")
    result = evaluate_rule(rule, _snapshot_with())
    assert result.status == "warn"
    assert "not collected" in result.reason
    # Unmatched labels on an existing counter read as zero instead.
    rule = SLORule(name="zero",
                   expr="value(service_jobs_total, status='failed') <= 0")
    assert evaluate_rule(rule, _snapshot_with()).status == "ok"


def test_warn_band_and_expression_safety():
    rule = SLORule(name="wait",
                   expr="p95(service_queue_wait_seconds) < 10",
                   warn="p95(service_queue_wait_seconds) < 0.001")
    result = evaluate_rule(rule, _snapshot_with())
    assert result.status == "warn"  # passes fail bar, misses warn bar
    with pytest.raises(health_mod.SLOExpressionError):
        evaluate_rule(SLORule(name="evil",
                              expr="__import__('os').getpid() > 0"),
                      _snapshot_with())


def test_bucket_quantile_fallback_without_reservoir():
    registry = MetricsRegistry()
    wait = registry.histogram("service_queue_wait_seconds")
    for value in (0.2,) * 99 + (40.0,):
        wait.observe(value)
    snapshot = registry.snapshot(include_reservoir=False)
    rule = SLORule(name="wait",
                   expr="p95(service_queue_wait_seconds) < 5.0")
    assert evaluate_rule(rule, snapshot).status == "ok"


# -- sampler -----------------------------------------------------------
def test_sampler_appends_jsonl_snapshots(tmp_path):
    registry = metrics_mod.enable_metrics()
    registry.counter("ticks").inc()
    path = tmp_path / "samples.jsonl"
    sampler = MetricsSampler(str(path), interval=0.01)
    sampler.start()
    import time as _time

    _time.sleep(0.06)
    written = sampler.stop()
    assert written >= 2  # periodic samples plus the final one
    lines = path.read_text().strip().splitlines()
    assert len(lines) == written
    for line in lines:
        sample = json.loads(line)
        assert sample["metrics"]["schema"] == "repro-metrics/v1"
        assert sample["metrics"]["counters"]["ticks"]["series"][0][
            "value"] == 1


def test_sampler_requires_a_registry():
    sampler = MetricsSampler("/tmp/unused.jsonl")
    with pytest.raises(RuntimeError):
        sampler.start()


# -- metrics-report CLI ------------------------------------------------
def test_metrics_report_renders_dashboard_and_diff(tmp_path, capsys):
    registry = MetricsRegistry()
    registry.counter("jobs_total", "", ("status",)).labels(
        status="done").inc(5)
    hist = registry.histogram("wait_seconds")
    for value in (0.01, 0.02, 0.03):
        hist.observe(value)
    baseline = tmp_path / "base.json"
    baseline.write_text(registry.to_json())
    registry.counter("jobs_total", "", ("status",)).labels(
        status="done").inc(3)
    current = tmp_path / "now.json"
    current.write_text(registry.to_json())

    assert report_main([str(current), "--no-health"]) == 0
    text = capsys.readouterr().out
    assert "wait_seconds" in text and "p95" in text

    assert report_main([str(current), str(baseline),
                        "--no-health"]) == 0
    text = capsys.readouterr().out
    assert "+3" in text  # counter delta against the baseline


def test_metrics_report_health_exit_codes(tmp_path, capsys):
    snapshot = _snapshot_with(timeouts=5)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(snapshot))
    assert report_main([str(path)]) == 0  # default: report only
    capsys.readouterr()
    assert report_main([str(path), "--fail-on", "fail"]) == 1
    capsys.readouterr()
    assert report_main([str(tmp_path / "missing.json")]) == 2


# -- service instrumentation -------------------------------------------
@pytest.mark.parametrize("mode", ["process", "thread"])
def test_service_metrics_cover_jobs_and_merge_worker_registries(mode):
    from repro.compile import SolverConfig
    from repro.db import JoinOrderQUBO, random_join_graph
    from repro.service import SolveService

    registry = metrics_mod.enable_metrics()
    specs = []
    for index in range(3):
        graph = random_join_graph(4, "chain", seed=index)
        config = SolverConfig(num_sweeps=40, num_reads=2,
                              seed=50 + index, convergence=False)
        specs.append((JoinOrderQUBO(graph).compile(), "sa", config))
    # Workers forked inside an open span start their own nesting, so
    # worker span paths read the same in both modes.
    with telemetry.span("outer"):
        with SolveService(max_workers=2, mode=mode) as service:
            service.solve_many(specs)
    snap = registry.snapshot()
    worker_spans = registry.get(telemetry.SPAN_METRIC)
    assert worker_spans.labels(path="service.worker.sa").count == 3

    jobs = {entry["labels"]["status"]: entry["value"]
            for entry in snap["counters"]["service_jobs_total"]["series"]}
    assert jobs["submitted"] == 3
    assert jobs["done"] == 3
    wait = snap["histograms"]["service_queue_wait_seconds"]["series"][0]
    assert wait["count"] == 3
    execute = snap["histograms"]["service_execute_seconds"]["series"][0]
    assert execute["labels"] == {"solver": "sa"}
    assert execute["count"] == 3
    # Solver-level metrics are recorded inside the worker; in process
    # mode they only reach the parent via the snapshot merge. Warm
    # workers accumulate across all their jobs and merge exactly once
    # each, at pool drain — so the cumulative totals are intact while
    # the merge count is bounded by the pool size, not the job count.
    sweeps = snap["counters"]["solver_sweeps_total"]["series"][0]
    assert sweeps["value"] == 3 * 40 * 2  # jobs * sweeps * reads
    if mode == "process":
        merges = snap["counters"]["service_metrics_merges_total"]
        assert 1 <= merges["series"][0]["value"] <= 2  # <= pool size
        respawns = snap["counters"]["service_worker_respawns_total"]
        assert respawns["series"][0]["value"] == 0


def test_cache_events_counter_tracks_hits_and_misses():
    from repro.compile import SolverConfig
    from repro.db import JoinOrderQUBO, random_join_graph
    from repro.service import SolveService

    registry = metrics_mod.enable_metrics()
    problem = JoinOrderQUBO(random_join_graph(4, "chain", seed=0)).compile()
    config = SolverConfig(num_sweeps=30, num_reads=2, seed=9,
                          convergence=False)
    with SolveService(max_workers=1, mode="thread") as service:
        service.submit(problem, "sa", config).result(timeout=60)
        service.submit(problem, "sa", config).result(timeout=60)
    events = {entry["labels"]["event"]: entry["value"]
              for entry in registry.snapshot()["counters"]
              ["service_cache_events_total"]["series"]}
    assert events["miss"] == 1
    assert events["hit"] == 1


def test_load_snapshot_handles_jsonl_lines(tmp_path):
    registry = metrics_mod.enable_metrics()
    registry.counter("ticks").inc()
    path = tmp_path / "samples.jsonl"
    with MetricsSampler(str(path), interval=5.0):
        registry.counter("ticks").inc()
    last = load_snapshot(str(path))
    assert last["counters"]["ticks"]["series"][0]["value"] == 2
    first = load_snapshot(str(path), line=1)
    assert first["schema"] == "repro-metrics/v1"

"""Tests for the live-metrics layer: instruments, registry, exports,
health rules, report CLI and hot-path instrumentation."""

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro import telemetry
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
from repro.telemetry.metrics_report import main as report_main


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


def test_reservoir_merge_weights_each_side_by_its_count():
    def observed(value, times):
        registry = MetricsRegistry()
        series = registry.histogram("t").labels()
        for _ in range(times):
            series.observe(value)
        return registry

    # 3,000 slow observations are 2.9% of the 103,000; in either merge
    # order they keep about that share of the merged reservoir.
    expected = 3_000 / 103_000
    for first, second in (((1.0, 100_000), (100.0, 3_000)),
                          ((100.0, 3_000), (1.0, 100_000))):
        registry = observed(*first)
        registry.merge_snapshot(observed(*second).snapshot())
        (series,) = registry.snapshot()["histograms"]["t"]["series"]
        assert series["count"] == 103_000
        assert len(series["reservoir"]) == RESERVOIR_SIZE
        share = series["reservoir"].count(100.0) / RESERVOIR_SIZE
        assert abs(share - expected) <= 0.015, share
        assert series["p50"] == series["p95"] == 1.0


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
def _snapshot_with(timeouts=0, failures=0, submitted=10, hits=4,
                   misses=6, queue_waits=(0.01, 0.02),
                   include_reservoir=True):
    """A service snapshot; ``hits=None`` leaves out the cache counter,
    ``queue_waits=None`` the queue-wait histogram."""
    registry = MetricsRegistry()
    jobs = registry.counter("service_jobs_total", "", ("status",))
    jobs.labels(status="submitted").inc(submitted)
    if timeouts:
        jobs.labels(status="timeout").inc(timeouts)
    if failures:
        jobs.labels(status="failed").inc(failures)
    if hits is not None:
        events = registry.counter("service_cache_events_total", "",
                                  ("event",))
        events.labels(event="hit").inc(hits)
        events.labels(event="miss").inc(misses)
    if queue_waits is not None:
        wait = registry.histogram("service_queue_wait_seconds").labels()
        for value in queue_waits:
            wait.observe(value)
    return registry.snapshot(include_reservoir=include_reservoir)


_RULES = {rule.name: rule for rule in DEFAULT_SLO_RULES}


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
    assert all(set(entry) == {"rule", "status", "reason", "expr"}
               for entry in payload["rules"])


def test_missing_metric_degrades_to_warn_not_crash():
    result = evaluate_rule(_RULES["queue_wait_p95"],
                           _snapshot_with(queue_waits=None))
    assert result.status == "warn"
    assert "not collected" in result.reason
    # Unmatched labels on an existing counter read as zero instead.
    assert evaluate_rule(_RULES["failure_rate"],
                         _snapshot_with()).status == "ok"


def test_warn_band_on_default_rules():
    result = evaluate_rule(_RULES["queue_wait_p95"],
                           _snapshot_with(queue_waits=(2.0,)))
    assert result.status == "warn"  # passes fail bar, misses warn bar
    assert result.expr == "p95(service_queue_wait_seconds) < 1"
    result = evaluate_rule(_RULES["cache_hit_ratio"],
                           _snapshot_with(hits=2, misses=8))
    assert result.status == "warn"
    # A rule only compares: an unknown comparison is refused up front.
    with pytest.raises(ValueError):
        SLORule("wait", "p95", lambda snapshot: 0.0, "==", 1.0)


def test_reservoirless_snapshot_reads_its_own_p95():
    snapshot = _snapshot_with(queue_waits=(0.2,) * 99 + (40.0,),
                              include_reservoir=False)
    (series,) = snapshot["histograms"]["service_queue_wait_seconds"][
        "series"]
    assert "reservoir" not in series
    assert series["p95"] == pytest.approx(0.2)
    result = evaluate_rule(_RULES["queue_wait_p95"], snapshot)
    assert (result.status, result.reason) == ("ok", "0.2 < 5")


#: The queue-wait, cache and job instruments of CI's metrics-smoke
#: ``metrics.json`` (serve-bench --jobs 6 --workers 2 --sweeps 200).
_CI_METRICS_JSON = {
    "schema": "repro-metrics/v1",
    "counters": {
        "service_jobs_total": {"labelnames": ["status"], "series": [
            {"labels": {"status": "cache_hit"}, "value": 6.0},
            {"labels": {"status": "done"}, "value": 6.0},
            {"labels": {"status": "submitted"}, "value": 6.0}]},
        "service_cache_events_total": {"labelnames": ["event"], "series": [
            {"labels": {"event": "hit"}, "value": 6.0},
            {"labels": {"event": "miss"}, "value": 6.0}]},
    },
    "gauges": {},
    "histograms": {"service_queue_wait_seconds": {
        "buckets": list(DEFAULT_BUCKETS), "labelnames": [], "series": [{
            "labels": {}, "count": 6, "sum": 0.18351891899874317,
            "bucket_counts": [0, 0, 0, 0, 2, 0, 0, 0, 2, 2, 0,
                              0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "p50": 0.032994128999689565, "p95": 0.05667724399995677,
            "p99": 0.05684202880006524,
            "reservoir": [0.0021043699998699594, 0.002483764999851701,
                          0.032445056999677035, 0.033543200999702094,
                          0.05605930099955003, 0.05688322500009235],
        }]}},
}

_PARITY_SNAPSHOTS = {
    "healthy": {},
    "timeouts": {"timeouts": 5},
    "failures": {"failures": 1},
    "queue_wait_warn": {"queue_waits": tuple(0.1 * k for k in range(1, 31))},
    "queue_wait_fail": {"queue_waits": tuple(float(k) for k in range(1, 11))},
    "cold_cache": {"hits": 0, "misses": 10},
    "warn_cache": {"hits": 2, "misses": 8},
    "no_cache_counter": {"hits": None},
    "cache_0_of_0": {"hits": 0, "misses": 0},
    "no_histogram": {"queue_waits": None},
    "empty_histogram": {"queue_waits": ()},
    "no_submitted_jobs": {"submitted": 0},
    "reservoirless": {"queue_waits": (0.2,) * 99 + (40.0,),
                      "include_reservoir": False},
}

_OK = ("ok", "0.0195 < 5"), ("ok", "0.4 >= 0.1"), ("ok", "0 <= 0.05"), \
    ("ok", "0 <= 0.01")
_NOT_EVALUATED = ("warn", "not evaluated:")

#: (status, reason) per rule, in DEFAULT_SLO_RULES order, as the
#: expression-language rules before them gave. A ``not evaluated:``
#: reason keeps only its prefix: the wording names the missing number.
_PARITY_TABLE = {
    "healthy": _OK,
    "timeouts": (_OK[0], _OK[1], ("fail", "violated: 0.5 <= 0.05"),
                 _OK[3]),
    "failures": (_OK[0], _OK[1], _OK[2],
                 ("fail", "violated: 0.1 <= 0.01")),
    "queue_wait_warn": (
        ("warn", "ok but past warning threshold: 2.855 < 1"), *_OK[1:]),
    "queue_wait_fail": (("fail", "violated: 9.55 < 5"), *_OK[1:]),
    "cold_cache": (_OK[0], ("fail", "violated: 0 >= 0.1"), *_OK[2:]),
    "warn_cache": (
        _OK[0], ("warn", "ok but past warning threshold: 0.2 >= 0.25"),
        *_OK[2:]),
    "no_cache_counter": (_OK[0], _NOT_EVALUATED, *_OK[2:]),
    "cache_0_of_0": (_OK[0], _NOT_EVALUATED, *_OK[2:]),
    "no_histogram": (_NOT_EVALUATED, *_OK[1:]),
    "empty_histogram": (_NOT_EVALUATED, *_OK[1:]),
    "no_submitted_jobs": (_OK[0], _OK[1], _NOT_EVALUATED,
                          _NOT_EVALUATED),
    # The one deliberate change: the expression rules interpolated
    # bucket counts here and read 0.2439; the rule reads the
    # snapshot's own p95, which the dashboard prints too.
    "reservoirless": (("ok", "0.2 < 5"), *_OK[1:]),
    "ci_metrics_json": (("ok", "0.05668 < 5"), ("ok", "0.5 >= 0.1"),
                        *_OK[2:]),
}


@pytest.mark.parametrize("case", sorted(_PARITY_TABLE))
def test_default_rules_match_the_recorded_table(case):
    snapshot = (_CI_METRICS_JSON if case == "ci_metrics_json"
                else _snapshot_with(**_PARITY_SNAPSHOTS[case]))
    report = evaluate_rules(DEFAULT_SLO_RULES, snapshot)
    assert [r.rule for r in report.results] == [
        "queue_wait_p95", "cache_hit_ratio", "timeout_rate",
        "failure_rate"]
    for result, (status, reason) in zip(report.results,
                                        _PARITY_TABLE[case]):
        assert result.status == status, result
        if reason == "not evaluated:":
            assert result.reason.startswith(reason), result
        else:
            assert result.reason == reason, result


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
    text = capsys.readouterr().out
    for rule in DEFAULT_SLO_RULES:
        assert rule.name in text
    # A serve-bench --json-out document carries the snapshot under
    # its "metrics" key.
    wrapped = tmp_path / "bench.json"
    wrapped.write_text(json.dumps({"schema": "repro-serve-bench/v1",
                                   "metrics": snapshot}))
    assert report_main([str(wrapped), "--fail-on", "fail"]) == 1
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


def test_serve_bench_metrics_cover_the_service_run_only(tmp_path, capsys):
    from repro.service import bench

    path = tmp_path / "metrics.json"
    assert bench.main(["--jobs", "2", "--workers", "1", "--mode", "thread",
                       "--sweeps", "20", "--metrics-json", str(path)]) == 0
    capsys.readouterr()
    snapshot = json.loads(path.read_text())
    # The sequential baseline solves the same jobs with the registry
    # parked, so each solve counts once.
    (sweeps,) = snapshot["counters"]["solver_sweeps_total"]["series"]
    assert sweeps["value"] == 2 * 20 * 4  # jobs * sweeps * reads
    (solves,) = snapshot["histograms"]["solver_solve_seconds"]["series"]
    assert solves["count"] == 2
    paths = {series["labels"]["path"] for series in
             snapshot["histograms"]["span_seconds"]["series"]}
    assert not any(path.startswith("compile.solve") for path in paths)
    assert metrics_mod.get_registry() is None  # the level is restored


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

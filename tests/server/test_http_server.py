"""End-to-end HTTP server tests over an in-process ServerThread.

Thread-mode (``workers=0``) keeps these fast; one process-mode test
(`test_process_mode_parity`) checks the warm-pool path produces the
same bits. Submission bodies deliberately vary their coefficients —
identical bodies are idempotent (same job) and identical *solves*
coalesce inside the service, which would defeat the backpressure
tests.
"""

import asyncio
import json
import math
import threading
import time

import pytest

from repro import telemetry
from repro.compile.dispatch import SolverConfig, solve
from repro.server import build_problem, result_document
from repro.server.jobs import ServerJob
from repro.server.testing import Client, ServerThread
from repro.service import Job, JobHandle, JobStatus
from repro.service import service as service_module
from repro.telemetry import metrics as _metrics


def problem_body(*, bias=-1.0, coupling=2.0, seed=7, num_variables=4,
                 sweeps=200, reads=3, convergence=True, **extra):
    """A small, distinct QUBO submission body."""
    body = {
        "problem": {
            "kind": "qubo",
            "num_variables": num_variables,
            "linear": {str(i): bias for i in range(num_variables)},
            "quadratic": [[i, i + 1, coupling]
                          for i in range(num_variables - 1)],
        },
        "solver": "sa",
        "config": {"num_sweeps": sweeps, "num_reads": reads,
                   "seed": seed, "convergence": convergence},
    }
    body.update(extra)
    return body


def direct_document(body):
    """Solve the same body in-process; config resolved the way the
    service stores it (``convergence`` ``None`` -> effective bool)."""
    problem = build_problem(body["problem"])
    config = SolverConfig(**body["config"]).resolve_convergence()
    return result_document(solve(problem, body["solver"], config))


def strip_provenance(document):
    return {key: value for key, value in document.items()
            if key != "provenance"}


class CountingLoop:
    """The server's event loop, counting ``call_soon_threadsafe``."""

    def __init__(self, loop):
        self._loop = loop
        self.wakeups = 0

    def call_soon_threadsafe(self, callback, *args):
        self.wakeups += 1
        return self._loop.call_soon_threadsafe(callback, *args)

    def __getattr__(self, name):
        return getattr(self._loop, name)


class RecordingWriter:
    """A stream writer keeping each write and counting drains;
    ``attached`` is set once the response head, ``hello`` and the
    first chunk are written."""

    def __init__(self):
        self.writes = []
        self.drains = 0
        self.attached = threading.Event()

    def write(self, data):
        self.writes.append(bytes(data))
        if len(self.writes) >= 3:
            self.attached.set()

    async def drain(self):
        self.drains += 1

    def frames(self):
        """The SSE frames after the response head, as (event, data)."""
        frames = []
        for block in b"".join(self.writes[1:]).decode().split("\n\n"):
            if block:
                event, data = block.split("\n")
                frames.append((event[len("event: "):],
                               json.loads(data[len("data: "):])))
        return frames


def run_stream(thread, loop, job_id):
    """Run the stream route on the server's loop into a recorder."""
    writer = RecordingWriter()
    future = asyncio.run_coroutine_threadsafe(
        thread.server._handle_stream(None, writer, {"id": job_id}, None),
        loop)
    return writer, future


@pytest.fixture(scope="module")
def server():
    # The serve CLI's default level: metrics and trace contexts on —
    # the status document's trace_id is part of the API contract.
    telemetry.observe("context")
    try:
        with ServerThread(workers=0, quota_rate=1000.0,
                          quota_burst=1000.0, max_inflight=64,
                          queue_capacity=64) as thread:
            yield thread
    finally:
        telemetry.observe("off")


@pytest.fixture(scope="module")
def client(server):
    with Client(*server.address) as c:
        yield c


class TestBasics:
    def test_healthz(self, client):
        status, _, document = client.get("/healthz")
        assert status == 200
        assert document["schema"] == "repro-server/v1"
        assert document["status"] == "ok"
        assert document["queue"]["capacity"] == 64

    def test_unknown_route_404(self, client):
        status, _, document = client.get("/nope")
        assert status == 404
        assert document["status"] == 404

    def test_wrong_method_405(self, client):
        status, _, _ = client.request("DELETE", "/v1/jobs")
        assert status == 405

    def test_unknown_job_404(self, client):
        status, _, _ = client.get("/v1/jobs/deadbeef")
        assert status == 404

    def test_bad_json_400(self, client):
        status, _, document = client.request("POST", "/v1/jobs",
                                             "not json")
        assert status == 400
        assert "error" in document

    def test_bad_problem_400(self, client):
        status, _, _ = client.submit({"problem": {"kind": "maxcut"},
                                      "solver": "sa"})
        assert status == 400
        status, _, _ = client.submit(
            {"problem": {"kind": "qubo", "num_variables": 2},
             "solver": "sa", "config": {"bogus_knob": 1}})
        assert status == 400
        status, _, _ = client.submit(
            {"problem": {"kind": "qubo", "num_variables": 2},
             "solver": "sa", "config": {"num_sweeps": 2.5}})
        assert status == 400
        # Malformed terms and counts are refused up front, never
        # truncated, solved to NaN or failed in the backend.
        qubo = {"kind": "qubo", "num_variables": 2}
        ising = {"kind": "ising", "num_spins": 2}
        for problem in (
                {**qubo, "linear": {"-1": -5.0}},
                {**ising, "h": {"-1": 1.0}},
                {**ising, "j": [[0, -1, 1.0]]},
                {**qubo, "linear": {"0": math.nan}},
                {**qubo, "linear": [[0, "nan"]]},
                {**qubo, "quadratic": [[0, 1, math.inf]]},
                {**ising, "j": [[0, 1, -math.inf]]},
                {**qubo, "offset": math.nan},
                {**qubo, "linear": [[0, 1e308], [0, 1e308]]},
                {**qubo, "quadratic": [[0, 1.5, 1.0]]},
                {**qubo, "quadratic": [[True, 1, 1.0]]},
                {**qubo, "num_variables": 2.7},
                {**qubo, "num_variables": True},
                {**ising, "num_spins": 2.0}):
            status, _, document = client.submit(
                {"problem": problem, "solver": "sa"})
            assert status == 400, (problem, document)
        # So are deadlines that are not a finite number above zero.
        for deadline in (math.nan, math.inf, -math.inf, "nan", True):
            status, _, document = client.submit(
                problem_body(seed=41, deadline=deadline))
            assert status == 400, (deadline, document)
        # repair is a JSON boolean or absent: "false" must not turn
        # repair on.
        for repair in ("false", "0", 1, None):
            status, _, document = client.submit(
                problem_body(seed=43, repair=repair))
            assert status == 400, (repair, document)
            assert "repair" in document["error"], document

    def test_metrics_endpoint_validates(self, client):
        # Metrics are process-global: with the registry off the
        # endpoint degrades to 503 and names the switch that turns it
        # on; with it on it serves exposition text that passes the
        # validator.
        registry = _metrics.get_registry()
        _metrics.disable_metrics()
        try:
            status, _, text = client.get("/metrics")
        finally:
            _metrics.enable_metrics(registry)
        assert status == 503
        assert "--observe" in text and "REPRO_OBSERVE" in text
        client.get("/healthz")  # populate request counters
        status, _, text = client.get("/metrics")
        assert status == 200
        assert _metrics.validate_prometheus_text(text) == []
        assert "server_requests_total" in text

    def test_list_limit_is_a_positive_integer(self, client):
        for seed in (44, 45, 46):
            status, _, _ = client.submit(problem_body(seed=seed))
            assert status == 201
        status, _, document = client.get("/v1/jobs")
        assert status == 200
        total = document["count"]
        assert total >= 3 and len(document["jobs"]) == total
        for limit, shown in (("1", 1), ("2", 2), ("5000", total)):
            status, _, document = client.get(f"/v1/jobs?limit={limit}")
            assert status == 200, (limit, document)
            assert len(document["jobs"]) == shown, limit
        for limit in ("abc", "1.5", "-1", "0", ""):
            status, _, document = client.get(f"/v1/jobs?limit={limit}")
            assert status == 400, (limit, document)
            assert "limit" in document["error"], document


class TestJobsApi:
    def test_submit_result_parity(self, client):
        body = problem_body(seed=101)
        status, _, accepted = client.submit(body)
        assert status == 201
        assert accepted["idempotent"] is False
        assert accepted["kind"] == "problem"
        job_id = accepted["job_id"]
        status, document = client.wait_result(job_id)
        assert status == 200
        assert document["status"] == "done"
        # Bit-for-bit parity with a direct in-process solve.
        assert (strip_provenance(document["result"])
                == strip_provenance(direct_document(body)))

    def test_resubmit_is_idempotent(self, client):
        body = problem_body(seed=102)
        _, _, first = client.submit(body)
        status, _, second = client.submit(body)
        assert status == 200
        assert second["idempotent"] is True
        assert second["job_id"] == first["job_id"]

    def test_tag_forces_new_job_but_hits_cache(self, client):
        body = problem_body(seed=103)
        _, _, first = client.submit(body)
        client.wait_result(first["job_id"])
        status, _, second = client.submit(dict(body, tag="retry-1"))
        assert status == 201
        assert second["job_id"] != first["job_id"]
        assert second["tag"] == "retry-1"
        events = list(client.stream(second["job_id"]))
        names = [data.get("name") for event, data, _ in events
                 if event == "lifecycle"]
        assert "cache_hit" in names

    def test_status_document(self, client):
        body = problem_body(seed=104)
        _, _, accepted = client.submit(body)
        job_id = accepted["job_id"]
        client.wait_result(job_id)
        status, _, document = client.get(f"/v1/jobs/{job_id}")
        assert status == 200
        assert document["status"] == "done"
        assert document["trace_id"]
        assert document["links"]["stream"].endswith("/stream")

    def test_listing_contains_job(self, client):
        _, _, accepted = client.submit(problem_body(seed=105))
        status, _, document = client.get("/v1/jobs")
        assert status == 200
        assert accepted["job_id"] in [job["job_id"]
                                      for job in document["jobs"]]

    def test_result_202_before_done(self, client):
        body = problem_body(seed=106, sweeps=2000, reads=10)
        _, _, accepted = client.submit(body)
        status, _, document = client.get(
            f"/v1/jobs/{accepted['job_id']}/result")
        assert status in (200, 202)  # 202 unless the solve raced us
        if status == 202:
            assert document["status"] in ("queued", "running")
        client.wait_result(accepted["job_id"])

    def test_ising_submission(self, client):
        body = {
            "problem": {
                "kind": "ising",
                "num_spins": 3,
                "h": {"0": 0.5, "2": -0.5},
                "j": [[0, 1, 1.0], [1, 2, -1.0]],
            },
            "solver": "sa",
            "config": {"num_sweeps": 200, "num_reads": 2, "seed": 11},
        }
        _, _, accepted = client.submit(body)
        status, document = client.wait_result(accepted["job_id"])
        assert status == 200
        assert document["result"]["feasible"] is True


class TestStreaming:
    def test_sse_replay_order_and_schema(self, client):
        body = problem_body(seed=110)
        _, _, accepted = client.submit(body)
        client.wait_result(accepted["job_id"])
        events = list(client.stream(accepted["job_id"]))
        names = [event for event, _, _ in events]
        assert names[0] == "hello"
        assert names[-1] == "done"
        hello = events[0][1]
        assert hello["schema"] == "repro-stream/v1"
        assert hello["job_id"] == accepted["job_id"]
        lifecycle = [data["name"] for event, data, _ in events
                     if event == "lifecycle"]
        assert lifecycle[0] == "submitted"
        assert lifecycle[-1] == "finished"
        convergence = [data for event, data, _ in events
                       if event == "convergence"]
        assert convergence, "convergence=True should stream rows"
        result = [data for event, data, _ in events if event == "result"]
        assert len(result) == 1
        # Ordering: all convergence rows precede the result frame.
        assert names.index("result") > max(
            i for i, n in enumerate(names) if n == "convergence")

    def test_sse_tails_a_running_job(self, client):
        body = problem_body(seed=111, sweeps=2000, reads=10)
        _, _, accepted = client.submit(body)
        # Connect immediately: the journal has at most the submitted
        # event, so everything else arrives through the live tail.
        events = list(client.stream(accepted["job_id"]))
        names = [event for event, _, _ in events]
        assert names[-1] == "done"
        assert "convergence" in names
        assert "result" in names


class TestWorkloadRoute:
    def test_workload_submission_returns_plan(self, client):
        body = {
            "workload": {"topologies": ["chain"], "sizes": [4],
                         "instances_per_cell": 1, "seed": 3,
                         "index": 0},
            "solver": "sa",
            "config": {"num_sweeps": 300, "num_reads": 3, "seed": 5},
        }
        status, _, accepted = client.submit(body)
        assert status == 201
        assert accepted["kind"] == "workload"
        status, document = client.wait_result(accepted["job_id"])
        assert status == 200
        plan = document["result"]
        assert plan["schema"] == "repro-pipeline/v1"
        assert plan["status"] == "ok"
        assert plan["formulation"] == "joinorder"

    def test_workload_bounds_rejected(self, client):
        base = {"solver": "sa", "config": {"seed": 1}}
        for spec in ({"sizes": [40]},
                     {"instances_per_cell": 1000},
                     {"formulation": "nope"},
                     {"index": 99}):
            status, _, _ = client.submit(
                dict(base, workload=dict({"sizes": [4]}, **spec)))
            assert status == 400


class TestAdmissionOverHttp:
    def test_quota_429_and_recovery(self):
        with ServerThread(workers=0, quota_rate=5.0, quota_burst=2.0,
                          max_inflight=64) as thread:
            with Client(*thread.address, tenant="quota-t") as c:
                accepted = [c.submit(problem_body(seed=200 + i))
                            for i in range(2)]
                assert all(status == 201
                           for status, _, _ in accepted)
                status, headers, document = c.submit(
                    problem_body(seed=250))
                assert status == 429
                assert document["reason"] == "quota"
                retry = document["retry_after_seconds"]
                assert 0 < retry <= 1.0 / 5.0 + 1e-6
                assert headers["retry-after"] == str(
                    max(1, math.ceil(retry)))
                # After the refill interval the tenant recovers.
                time.sleep(retry + 0.1)
                status, _, _ = c.submit(problem_body(seed=251))
                assert status == 201
                for status_code, _, document in accepted:
                    c.wait_result(document["job_id"])

    def test_queue_backpressure_never_hangs(self):
        with ServerThread(workers=0, queue_capacity=2,
                          quota_rate=1000.0, quota_burst=1000.0,
                          max_inflight=64) as thread:
            with Client(*thread.address) as c:
                outcomes = []
                for i in range(10):
                    outcomes.append(c.submit(
                        problem_body(seed=300 + i, coupling=1.5 + i,
                                     sweeps=800, reads=5)))
                accepted = [d for s, _, d in outcomes if s == 201]
                rejected = [(s, h, d) for s, h, d in outcomes
                            if s == 429]
                assert rejected, "queue_capacity=2 must shed load"
                for status_code, headers, document in rejected:
                    assert document["reason"] == "queue"
                    assert int(headers["retry-after"]) >= 1
                # The loop stays responsive while saturated.
                started = time.perf_counter()
                status, _, _ = c.get("/healthz")
                assert status == 200
                assert time.perf_counter() - started < 1.0
                # Every accepted job still completes.
                for document in accepted:
                    status, result = c.wait_result(document["job_id"])
                    assert status == 200

    def test_inflight_cap(self):
        with ServerThread(workers=0, quota_rate=1000.0,
                          quota_burst=1000.0, max_inflight=1,
                          queue_capacity=64) as thread:
            with Client(*thread.address) as c:
                _, _, first = c.submit(
                    problem_body(seed=400, sweeps=2000, reads=10))
                status, _, document = c.submit(problem_body(seed=401))
                assert status == 429
                assert document["reason"] == "inflight"
                # Releasing the slot (job done) re-opens admission.
                c.wait_result(first["job_id"])
                status, _, _ = c.submit(problem_body(seed=402))
                assert status == 201

    def test_slot_is_free_before_the_job_turns_terminal(self,
                                                        monkeypatch):
        # A client woken by the terminal state may resubmit at once:
        # its inflight slot must already be free when the job finishes.
        inflight_at_finish = []
        finish = ServerJob.finish
        with ServerThread(workers=0, quota_rate=1000.0,
                          quota_burst=1000.0, max_inflight=1,
                          queue_capacity=64) as thread:
            admission = thread.server.admission

            def recording_finish(job, status, **kwargs):
                inflight_at_finish.append(admission.inflight(job.tenant))
                return finish(job, status, **kwargs)

            monkeypatch.setattr(ServerJob, "finish", recording_finish)
            with Client(*thread.address, tenant="slot-t") as c:
                statuses = []
                for index in range(10):
                    status, _, accepted = c.submit(
                        problem_body(seed=600 + index))
                    statuses.append(status)
                    if status == 201:
                        c.wait_result(accepted["job_id"])
        assert statuses == [201] * 10
        assert inflight_at_finish == [0] * 10


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self):
        thread = ServerThread(workers=0, quota_rate=1000.0,
                              quota_burst=1000.0, max_inflight=8,
                              queue_capacity=16)
        thread.start()
        try:
            with Client(*thread.address) as c:
                _, _, accepted = c.submit(
                    problem_body(seed=500, sweeps=2000, reads=10))
                thread.server.request_drain()
                # New submissions are shed while the slow job drains.
                deadline = time.monotonic() + 5.0
                saw_503 = False
                attempt = 0
                while time.monotonic() < deadline and not saw_503:
                    attempt += 1
                    try:
                        status, headers, document = c.submit(
                            problem_body(seed=500 + attempt))
                    except (ConnectionError, RuntimeError, OSError):
                        break  # listener already closed: drained
                    if status == 503:
                        saw_503 = True
                        assert document["reason"] == "draining"
                        assert headers["retry-after"] == "30"
                    elif status == 201:
                        time.sleep(0.01)  # drain flag not set yet
                    else:
                        raise AssertionError(f"unexpected {status}")
                assert saw_503
        finally:
            thread.stop()
        job = thread.server.jobs.get(accepted["job_id"])
        assert job is not None
        assert job.status == "done"
        # The 503s are admission decisions too: /healthz and the drain
        # capsule report them.
        rejected = thread.server.admission.snapshot()["rejected"]
        assert rejected.get("draining", 0) >= 1


class TestProcessMode:
    def test_process_mode_parity(self):
        body = problem_body(seed=600, sweeps=500, reads=4)
        expected = strip_provenance(direct_document(body))
        with ServerThread(workers=2) as thread:
            with Client(*thread.address, timeout=120.0) as c:
                status, _, accepted = c.submit(body)
                assert status == 201
                status, document = c.wait_result(accepted["job_id"],
                                                 timeout=120.0)
                assert status == 200
                assert (strip_provenance(document["result"])
                        == expected)


class TestJobStatus:
    @pytest.mark.parametrize("workers", [0, 1], ids=["thread", "process"])
    def test_status_reads_running_while_the_service_job_runs(self,
                                                             workers):
        with ServerThread(workers=workers, quota_rate=1000.0,
                          quota_burst=1000.0) as thread:
            with Client(*thread.address, timeout=120.0) as c:
                _, _, accepted = c.submit(
                    problem_body(seed=700 + workers, sweeps=2000,
                                 reads=10))
                job_id = accepted["job_id"]
                job = thread.server.jobs.get(job_id)
                handle = job.handle
                assert handle is not None
                while_running = []
                while not handle.done():
                    before = handle.status
                    _, _, document = c.get(f"/v1/jobs/{job_id}")
                    if before is handle.status is JobStatus.RUNNING:
                        while_running.append(document["status"])
                assert while_running
                assert set(while_running) == {"running"}
                status, _ = c.wait_result(job_id, timeout=120.0)
                assert status == 200
        # A finished job keeps none of the service's problem or result.
        assert job.handle is None
        assert not [value for value in vars(job).values()
                    if isinstance(value, (Job, JobHandle))]


class TestStreamFrames:
    def test_one_chunk_and_one_drain_per_wakeup(self, monkeypatch):
        # A 50-sweep convergence job sends 55 frames. They are logged
        # with two event-loop wake-ups (submitted, then the rest) and
        # written one chunk and one drain per wake-up, with the same
        # frames in the same order whether tailed live or replayed.
        body = problem_body(seed=120, sweeps=50, reads=2)
        direct = solve(build_problem(body["problem"]), body["solver"],
                       SolverConfig(**body["config"]).resolve_convergence())
        gate = threading.Event()
        run_inline = service_module.run_inline

        def gated_run_inline(*args, **kwargs):
            # Hold the solve until the live tail is attached, so the
            # job cannot finish before its done callback is wired.
            gate.wait(30)
            return run_inline(*args, **kwargs)

        monkeypatch.setattr(service_module, "run_inline", gated_run_inline)
        with ServerThread(workers=0) as thread:
            loop = thread.server._loop
            counting = CountingLoop(loop)
            monkeypatch.setattr(thread.server, "_loop", counting)
            with Client(*thread.address) as c:
                status, _, accepted = c.submit(body)
                assert status == 201
                job_id = accepted["job_id"]
                live, future = run_stream(thread, loop, job_id)
                assert live.attached.wait(30)
                gate.set()
                assert future.result(30) == (200, False)
                replay, future = run_stream(thread, loop, job_id)
                assert future.result(30) == (200, False)
                wakeups = counting.wakeups
                over_http = [(event, data)
                             for event, data, _ in c.stream(job_id)]
                _, _, described = c.get(f"/v1/jobs/{job_id}")
                _, _, fetched = c.get(f"/v1/jobs/{job_id}/result")
        assert wakeups == 2
        # Response head, hello, submitted, then everything else.
        assert live.drains == len(live.writes) == 4
        # Response head, hello, then the whole log in one chunk.
        assert replay.drains == len(replay.writes) == 3

        frames = replay.frames()
        assert over_http == frames
        assert live.frames()[1:] == frames[1:]
        assert live.frames()[0][1]["status"] in ("queued", "running")
        assert [event for event, _ in frames] == (
            ["hello", "lifecycle"] + ["convergence"] * 50
            + ["lifecycle", "result", "done"])
        assert all("ts" in data for _, data in frames[1:])
        frames = [(event, {key: value for key, value in data.items()
                           if key != "ts"})
                  for event, data in frames]
        trace_id = described["trace_id"]
        assert frames[0] == ("hello", {
            "schema": "repro-stream/v1", "job_id": job_id,
            "trace_id": trace_id, "status": "done"})
        assert frames[1] == ("lifecycle", {
            "name": "submitted", "job_id": job_id,
            "service_job_id": described["service_job_id"],
            "solver": "sa", "tenant": "default", "trace_id": trace_id})
        assert [data for _, data in frames[2:52]] == direct.convergence
        document = frames[53][1]
        service = document["provenance"]["service"]
        assert frames[52] == ("lifecycle", {
            "name": "finished", "status": "done", "job_id": job_id,
            "cache": service["cache"], "dispatch": service["dispatch"],
            "queue_seconds": service["queue_seconds"]})
        assert (strip_provenance(document)
                == strip_provenance(result_document(direct)))
        assert fetched["result"] == document
        assert frames[54] == ("done", {"status": "done", "job_id": job_id})
        assert described["events"] == 54

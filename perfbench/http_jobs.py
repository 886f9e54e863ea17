"""``http_jobs``: a ``python -m repro.experiments serve`` process in
process mode with 2 warm workers and the shipped defaults (metrics and
trace context on), driven by a closed-loop client.

Each job POSTs a small seed-generated join-order QUBO (4-5 relations,
built with ``problem_payload``) for SA with a few dozen sweeps and
convergence on, then reads the job's SSE stream until ``done``. A
quarter of submissions re-send an earlier body under a new ``tag``, so
the result cache serves a known share. Small kernels make the serving
layers a large share of each job. Unit of work: one job, from POST
sent to SSE ``done`` received.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from common import (
    REFERENCE_SECONDS,
    ROOT,
    ConcurrentReference,
    Outcome,
    child_pids,
    highest_tail,
    p50,
    peak_rss_mb,
    program_env,
    ratio,
    tail_percentile,
)

#: One closed-loop client. With two, the client, the server and both
#: workers contend for the 2 vCPUs and jobs/s spread 0.18-0.22 over five
#: runs (scheduling, not the program); with one it spread under 0.05.
CLIENTS = 1
WORKERS = 2
SIZES = (4, 5)
NUM_SWEEPS = 50
NUM_READS = 10
RESEND_SHARE = 0.25
#: Resends pick among a client's most recent jobs, well inside the
#: server's 256-entry result cache.
RESEND_WINDOW = 32
#: Distinct problems per run; more jobs reuse them under new SA seeds.
POOL = 600
#: Miss jobs per run re-solved in-process for the bit-for-bit check.
CHECKED_JOBS = 40
SERVER_ARGS = ("--port", "0", "--workers", str(WORKERS),
               # Quotas above the offered load: the default 20/s per
               # tenant would turn the closed loop into 429s.
               "--quota-rate", "1000000", "--quota-burst", "1000000",
               "--max-inflight", "1024")
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """One ``serve`` process; ``setup_seconds`` is launch to healthz."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             *SERVER_ARGS],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=program_env(), cwd=str(ROOT), text=True)
        self._address = threading.Event()
        self.host, self.port = "", 0
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()
        try:
            if not self._address.wait(60):
                raise RuntimeError("server did not report its port")
            deadline = time.perf_counter() + 60
            while self.get("/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _read_log(self) -> None:
        for line in self.process.stderr:
            match = _LISTENING.search(line)
            if match and not self._address.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._address.set()
        self._address.set()

    def get(self, path: str):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read().decode("utf-8")
        except OSError:
            return 0, ""
        finally:
            connection.close()

    def counters(self) -> Dict[str, float]:
        """Prometheus samples of ``/metrics`` (series text -> value)."""
        status, text = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                samples[series] = float(value)
        return samples

    def pids(self) -> List[int]:
        return [self.process.pid] + child_pids(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stderr.close()


def build_problems(seed: int, count: int) -> List[Dict[str, Any]]:
    """``problem_payload`` documents of 4-5-relation join-order QUBOs."""
    from repro.db.joinorder import JoinOrderQUBO
    from repro.db.workloads import TOPOLOGIES, generate_join_workload
    from repro.server import problem_payload

    per_cell = -(-count // (len(TOPOLOGIES) * len(SIZES)))
    workload = generate_join_workload(TOPOLOGIES, SIZES, per_cell,
                                      seed=seed, limit=count)
    problems = [problem_payload(JoinOrderQUBO(instance.graph).compile())
                for instance in workload]
    random.Random(seed).shuffle(problems)
    return problems


def _body(problems: List[Dict[str, Any]], seed: int,
          index: int) -> Dict[str, Any]:
    return {"problem": problems[index % len(problems)], "solver": "sa",
            "config": {"num_sweeps": NUM_SWEEPS, "num_reads": NUM_READS,
                       "seed": seed * 1_000_003 + index,
                       "convergence": True}}


def _job(host: str, port: int, body: Dict[str, Any]) -> Dict[str, Any]:
    """POST one job and read its SSE stream to ``done`` on one
    connection; returns client timings and the result document."""
    record: Dict[str, Any] = {"body": body, "events": 0}
    payload = json.dumps(body).encode("utf-8")
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        record["sent"] = time.perf_counter()
        connection.request("POST", "/v1/jobs", body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        accepted = response.read()
        record["accepted"] = time.perf_counter()
        record["http_status"] = response.status
        if response.status != 201:
            return record
        job_id = json.loads(accepted)["job_id"]
        connection.request("GET", f"/v1/jobs/{job_id}/stream")
        response = connection.getresponse()
        if response.status != 200:
            record["http_status"] = response.status
            return record
        event, seen_submitted = "", False
        while True:
            line = response.readline()
            if not line:
                break
            if line.startswith(b"event: "):
                event = line[7:].strip().decode("ascii")
            elif line.startswith(b"data: ") and event in ("result", "done"):
                record[event] = json.loads(line[6:])
            elif line == b"\n" and event:
                record["events"] += 1
                now = time.perf_counter()
                if event == "lifecycle" and not seen_submitted:
                    seen_submitted = True
                elif seen_submitted and "first_frame" not in record:
                    record["first_frame"] = now
                if event == "done":
                    record["finished"] = now
                    break
                event = ""
    finally:
        connection.close()
    return record


def _client(number: int, server: Server, problems, seed: int,
            first_index: int, deadline: float,
            records: List[Dict[str, Any]]) -> None:
    """One closed-loop client: next job only after ``done``."""
    chooser = random.Random(seed * 31 + number)
    mine: List[Dict[str, Any]] = []
    index = first_index
    while time.perf_counter() < deadline:
        if mine and chooser.random() < RESEND_SHARE:
            original = chooser.choice(mine[-RESEND_WINDOW:])
            body = dict(original["body"],
                        tag=f"resend-{number}-{len(records)}")
            resend_of: Optional[Dict[str, Any]] = original
        else:
            body = _body(problems, seed, index)
            index += CLIENTS
            resend_of = None
        try:
            record = _job(server.host, server.port, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            record = {"body": body, "error": f"{type(exc).__name__}: {exc}"}
        record["resend_of"] = resend_of
        records.append(record)
        if record.get("done", {}).get("status") == "done" and not resend_of:
            mine.append(record)


def _without_provenance(document: Dict[str, Any]) -> Dict[str, Any]:
    """The result document minus provenance and the journal's ``ts``."""
    return {key: value for key, value in document.items()
            if key not in ("provenance", "ts")}


def _check(outcome: Outcome, records: List[Dict[str, Any]]) -> List[dict]:
    """Count failed jobs and failed output checks; return done jobs."""
    from repro.compile import SolverConfig, solve
    from repro.server import build_problem, result_document

    done = []
    for record in records:
        if "error" in record:
            outcome.fail(record["error"])
        elif record.get("http_status") != 201:
            outcome.fail(f"HTTP {record.get('http_status')}")
        elif record.get("done", {}).get("status") != "done":
            outcome.fail(f"terminal status {record.get('done')}")
        elif "result" not in record:
            outcome.fail("stream ended without a result")
        else:
            done.append(record)
    misses = []
    for record in done:
        original = record["resend_of"]
        if original is None:
            misses.append(record)
        elif (_without_provenance(record["result"])
              != _without_provenance(original["result"])):
            outcome.fail("cache-hit document differs from its original")
    stride = max(1, len(misses) // CHECKED_JOBS)
    for record in misses[::stride][:CHECKED_JOBS]:
        body = record["body"]
        direct = result_document(solve(build_problem(body["problem"]),
                                       body["solver"],
                                       SolverConfig(**body["config"])))
        if _without_provenance(direct) != _without_provenance(
                record["result"]):
            outcome.fail("HTTP result differs from direct solve()")
    return done


def _layers(done: List[dict], before: Dict[str, float],
            after: Dict[str, float], wall: float) -> Dict[str, float]:
    """Per-layer numbers; the latency budget splits cache-miss jobs
    (hits carry their original's queue and kernel times)."""
    submit, burst, events, queue, kernel, residual = [], [], [], [], [], []
    miss_latency = []
    hits = folded = 0
    spins = backend = 0.0
    for record in done:
        provenance = record["result"]["provenance"]
        service = provenance.get("service", {})
        events.append(record["events"])
        folded += service.get("batched", 1) > 1
        if service.get("cache") == "hit":
            hits += 1
            continue
        config = record["body"]["config"]
        miss_latency.append(record["finished"] - record["sent"])
        submit.append(record["accepted"] - record["sent"])
        burst.append(record["finished"] - record.get("first_frame",
                                                     record["finished"]))
        queue.append(service["queue_seconds"])
        kernel.append(provenance["duration_seconds"])
        backend += provenance["duration_seconds"]
        spins += (provenance["num_variables"] * config["num_sweeps"]
                  * config["num_reads"])
        residual.append(miss_latency[-1] - submit[-1] - queue[-1]
                        - kernel[-1] - burst[-1])

    def delta(series: str) -> float:
        return after.get(series, 0.0) - before.get(series, 0.0)

    warm = delta('service_pool_dispatch_total{kind="warm"}')
    cold = delta('service_pool_dispatch_total{kind="cold"}')
    layers = {
        "server.submit_s.p50": p50(submit),
        "server.stream_burst_s.p50": p50(burst),
        "server.sse_events_per_job": p50(events),
        "service.queue_wait_s.p50": p50(queue),
        "service.cache_hit_frac": ratio(hits, len(done)),
        "service.dispatch_residual_s.p50": p50(residual),
        "service.batch_fold_frac": ratio(folded, len(done)),
        "service.pool.warm_frac": ratio(warm, warm + cold),
        "service.shm_bytes": delta("service_shm_bytes_total"),
        "service.worker_busy_frac": ratio(backend, WORKERS * wall),
        "annealing.sa.kernel_s.p50": p50(kernel),
        "annealing.sa.spin_updates_per_s": ratio(spins, backend),
    }
    parts = {
        "budget.server_submit_share": "server.submit_s.p50",
        "budget.service_queue_share": "service.queue_wait_s.p50",
        "budget.annealing_kernel_share": "annealing.sa.kernel_s.p50",
        "budget.server_stream_burst_share": "server.stream_burst_s.p50",
        "budget.service_dispatch_residual_share":
            "service.dispatch_residual_s.p50",
    }
    for share, layer in parts.items():
        layers[share] = ratio(layers[layer], p50(miss_latency))
    layers["budget.unattributed_share"] = 1.0 - sum(
        layers[share] for share in parts)
    return layers


def setup_seconds(repeats: int = 3) -> float:
    """Median launch-to-healthz time over ``repeats`` server starts."""
    times = []
    for _ in range(repeats):
        server = Server()
        times.append(server.setup_seconds)
        server.stop()
    return sorted(times)[len(times) // 2]


def run(seed: int, seconds: float, traced: bool, smoke: bool) -> Outcome:
    outcome = Outcome()
    problems = build_problems(seed, 40 if smoke else POOL)
    server = Server()
    per_client: List[List[Dict[str, Any]]] = [[] for _ in range(CLIENTS)]
    reference = None
    try:
        before = server.counters() if traced else {}
        reference = ConcurrentReference()
        started = time.perf_counter()
        threads = [threading.Thread(
            target=_client,
            args=(number, server, problems, seed, number,
                  started + seconds, per_client[number]))
            for number in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        slowdown = reference.stop() / REFERENCE_SECONDS
        reference = None
        after = server.counters() if traced else {}
        outcome.peak_rss_mb = peak_rss_mb([os.getpid()] + server.pids())
    finally:
        if reference is not None:
            reference.stop()
        server.stop()
    records = [record for client in per_client for record in client]

    outcome.attempted = len(records)
    done = _check(outcome, records)
    latencies = [record["finished"] - record["sent"] for record in done]
    outcome.throughput = len(done) / elapsed * slowdown
    outcome.latency_p50 = p50(latencies) / slowdown
    p99 = tail_percentile(latencies, 99)
    outcome.named = {
        "jobs_per_s": (len(done) / elapsed, "1/s"),
        "job_latency_p50_s": (p50(latencies), "s"),
        "machine_slowdown": (slowdown, "ratio"),
        "job_latency_p99_s": (p99 if p99 is not None else float("nan"),
                              "s"),
    }
    tail = highest_tail(latencies)
    if tail is not None and tail[0] != 99:
        outcome.named[f"job_latency_p{tail[0]}_s"] = (tail[1], "s")
    outcome.named.update({
        "job_latency_samples": (len(latencies), "count"),
        "rejected": (sum(record.get("http_status") in (429, 503)
                         for record in records), "count"),
    })
    if traced:
        outcome.layers = _layers(done, before, after, elapsed)
        outcome.layers["server.rejected"] = outcome.named["rejected"][0]
    return outcome

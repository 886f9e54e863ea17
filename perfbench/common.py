"""Shared pieces of the benchmark: metric catalogue, statistics, the
machine-speed reference, layer timers, memory readings, process
clean-up and the cold-start set-up probe.

The benchmark imports the program from ``src/`` of the checkout it runs
in; nothing here is imported by the program.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNNER = Path(__file__).resolve().parent / "run.py"

#: End-to-end metrics, reported by every workload (name -> unit). Each
#: workload defines its own unit of work; see README.md.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run (name -> unit). Every workload
#: prints all of them; a layer a workload does not reach reads 0.
PER_LAYER = {
    "server.submit_s.p50": "s",
    "server.stream_burst_s.p50": "s",
    "server.sse_events_per_job": "count",
    "server.rejected": "count",
    "service.queue_wait_s.p50": "s",
    "service.cache_hit_frac": "ratio",
    "service.dispatch_residual_s.p50": "s",
    "service.batch_fold_frac": "ratio",
    "service.pool.warm_frac": "ratio",
    "service.shm_bytes": "B",
    "service.worker_busy_frac": "ratio",
    "compile.content_key_s.p50": "s",
    "compile.decode_assemble_s.p50": "s",
    "pipeline.formulation_s.p50": "s",
    "pipeline.assembly_s.p50": "s",
    "annealing.sa.kernel_s.p50": "s",
    "annealing.sa.spin_updates_per_s": "1/s",
    "annealing.qaoa.evals": "count",
    "annealing.qaoa.evals_per_s": "1/s",
    "annealing.qaoa.circuit_build_s.per_eval": "s",
    "annealing.qaoa.residual_frac": "ratio",
    "quantum.statevector.run_s.per_eval": "s",
    "quantum.statevector.gate_apps_per_s": "1/s",
    "quantum.statevector.diagonal_gate_frac": "ratio",
    "quantum.statevector.batch_gate_apps_per_s": "1/s",
    "qml.gradient_s.per_step": "s",
    "qml.run_batch_calls": "count",
    "budget.server_submit_share": "ratio",
    "budget.service_queue_share": "ratio",
    "budget.annealing_kernel_share": "ratio",
    "budget.server_stream_burst_share": "ratio",
    "budget.service_dispatch_residual_share": "ratio",
    "budget.unattributed_share": "ratio",
    "bench.trace_overhead_frac": "ratio",
}


class Outcome:
    """What one timed phase of a workload produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Throughput and latency in the workload's unit of work.
        self.throughput = 0.0
        self.latency_p50 = 0.0
        #: The workload's own named metrics (name -> (value, unit)).
        self.named: Dict[str, tuple] = {}
        self.layers: Dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def fail(self, message: str) -> None:
        """Count one failed operation or failed output check."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# -- statistics ---------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def p50(values: Sequence[float]) -> float:
    return percentile(values, 50)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """``q``-th percentile, or ``None`` when fewer than ten samples lie
    beyond it (the percentile would rest on a handful of values)."""
    beyond = len(values) * (100.0 - q) / 100.0
    return percentile(values, q) if beyond >= 10 else None


def highest_tail(values: Sequence[float],
                 candidates: Sequence[int] = (99, 98, 95, 90, 75)):
    """``(q, percentile)`` for the highest ``q`` with at least ten
    samples beyond it, or ``None`` for a sample too small for any."""
    for q in candidates:
        value = tail_percentile(values, q)
        if value is not None:
            return q, value
    return None


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- machine speed ----------------------------------------------------------
# Shared CPUs drift in speed by about 20% over tens of seconds, which
# moves the time of fixed single-process work by as much. For one busy
# process the drift is common to all CPU work: the ratio of a fixed
# QAOA solve's time to a reference task's, taken in the same windows,
# spread 0.035 where the raw times spread 0.17-0.26. Timing the
# reference right before and after each operation (never during it)
# rescales the operation to the nominal speed. The HTTP and pipeline
# workloads do their work in other processes, so a helper process times
# the reference concurrently instead. The pipeline's pool keeps both CPUs
# busy, so its helper counts CPU time, not wall time, and each batch is
# rescaled by the readings taken while it ran: over six runs, raw
# queries/s spread 0.085, with one median reading per run 0.040, per
# batch 0.021.

#: Seconds the reference task takes at the nominal machine speed (its
#: typical time on a 2-vCPU Xeon at 2.1 GHz).
REFERENCE_SECONDS = 0.022

_REFERENCE_STATE = np.exp(1j * np.linspace(0.0, 1.0, 1 << 14))


def reference_task() -> None:
    """Fixed CPU work that shares no code with the program: a pure
    Python loop and elementwise numpy passes over a 2**14 complex
    vector, the two kinds of work the workloads spend their time on."""
    total = 0
    for index in range(100_000):
        total += index * index % 7
    state = _REFERENCE_STATE
    for _ in range(400):
        state = state.reshape(2, -1)[::-1].reshape(-1) * 0.999


def reference_seconds(repeats: int = 1,
                      clock: Callable[[], float] = time.perf_counter
                      ) -> float:
    """Median seconds, on ``clock``, of ``repeats`` runs of the
    reference task."""
    times = []
    for _ in range(repeats):
        started = clock()
        reference_task()
        times.append(clock() - started)
    return statistics.median(times)


def at_nominal_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work timed between two ``reference_seconds``
    readings, rescaled to the nominal machine speed."""
    return seconds * 2.0 * REFERENCE_SECONDS / (before + after)


def _reference_loop(connection, interval: float,
                    clock: Callable[[], float]) -> None:
    """Helper-process body: time the reference task every ``interval``
    seconds until the parent asks for the ``(finished at, seconds)``
    readings (``perf_counter`` is the system-wide monotonic clock)."""
    readings = []
    while not connection.poll(interval):
        seconds = reference_seconds(clock=clock)
        readings.append((time.perf_counter(), seconds))
    connection.recv()
    connection.send(readings)


class ConcurrentReference:
    """Times the reference task in a helper process while a workload
    whose work runs in other processes is measured, so the reading
    covers the same seconds as the operations.

    ``clock=time.thread_time`` counts only the seconds the helper was on
    a CPU: next to a pool that keeps every CPU busy, wall time would
    mostly measure the helper's wait for its turn.
    """

    def __init__(self, interval: float = 0.25,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        #: ``(finished at, seconds)`` readings, filled in by ``stop``.
        self.readings: List[tuple] = []
        context = multiprocessing.get_context("spawn")
        self._connection, child = context.Pipe()
        self._process = context.Process(target=_reference_loop,
                                        args=(child, interval, clock),
                                        daemon=True)
        self._process.start()
        child.close()

    def stop(self) -> float:
        """Stop the helper; the median reference seconds it measured."""
        try:
            self._connection.send("stop")
            self.readings = self._connection.recv()
        finally:
            self._process.join(30)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._connection.close()
        times = [seconds for _, seconds in self.readings]
        return statistics.median(times) if times else REFERENCE_SECONDS

    def at_nominal_speed(self, started: float, finished: float) -> float:
        """The ``perf_counter`` span ``started``-``finished`` rescaled to
        the nominal speed by the mean speed the readings inside it show
        (all readings if none falls inside). A mean of speeds, not a
        median of times, so a speed switch inside the span counts for
        the share of the span it lasted."""
        speeds = [REFERENCE_SECONDS / seconds
                  for at, seconds in self.readings
                  if started <= at <= finished]
        if not speeds:
            speeds = [REFERENCE_SECONDS / seconds
                      for _, seconds in self.readings] or [1.0]
        return (finished - started) * statistics.mean(speeds)


# -- layer timers ---------------------------------------------------------
class LayerClock:
    """Wraps public functions of the program with wall-clock timers.

    ``wrap`` replaces ``owner.attr`` for the lifetime of the clock and
    ``restore`` puts every original back. Calls made while another
    wrapped call of the same clock is running are still timed, but a
    wrapper can ask for ``nested=False`` to be skipped inside one (so a
    ``run`` made from ``run_batch`` is not counted twice).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[tuple] = []
        self._depth = 0

    def wrap(self, owner: Any, attr: str, label: str,
             inspect: Optional[Callable[..., None]] = None,
             nested: bool = True) -> None:
        original = getattr(owner, attr)
        clock = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            if not nested and clock._depth:
                return original(*args, **kwargs)
            if inspect is not None:
                inspect(clock, *args, **kwargs)
            clock._depth += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                clock.seconds[label] += time.perf_counter() - start
                clock.calls[label] += 1
                clock._depth -= 1

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def count_gates(clock: LayerClock, key: str,
                circuits: Iterable[Any]) -> None:
    """Add the gates of ``circuits`` (and the diagonal ones among them)
    to ``clock.counts[key]`` / ``clock.counts["diagonal_gates"]``."""
    from repro.quantum.gates import DIAGONAL_GATES

    total = diagonal = 0
    for circuit in circuits:
        for instruction in circuit.instructions:
            total += 1
            diagonal += instruction.name in DIAGONAL_GATES
    clock.counts[key] += total
    clock.counts["all_gates"] += total
    clock.counts["diagonal_gates"] += diagonal


# -- processes and memory -------------------------------------------------
def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first and
    no ``REPRO_*`` switches, so telemetry is exactly what the command
    line asks for."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(token) for token in handle.read().split())
    except OSError:
        pass
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in set(pids):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- process clean-up -------------------------------------------------------
# Not every process the benchmark causes is one it starts itself: the
# solve service's pool and the ``spawn`` helper start a multiprocessing
# resource tracker, and a ``serve`` process starts its own workers and
# tracker. A tracker ignores SIGTERM and exits only once every holder of
# its pipe has closed it, a few milliseconds after its parent is gone, so
# it outlives a runner that merely returns. The runner therefore adopts
# orphans and, on every path out, stops its whole process tree and waits
# until each process in it has ended.

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every orphan among the processes
    it causes, so ``stop_descendants`` can wait for one whose own parent
    has already exited (Linux; a no-op elsewhere)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _process_table() -> Dict[int, tuple]:
    """``pid -> (parent pid, state letter)`` of every process (``/proc``)."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def running_descendants(pid: int) -> List[int]:
    """Processes below ``pid`` in the process tree that have not ended
    (zombies, which only wait to be collected, are left out)."""
    children = defaultdict(list)
    table = _process_table()
    for child, (parent, _) in table.items():
        children[parent].append(child)
    found, frontier = [], [pid]
    while frontier:
        for child in children[frontier.pop()]:
            frontier.append(child)
            if table[child][1] not in ("Z", "X"):
                found.append(child)
    return found


def _collect_children() -> None:
    """Collect the exit status of every child of this process that ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace: float = 10.0) -> None:
    """Stop every process this one caused and wait until each has ended:
    SIGTERM, then SIGKILL to any still running after ``grace`` seconds.

    This process's own resource tracker, if it started one, is released
    by closing its pipe (a private of ``multiprocessing``; the standard
    library has no public way before Python 3.12), so it exits, cleaning
    up, once the other holders of the pipe are gone too.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace
    sent: Dict[int, int] = {}
    while True:
        _collect_children()
        alive = running_descendants(os.getpid())
        if not alive:
            break
        signum = (signal.SIGKILL if time.monotonic() > deadline
                  else signal.SIGTERM)
        for pid in alive:
            if sent.get(pid) != signum:
                sent[pid] = signum
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
    _collect_children()


def cold_start_seconds(workload: str, seed: int, smoke: bool,
                       repeats: int = 3) -> float:
    """Median wall clock from launching a fresh interpreter to the
    moment it can start the workload's first timed operation.

    The child is this runner in ``--setup-probe`` mode: it imports the
    entry point, builds the inputs (and, for ``pipeline_batch``, starts
    the solve service and warms both workers), prints ``ready`` and
    exits.
    """
    command = [sys.executable, str(RUNNER), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              env=program_env(), cwd=str(ROOT),
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(
                f"set-up probe for {workload} failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times)

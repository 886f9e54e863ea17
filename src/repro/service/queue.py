"""Bounded priority job queue for the solve service.

Jobs are ordered by descending priority, FIFO within a priority class
(a monotonically increasing sequence number breaks ties, so two jobs
at the same priority dequeue in submission order). The queue is
bounded: :meth:`JobQueue.put` raises :class:`QueueFullError` — or
blocks up to a timeout when asked — once the number of *live* (not yet
dequeued, not cancelled) jobs reaches capacity, which is the service's
backpressure mechanism under heavy traffic.

Cancellation is lazy: a cancelled job stays in the heap but is
discarded by :meth:`JobQueue.get` when it surfaces, while the live
count is released immediately so cancellations free capacity right
away.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity."""


class JobStatus(enum.Enum):
    """Lifecycle of one submitted job."""

    PENDING = "pending"      #: queued, waiting for a worker
    RUNNING = "running"      #: executing on a worker
    DONE = "done"            #: finished; result available
    FAILED = "failed"        #: worker raised; exception available
    CANCELLED = "cancelled"  #: cancelled before (or while) running
    TIMEOUT = "timeout"      #: blew its deadline; worker was reaped

    def is_terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED,
                        JobStatus.CANCELLED, JobStatus.TIMEOUT)


@dataclass
class Job:
    """Internal record of one submitted solve.

    The service resolves a job exactly once (result *or* error), under
    ``lock``; ``event`` wakes every handle waiting on it — including
    handles of coalesced duplicate submissions, which share this one
    record.
    """

    job_id: int
    problem: Any
    solver: str
    config: Any
    repair: bool = False
    priority: int = 0
    deadline: Optional[float] = None
    cache_key: Optional[str] = None
    #: Trace-context id correlating this job's events across layers
    #: (queue, dispatch, worker, cache); ``None`` when the context
    #: layer is disabled at submit time.
    trace_id: Optional[str] = None
    submitted_at: float = field(default_factory=time.perf_counter)
    #: Set (under ``lock``) by ``JobQueue.get`` when a dispatcher takes
    #: the job; tells ``cancel`` whether a queue slot is still held.
    dequeued: bool = False
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    status: JobStatus = JobStatus.PENDING
    result: Any = None
    error: Optional[BaseException] = None
    coalesced: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    event: threading.Event = field(default_factory=threading.Event)
    #: Set by the dispatcher while a worker process runs this job, so
    #: ``cancel`` can reap it mid-flight.
    process: Any = None
    #: Callbacks fired (outside the job lock) on resolution; the
    #: portfolio racer uses these to observe completion order.
    callbacks: List[Callable[["Job"], None]] = field(
        default_factory=list)

    def resolve(self, status: JobStatus, result: Any = None,
                error: Optional[BaseException] = None,
                announce: Optional[Callable[[], None]] = None) -> bool:
        """Transition to a terminal status exactly once.

        Returns False when the job was already terminal (e.g. a
        cancellation raced the worker finishing) — the first
        resolution wins and later ones are dropped. Only the winner
        runs ``announce``, after the transition and before any waiter
        wakes.
        """
        with self.lock:
            if self.status.is_terminal():
                return False
            self.status = status
            self.result = result
            self.error = error
            self.finished_at = time.perf_counter()
            callbacks = list(self.callbacks)
        if announce is not None:
            announce()
        self.event.set()
        for callback in callbacks:
            callback(self)
        return True

    def add_callback(self, callback: Callable[["Job"], None]) -> None:
        """Run ``callback(job)`` on resolution (immediately if done)."""
        with self.lock:
            if not self.status.is_terminal():
                self.callbacks.append(callback)
                return
        callback(self)


class JobQueue:
    """Thread-safe bounded priority queue of :class:`Job` records."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, Job]] = []
        self._live = 0
        self._sequence = itertools.count()
        self._closed = False

    def put(self, job: Job, block: bool = False,
            timeout: Optional[float] = None) -> None:
        """Enqueue a job; raises :class:`QueueFullError` at capacity.

        ``block=True`` waits up to ``timeout`` seconds for capacity
        instead of raising immediately.
        """
        with self._lock:
            if block:
                deadline = (None if timeout is None
                            else time.perf_counter() + timeout)
                while self._live >= self.capacity and not self._closed:
                    remaining = (None if deadline is None
                                 else deadline - time.perf_counter())
                    if remaining is not None and remaining <= 0:
                        break
                    self._not_full.wait(remaining)
            if self._closed:
                raise RuntimeError("queue is closed")
            if self._live >= self.capacity:
                raise QueueFullError(
                    f"job queue is full ({self.capacity} live jobs); "
                    "raise queue_capacity, add workers, or submit with "
                    "block=True"
                )
            heapq.heappush(self._heap,
                           (-job.priority, next(self._sequence), job))
            self._live += 1
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the highest-priority live job.

        Cancelled jobs surfacing at the top are discarded silently.
        Returns ``None`` when the queue is closed and drained, or on
        timeout.
        """
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        with self._lock:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    with job.lock:
                        cancelled = job.status.is_terminal()
                        if not cancelled:
                            job.dequeued = True
                            job.started_at = time.perf_counter()
                    if cancelled:
                        # Its capacity slot was already freed by
                        # release() when the cancellation landed.
                        continue
                    self._live -= 1
                    self._not_full.notify()
                    return job
                if self._closed:
                    return None
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)

    def release(self, job: Job) -> None:
        """Free the capacity slot of a job cancelled while queued."""
        with self._lock:
            # The job itself is discarded lazily by get(); only the
            # accounting is updated here.
            if self._live > 0:
                self._live -= 1
                self._not_full.notify()

    def close(self) -> None:
        """Stop accepting jobs and wake every blocked getter."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return self._live

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"live": self._live, "capacity": self.capacity,
                    "closed": self._closed}

"""Server-side job records, registry, and the sync→async bridge.

A :class:`ServerJob` is the one record of an HTTP submission: its
status, result and error, and the append-only frame log the SSE stream
route replays and then tails — lifecycle instants (``submitted``,
``cache_hit``, ``finished``), one ``convergence`` frame per
:class:`~repro.telemetry.progress.ProgressTrace` row, the ``result``
document and a terminal ``done`` marker.

The bridge: solve completion fires :meth:`JobHandle.add_done_callback`
on a *dispatcher thread* (or at once on the event loop, inside the
submit, when the job is already terminal — a cache hit or a solve
that beat the callback). The callback hands the job's last frames to
:meth:`ServerJob.finish`, which logs them under a plain
``threading.Lock`` and then wakes event-loop readers with one
``loop.call_soon_threadsafe`` — the asyncio side never takes a lock
that a solver thread holds while blocking, and the event loop never
blocks on a solve.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import (Any, AsyncIterator, Dict, Iterable, List, Optional,
                    Tuple)

from ..service.queue import JobStatus

#: Schema tag carried by the SSE ``hello`` event and the docs.
STREAM_SCHEMA = "repro-stream/v1"

_TERMINAL = frozenset(("done", "failed", "timeout", "cancelled"))

#: One SSE frame: event name and its ``ts``-stamped data.
Frame = Tuple[str, Dict[str, Any]]


def _stamped(event: str, data: Dict[str, Any], now: float) -> Frame:
    record = dict(data)
    record.setdefault("ts", now)
    return event, record


def _visible(status: str, handle: Optional[Any]) -> str:
    """A problem job reads ``running`` from dispatch until
    :meth:`ServerJob.finish` drops the handle — also while its service
    job is already terminal but its last frames are not yet logged."""
    if handle is not None and handle.status is not JobStatus.PENDING:
        return "running"
    return status


class ServerJob:
    """One submission's server-side state (thread-safe).

    Writers may be any thread (dispatcher callbacks, pipeline executor
    threads, the event loop itself); tails are event-loop coroutines.
    Each write is one locked step followed by one event-loop wake-up,
    and each tail keeps its own replay cursor, so a client connecting
    after completion replays the full history and ends immediately.
    """

    def __init__(self, public_id: str, *, kind: str, tenant: str,
                 solver: str, loop: asyncio.AbstractEventLoop,
                 tag: Optional[Any] = None):
        self.public_id = public_id
        self.kind = kind
        self.tenant = tenant
        self.solver = solver
        self.tag = tag
        self.created_at = time.time()
        self.trace_id: Optional[str] = None
        self.service_job_id: Optional[int] = None
        #: A problem job's service :class:`~repro.service.JobHandle`:
        #: the job reads ``queued``/``running`` from it until
        #: :meth:`finish`, which drops it so a finished job keeps none
        #: of the service's problem or result.
        self.handle: Optional[Any] = None
        self._loop = loop
        self._lock = threading.Lock()
        self._status = "queued"
        self._frames: List[Frame] = []
        self._result: Optional[Dict[str, Any]] = None
        self._error: Optional[Dict[str, Any]] = None
        self.finished_at: Optional[float] = None
        self._wakeup = asyncio.Event()
        #: Event-loop-side completion signal; ``GET .../result?wait=N``
        #: and the drain await it.
        self.completed = asyncio.Event()

    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        with self._lock:
            status, handle = self._status, self.handle
        return _visible(status, handle)

    @property
    def done(self) -> bool:
        """Whether :meth:`finish` ran (the server's own terminal state)."""
        with self._lock:
            return self._status in _TERMINAL

    @property
    def result(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._result

    @property
    def error(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._error

    def mark_running(self) -> None:
        with self._lock:
            if self._status == "queued":
                self._status = "running"

    def append(self, event: str, data: Dict[str, Any]) -> None:
        """Log one frame (any thread); wakes event-loop tails."""
        frame = _stamped(event, data, time.time())
        with self._lock:
            if self._status in _TERMINAL:
                return
            self._frames.append(frame)
        self._wake(finished=False)

    def finish(self, status: str, *, events: Iterable[Frame] = (),
               result: Optional[Dict[str, Any]] = None,
               error: Optional[Dict[str, Any]] = None) -> bool:
        """Terminal transition, exactly once (any thread).

        Logs ``events`` and the ``done`` frame and sets status, result
        and error in one locked step, then wakes tails and
        :attr:`completed` with one event-loop wake-up.
        """
        if status not in _TERMINAL:
            raise ValueError(f"not a terminal status: {status!r}")
        now = time.time()
        frames = [_stamped(event, data, now) for event, data in events]
        frames.append(("done", {"status": status,
                                "job_id": self.public_id, "ts": now}))
        with self._lock:
            if self._status in _TERMINAL:
                return False
            self._frames.extend(frames)
            self._status = status
            self.handle = None
            self._result = result
            self._error = error
            self.finished_at = now
        self._wake(finished=True)
        return True

    def _wake(self, *, finished: bool) -> None:
        def wake() -> None:
            self._wakeup.set()
            if finished:
                self.completed.set()

        try:
            self._loop.call_soon_threadsafe(wake)
        except RuntimeError:
            # Loop already closed (server shutdown raced a late
            # callback); nobody is left to wake.
            pass

    async def tail(self) -> AsyncIterator[List[Frame]]:
        """Replay the logged frames, then yield each later batch (one
        list per wake-up) until ``done``."""
        index = 0
        while True:
            # Clear before reading: a frame the read misses was logged
            # after it, so its wake-up runs after this clear.
            self._wakeup.clear()
            with self._lock:
                chunk = self._frames[index:]
                finished = self._status in _TERMINAL
            if chunk:
                index += len(chunk)
                yield chunk
            if finished:
                return
            if not chunk:
                # Sleep only straight after the read: across the yield
                # another tail may clear the shared wake-up.
                await self._wakeup.wait()

    def describe(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/{id}`` status document."""
        with self._lock:
            status, handle, error = self._status, self.handle, self._error
            events = len(self._frames)
        document: Dict[str, Any] = {
            "job_id": self.public_id,
            "kind": self.kind,
            "status": _visible(status, handle),
            "tenant": self.tenant,
            "solver": self.solver,
            "trace_id": self.trace_id,
            "service_job_id": self.service_job_id,
            "created_unix": self.created_at,
            "finished_unix": self.finished_at,
            "events": events,
            "links": {
                "self": f"/v1/jobs/{self.public_id}",
                "result": f"/v1/jobs/{self.public_id}/result",
                "stream": f"/v1/jobs/{self.public_id}/stream",
            },
        }
        if self.tag is not None:
            document["tag"] = self.tag
        if error is not None:
            document["error"] = error
        return document


class JobRegistry:
    """Bounded public-id → :class:`ServerJob` map.

    Insertion-ordered; once past ``max_jobs`` the oldest *terminal*
    jobs are evicted (live jobs are never dropped — their handles and
    streams are still wired to them, so the bound can be temporarily
    exceeded under extreme inflight counts).
    """

    def __init__(self, max_jobs: int = 4096):
        if max_jobs < 1:
            raise ValueError("max_jobs must be positive")
        self.max_jobs = max_jobs
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, ServerJob]" = OrderedDict()
        self.evicted = 0

    def add(self, job: ServerJob) -> None:
        with self._lock:
            self._jobs[job.public_id] = job
            if len(self._jobs) > self.max_jobs:
                for public_id, candidate in list(self._jobs.items()):
                    if len(self._jobs) <= self.max_jobs:
                        break
                    if candidate.done:
                        del self._jobs[public_id]
                        self.evicted += 1

    def get(self, public_id: str) -> Optional[ServerJob]:
        with self._lock:
            return self._jobs.get(public_id)

    def remove(self, public_id: str) -> None:
        with self._lock:
            self._jobs.pop(public_id, None)

    def live(self) -> List[ServerJob]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [job for job in jobs if not job.done]

    def jobs(self) -> List[ServerJob]:
        with self._lock:
            return list(self._jobs.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            jobs = list(self._jobs.values())
            evicted = self.evicted
        by_status: Dict[str, int] = {}
        for job in jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "total": len(jobs),
            "max_jobs": self.max_jobs,
            "evicted": evicted,
            "by_status": by_status,
        }

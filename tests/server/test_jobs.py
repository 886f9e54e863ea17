"""Unit tests for the server's job record and registry (no HTTP)."""

import asyncio
import sys
import threading

import pytest

from repro.server.jobs import JobRegistry, ServerJob
from repro.service.queue import JobStatus


class ImmediateLoop:
    """Stands in for the event loop: runs wake-ups at once, counts them."""

    def __init__(self):
        self.wakeups = 0

    def call_soon_threadsafe(self, callback, *args):
        self.wakeups += 1
        callback(*args)


class FakeHandle:
    """The one attribute of a service ``JobHandle`` a server job reads."""

    def __init__(self, status):
        self.status = status


def make_job(public_id, *, loop=None, kind="problem"):
    return ServerJob(public_id, kind=kind, tenant="t", solver="sa",
                     loop=loop or ImmediateLoop())


async def collect(job):
    return [chunk async for chunk in job.tail()]


class TestServerJob:
    def test_status_follows_the_service_job_until_finish(self):
        loop = ImmediateLoop()
        job = make_job("p", loop=loop)
        handle = job.handle = FakeHandle(JobStatus.PENDING)
        assert job.status == "queued"
        handle.status = JobStatus.RUNNING
        assert job.status == "running"
        assert job.describe()["status"] == "running"
        # Solved, last frames not logged yet: still running, not done.
        handle.status = JobStatus.DONE
        assert job.status == "running"
        assert not job.done and not job.completed.is_set()
        assert job.finish("done", result={"energy": -1.0})
        assert (job.status, job.done, job.handle) == ("done", True, None)
        assert job.completed.is_set()
        assert loop.wakeups == 1

    def test_finish_logs_last_frames_once(self):
        loop = ImmediateLoop()
        job = make_job("p", loop=loop)
        submitted = {"name": "submitted", "job_id": "p"}
        job.append("lifecycle", submitted)
        document = {"energy": -1.0}
        rows = [{"iteration": 0}, {"iteration": 1}]
        assert job.finish(
            "done",
            events=[("convergence", row) for row in rows]
            + [("result", document)],
            result=document)
        assert not job.finish("failed", events=[("error", {})])
        job.append("lifecycle", {"name": "late"})
        assert loop.wakeups == 2
        assert job.describe()["events"] == 5
        frames = asyncio.run(collect(job))
        assert [[event for event, _ in chunk] for chunk in frames] == [
            ["lifecycle", "convergence", "convergence", "result", "done"]]
        flat = frames[0]
        assert flat[-1][1]["status"] == "done"
        assert flat[-1][1]["job_id"] == "p"
        # ts is stamped on copies: callers' dicts and the /result
        # document stay without it.
        assert all("ts" in data for _, data in flat)
        assert "ts" not in submitted and "ts" not in rows[0]
        assert job.result == {"energy": -1.0}
        assert job.status == "done"

    def test_finish_rejects_non_terminal_status(self):
        job = make_job("p")
        with pytest.raises(ValueError):
            job.finish("running")
        assert not job.done

    def test_tail_yields_one_chunk_per_wakeup(self):
        async def scenario():
            job = make_job("p", loop=asyncio.get_running_loop())
            job.append("lifecycle", {"name": "submitted"})
            finisher = threading.Thread(
                target=job.finish, args=("done",),
                kwargs={"events": [("convergence", {}), ("result", {})]})
            chunks = []

            async def read():
                async for chunk in job.tail():
                    chunks.append([event for event, _ in chunk])
                    if len(chunks) == 1:
                        finisher.start()

            await asyncio.wait_for(read(), timeout=10)
            await asyncio.wait_for(job.completed.wait(), timeout=10)
            finisher.join(timeout=10)
            assert not finisher.is_alive()
            return chunks

        assert asyncio.run(scenario()) == [
            ["lifecycle"], ["convergence", "result", "done"]]

    def test_tails_see_every_frame_under_thread_races(self):
        # More writer threads than cores and a short switch interval:
        # a lost wake-up hangs a tail past the timeout, and a lost or
        # doubled frame breaks the per-job sequence.
        async def scenario():
            loop = asyncio.get_running_loop()
            jobs = [make_job(f"j{index}", loop=loop) for index in range(8)]

            async def read(job):
                frames = []
                async for chunk in job.tail():
                    assert chunk
                    frames.extend(chunk)
                return frames

            tails = [asyncio.create_task(read(job))
                     for job in jobs for _ in range(2)]

            def write(job):
                for k in range(20):
                    job.append("lifecycle", {"k": k})
                job.finish("done", events=[("convergence", {"k": k})
                                           for k in range(20, 40)])

            threads = [threading.Thread(target=write, args=(job,))
                       for job in jobs]
            for thread in threads:
                thread.start()
            results = await asyncio.wait_for(asyncio.gather(*tails),
                                             timeout=30)
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            await asyncio.wait_for(
                asyncio.gather(*(job.completed.wait() for job in jobs)),
                timeout=10)
            return results

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        for frames in results:
            assert [data.get("k") for _, data in frames[:-1]] \
                == list(range(40))
            assert frames[-1][0] == "done"


class TestJobRegistry:
    def test_evicts_oldest_terminal_jobs_and_never_a_live_one(self):
        registry = JobRegistry(max_jobs=3)
        # A problem job whose service job is running is live, so it
        # is never evicted.
        running = make_job("running")
        running.handle = FakeHandle(JobStatus.RUNNING)
        workload = make_job("workload", kind="workload")
        workload.mark_running()
        finished = []
        for index in range(3):
            job = make_job(f"done-{index}")
            job.finish("done")
            finished.append(job)

        registry.add(running)
        registry.add(finished[0])
        registry.add(workload)
        assert registry.evicted == 0
        registry.add(finished[1])
        assert [job.public_id for job in registry.jobs()] \
            == ["running", "workload", "done-1"]
        registry.add(finished[2])
        assert [job.public_id for job in registry.jobs()] \
            == ["running", "workload", "done-2"]
        assert registry.evicted == 2
        assert registry.get("done-0") is None

        # With only live jobs left the bound is exceeded, not enforced.
        late = make_job("late")
        registry.add(late)
        registry.add(make_job("later"))
        assert len(registry) == 4
        assert registry.evicted == 3
        assert {job.public_id for job in registry.live()} \
            == {"running", "workload", "late", "later"}
        snapshot = registry.snapshot()
        assert snapshot["evicted"] == 3
        assert snapshot["by_status"] == {"running": 2, "queued": 2}

        # Once the running job finishes it is the oldest terminal one.
        running.finish("done")
        registry.add(make_job("last"))
        assert registry.get("running") is None
        assert registry.evicted == 4
        assert len(registry) == 4

    def test_max_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            JobRegistry(max_jobs=0)

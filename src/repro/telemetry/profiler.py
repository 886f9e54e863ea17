"""Stdlib sampling wall-clock profiler for individual solver calls.

A :class:`ProfileCapture` runs a daemon thread that periodically grabs
the *target* thread's stack via :func:`sys._current_frames` and
aggregates collapsed stacks into a counter — the classic wall-clock
sampling profiler, with zero dependencies and no tracing overhead on
the profiled code itself (the solver thread is never interrupted; the
sampler reads its frames from outside).

A thread-based sampler is used instead of ``signal``/``ITIMER``
because POSIX signals are only delivered to the main thread, while
solves routinely run on service dispatcher threads and inside warm
pool worker processes.

Opt-in is per solver call (``solve(..., profile=True)``) or
process-wide at the ``trace`` level of :func:`repro.telemetry.observe`
(``REPRO_OBSERVE=trace``), which warm-pool workers raise themselves to
with each task.  The aggregated
:meth:`ProfileCapture.summary` attaches to ``SolveResult.provenance``
under ``"profile"`` and mirrors into the Chrome trace when a tracer is
live.  Sampling reads frames only — it never touches RNG state, so
profiled solves stay bit-for-bit identical.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, Optional

from . import trace as _trace

#: Default seconds between stack samples.
DEFAULT_INTERVAL = 0.005

#: Default number of stacks/hotspots kept in a summary.
DEFAULT_TOP = 12

#: Frames kept per sampled stack (innermost preserved).
MAX_STACK_DEPTH = 24


class ProfileCapture:
    """Context manager sampling the entering thread until exit."""

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 max_depth: int = MAX_STACK_DEPTH) -> None:
        self._interval = max(float(interval), 1e-4)
        self._max_depth = max_depth
        self._stacks: Counter = Counter()
        self._samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target: Optional[int] = None
        self._started = 0.0
        self._duration = 0.0

    def __enter__(self) -> "ProfileCapture":
        self._target = threading.get_ident()
        self._started = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None
        self._duration = time.perf_counter() - self._started
        return False

    def _sample_loop(self) -> None:
        stop = self._stop
        interval = self._interval
        target = self._target
        max_depth = self._max_depth
        while not stop.wait(interval):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            stack = []
            depth = 0
            while frame is not None and depth < max_depth:
                code = frame.f_code
                stack.append(
                    f"{os.path.basename(code.co_filename)}:"
                    f"{code.co_name}"
                )
                frame = frame.f_back
                depth += 1
            del frame
            stack.reverse()
            self._stacks[tuple(stack)] += 1
            self._samples += 1

    @property
    def samples(self) -> int:
        return self._samples

    def summary(self, top: int = DEFAULT_TOP) -> Dict[str, Any]:
        """Aggregated result: top collapsed stacks plus leaf hotspots."""
        total = max(self._samples, 1)
        leaves: Counter = Counter()
        for stack, count in self._stacks.items():
            if stack:
                leaves[stack[-1]] += count
        return {
            "samples": self._samples,
            "interval_seconds": self._interval,
            "duration_seconds": self._duration,
            "stacks": [
                {"stack": list(stack), "samples": count,
                 "fraction": count / total}
                for stack, count in self._stacks.most_common(top)
            ],
            "hotspots": [
                {"site": site, "samples": count,
                 "fraction": count / total}
                for site, count in leaves.most_common(top)
            ],
        }


#: The process-wide switch; set by :func:`repro.telemetry.observe`.
_enabled = False


def maybe_capture(opt_in: Optional[bool] = None
                  ) -> Optional[ProfileCapture]:
    """The hot-path entry: a capture, or ``None`` when profiling is off.

    ``opt_in=True`` forces a capture, ``False`` forces none, ``None``
    defers to the process-wide switch.
    """
    if opt_in is False or (opt_in is None and not _enabled):
        return None
    return ProfileCapture()


def mirror_to_trace(summary: Dict[str, Any], name: str) -> None:
    """Export a summary to the live tracer as an instant event."""
    tracer = _trace.get_tracer()
    if tracer is None:
        return
    tracer.instant(name, category="profile", args={
        "samples": summary.get("samples", 0),
        "duration_seconds": summary.get("duration_seconds", 0.0),
        "hotspots": [
            f"{entry['site']} ({entry['fraction']:.0%})"
            for entry in summary.get("hotspots", [])[:5]
        ],
    })

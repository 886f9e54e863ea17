"""Admission control in front of the bounded solve queue.

Three independent gates run, in order, before a submission is allowed
to touch :class:`~repro.service.SolveService`:

1. **Per-tenant token bucket** — sustained request *rate*. Each tenant
   (the ``X-Tenant`` header) gets a bucket of ``quota_burst`` tokens
   refilled at ``quota_rate`` tokens/second; an empty bucket means 429
   with a ``Retry-After`` computed from the exact refill deficit.
2. **Per-tenant max-inflight cap** — concurrent *occupancy*. Accepted
   jobs hold one slot from admission until their terminal callback;
   at the cap the tenant is rejected until a job finishes.
3. **Queue-depth backpressure** — global protection of the bounded
   :class:`~repro.service.queue.JobQueue`. When the queue reports
   itself at capacity the submission is rejected *before* enqueueing
   (and :class:`~repro.service.QueueFullError` raised by a racing
   ``submit`` maps to the same 429).

All three reject with HTTP 429 + ``Retry-After`` — the server never
blocks the event loop waiting for capacity. Rejections decided
elsewhere (a racing ``QueueFullError``, a submission during a graceful
drain) go through :meth:`AdmissionController.reject`, so the
controller's ``rejected`` counts cover every reason. The controller is
thread-safe: ``release`` runs from solve-dispatcher threads (done
callbacks), ``admit`` from the event loop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..telemetry import metrics as _metrics

#: Suggested client back-off when the rejection has no natural refill
#: time (inflight cap, full queue): one typical small-job latency.
DEFAULT_RETRY_AFTER = 1.0


def _rejections_total(registry: "_metrics.MetricsRegistry"):
    return registry.counter(
        "server_rejected_total",
        "admissions rejected by reason (quota, inflight, queue, "
        "draining)",
        ("reason",),
    )


class TokenBucket:
    """Classic token bucket; caller provides the clock and the lock."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float,
                 now: Optional[float] = None):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic() if now is None else now

    def try_take(self, now: Optional[float] = None
                 ) -> Tuple[bool, float]:
        """Take one token; on failure return the refill wait in seconds."""
        if now is None:
            now = time.monotonic()
        elapsed = max(now - self.updated, 0.0)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one :meth:`AdmissionController.admit` call."""

    allowed: bool
    reason: str = "ok"
    retry_after: float = 0.0
    message: str = ""

    @property
    def status(self) -> int:
        return 200 if self.allowed else 429


class AdmissionController:
    """Per-tenant quotas and inflight caps over one shared queue."""

    def __init__(self, *, quota_rate: float = 20.0,
                 quota_burst: float = 40.0, max_inflight: int = 16,
                 queue_depth: Optional[Callable[[], Dict[str, Any]]] = None):
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.quota_rate = float(quota_rate)
        self.quota_burst = float(quota_burst)
        self.max_inflight = int(max_inflight)
        #: ``() -> {"live": int, "capacity": int}`` — usually the
        #: service queue's ``snapshot``; ``None`` skips the gate (the
        #: racing :class:`QueueFullError` path still protects it).
        self._queue_depth = queue_depth
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight: Dict[str, int] = {}
        self.admitted = 0
        self.rejected: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _reject(self, reason: str, retry_after: float,
                message: str) -> AdmissionDecision:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        registry = _metrics.get_registry()
        if registry is not None:
            _rejections_total(registry).labels(reason=reason).inc()
        return AdmissionDecision(False, reason, retry_after, message)

    def admit(self, tenant: str) -> AdmissionDecision:
        """Run all gates for one submission; takes an inflight slot.

        On success the tenant holds one inflight slot (and one bucket
        token is consumed); the caller **must** pair every allowed
        admission with exactly one :meth:`release` — on job completion
        or on a failed enqueue.
        """
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.quota_rate, self.quota_burst)
                self._buckets[tenant] = bucket
            taken, retry_after = bucket.try_take()
            if not taken:
                return self._reject(
                    "quota", retry_after,
                    f"tenant {tenant!r} exceeded its request quota "
                    f"({self.quota_rate:g}/s, burst {self.quota_burst:g})",
                )
            inflight = self._inflight.get(tenant, 0)
            if inflight >= self.max_inflight:
                # The consumed token is deliberately not refunded: a
                # tenant hammering a full inflight cap still spends
                # quota, which is what keeps retry storms bounded.
                return self._reject(
                    "inflight", DEFAULT_RETRY_AFTER,
                    f"tenant {tenant!r} has {inflight} jobs in flight "
                    f"(cap {self.max_inflight})",
                )
            if self._queue_depth is not None:
                depth = self._queue_depth()
                live = int(depth.get("live", 0))
                capacity = int(depth.get("capacity", 0))
                if capacity and live >= capacity:
                    return self._reject(
                        "queue", DEFAULT_RETRY_AFTER,
                        f"job queue at capacity ({live}/{capacity})",
                    )
            self._inflight[tenant] = inflight + 1
            self.admitted += 1
            return AdmissionDecision(True)

    def reject(self, reason: str, message: str) -> AdmissionDecision:
        """Record a rejection decided outside :meth:`admit` — a
        :class:`QueueFullError` raised by a racing submit, or a
        submission during drain."""
        with self._lock:
            return self._reject(reason, DEFAULT_RETRY_AFTER, message)

    def release(self, tenant: str) -> None:
        """Return the inflight slot taken by an allowed admission."""
        with self._lock:
            count = self._inflight.get(tenant, 0)
            if count <= 1:
                self._inflight.pop(tenant, None)
            else:
                self._inflight[tenant] = count - 1

    # ------------------------------------------------------------------
    def inflight(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is not None:
                return self._inflight.get(tenant, 0)
            return sum(self._inflight.values())

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "quota_rate": self.quota_rate,
                "quota_burst": self.quota_burst,
                "max_inflight": self.max_inflight,
                "tenants": len(self._buckets),
                "inflight": dict(self._inflight),
                "admitted": self.admitted,
                "rejected": dict(self.rejected),
            }

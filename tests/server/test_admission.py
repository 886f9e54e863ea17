"""Unit tests for token buckets and the admission controller."""

import threading
import time

import pytest

from repro.server.admission import (
    AdmissionController,
    TokenBucket,
)


class TestTokenBucket:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0, 1)
        with pytest.raises(ValueError):
            TokenBucket(1, 0)

    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        for _ in range(3):
            taken, _ = bucket.try_take(now=0.0)
            assert taken
        taken, retry = bucket.try_take(now=0.0)
        assert not taken
        assert retry == pytest.approx(1.0)

    def test_refill_is_proportional_to_elapsed_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.try_take(now=0.0)[0]
        assert bucket.try_take(now=0.0)[0]
        taken, retry = bucket.try_take(now=0.0)
        assert not taken
        assert retry == pytest.approx(0.5)
        # Half the deficit refilled after 0.25s at 2 tokens/s.
        taken, retry = bucket.try_take(now=0.25)
        assert not taken
        assert retry == pytest.approx(0.25)
        taken, _ = bucket.try_take(now=0.5)
        assert taken

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        bucket.try_take(now=1000.0)  # long idle refills to burst only
        assert bucket.tokens == pytest.approx(1.0)

    def test_retry_after_shrinks_with_rate(self):
        fast = TokenBucket(rate=50.0, burst=1.0, now=0.0)
        fast.try_take(now=0.0)
        _, retry = fast.try_take(now=0.0)
        assert retry == pytest.approx(1.0 / 50.0)


class TestAdmissionController:
    def test_quota_exhaustion_and_recovery(self):
        controller = AdmissionController(quota_rate=1000.0,
                                         quota_burst=2.0,
                                         max_inflight=100)
        assert controller.admit("t1").allowed
        assert controller.admit("t1").allowed
        decision = controller.admit("t1")
        assert not decision.allowed
        assert decision.reason == "quota"
        assert decision.status == 429
        assert 0 < decision.retry_after <= 1.0 / 1000.0 + 1e-6
        # At 1000 tokens/s the deficit refills essentially instantly.
        time.sleep(0.01)
        assert controller.admit("t1").allowed

    def test_tenants_are_isolated(self):
        controller = AdmissionController(quota_rate=0.001,
                                         quota_burst=1.0,
                                         max_inflight=8)
        assert controller.admit("a").allowed
        assert not controller.admit("a").allowed
        assert controller.admit("b").allowed

    def test_inflight_cap_and_release(self):
        controller = AdmissionController(quota_rate=1e6,
                                         quota_burst=1e6,
                                         max_inflight=2)
        assert controller.admit("t").allowed
        assert controller.admit("t").allowed
        decision = controller.admit("t")
        assert not decision.allowed
        assert decision.reason == "inflight"
        assert decision.retry_after > 0
        controller.release("t")
        assert controller.admit("t").allowed
        assert controller.inflight("t") == 2

    def test_queue_depth_gate(self):
        depth = {"live": 0, "capacity": 4}
        controller = AdmissionController(quota_rate=1e6,
                                         quota_burst=1e6,
                                         max_inflight=100,
                                         queue_depth=lambda: depth)
        assert controller.admit("t").allowed
        depth["live"] = 4
        decision = controller.admit("t")
        assert not decision.allowed
        assert decision.reason == "queue"

    def test_snapshot_counts_decisions(self):
        controller = AdmissionController(quota_rate=1e6,
                                         quota_burst=1e6,
                                         max_inflight=1)
        controller.admit("t")
        controller.admit("t")
        controller.reject("queue", "job queue at capacity")
        view = controller.snapshot()
        assert view["admitted"] == 1
        assert view["rejected"] == {"inflight": 1, "queue": 1}
        assert view["inflight"] == {"t": 1}

    def test_thread_safety_of_admit_release(self):
        controller = AdmissionController(quota_rate=1e9,
                                         quota_burst=1e9,
                                         max_inflight=10_000)
        errors = []

        def worker():
            try:
                for _ in range(500):
                    assert controller.admit("t").allowed
                    controller.release("t")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert controller.inflight() == 0

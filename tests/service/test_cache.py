"""Unit tests for the content-addressed result cache and its keys."""

import hashlib
import sys
import threading

from repro.compile import SolverConfig
from repro.db import JoinOrderQUBO, random_join_graph
from repro.service.cache import ResultCache, cache_key


def problem(seed=0):
    return JoinOrderQUBO(random_join_graph(4, "chain", seed=seed)).compile()


SEEDED = SolverConfig(num_sweeps=50, num_reads=4, seed=7,
                      convergence=False)


def test_cache_key_is_stable_across_recompilation():
    assert (cache_key(problem(), "sa", SEEDED)
            == cache_key(problem(), "sa", SEEDED))


def test_cache_key_varies_with_each_input():
    base = cache_key(problem(), "sa", SEEDED)
    assert cache_key(problem(seed=1), "sa", SEEDED) != base
    assert cache_key(problem(), "tabu", SEEDED) != base
    other_config = SolverConfig(num_sweeps=51, num_reads=4, seed=7,
                                convergence=False)
    assert cache_key(problem(), "sa", other_config) != base
    assert cache_key(problem(), "sa", SEEDED, repair=True) != base


def test_seedless_config_is_uncacheable():
    assert cache_key(problem(), "sa", SolverConfig(num_sweeps=50)) is None


def test_lru_eviction_order():
    cache = ResultCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes a's LRU position
    cache.put("c", 3)  # evicts b, the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.evictions == 1


def test_hit_miss_skip_accounting():
    cache = ResultCache(max_entries=4)
    assert cache.get("missing") is None
    cache.put("k", "v")
    assert cache.get("k") == "v"
    assert cache.get(None) is None
    snapshot = cache.snapshot()
    assert snapshot["hits"] == 1
    assert snapshot["misses"] == 1
    assert snapshot["skips"] == 1
    assert snapshot["entries"] == 1
    assert snapshot["hit_rate"] == 0.5


def test_peek_and_note_do_not_double_count():
    cache = ResultCache(max_entries=2)
    cache.put("k", "v")
    assert cache.peek("k") == "v"
    assert cache.peek("other") is None
    assert cache.snapshot()["hits"] == 0
    assert cache.snapshot()["misses"] == 0
    cache.note_hit("k")
    cache.note_miss("other")
    cache.note_miss(None)
    snapshot = cache.snapshot()
    assert (snapshot["hits"], snapshot["misses"], snapshot["skips"]) \
        == (1, 1, 1)


def test_clear_and_len():
    cache = ResultCache(max_entries=4)
    cache.put("a", 1)
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.get("a") is None


def test_concurrent_hit_path_is_consistent():
    cache = ResultCache(256)
    hot = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(32)]
    for index, key in enumerate(hot):
        cache.put(key, index)
    errors = []

    def hammer():
        try:
            for _ in range(200):
                for index, key in enumerate(hot):
                    if cache.get(key) != index:
                        raise AssertionError("lost entry under load")
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert cache.hits == 4 * 200 * 32

"""Content-addressed LRU cache of :class:`SolveResult` records.

The cache key is a stable digest of *everything that determines the
solver's output*: the problem's
:meth:`~repro.compile.CompiledProblem.content_key` (canonicalized QUBO
/ Ising terms — no ``id()`` or array ``repr`` leakage), the solver
registry name, the full resolved :class:`SolverConfig` (uniform knobs,
resolved convergence flag, backend options) and the seed. Seedless
configs are *uncacheable* by construction — two runs would legally
return different samples — and are counted as skips rather than
cached.

The cache is one LRU ``OrderedDict`` under a single lock. The solve
service looks entries up under its own submission lock, so splitting
this lock could not remove contention on the hit path.

Hits, misses, evictions and skips are counted in
``service_cache_events_total{event}`` so cache effectiveness shows up
in every report.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..telemetry import metrics as _metrics
from ..compile.dispatch import SolverConfig
from ..compile.ir import CompiledProblem


def _count_event(event: str, value: int = 1, *, registry: Any) -> None:
    """Count one cache event in ``service_cache_events_total{event}``,
    the series the SLO rules and Prometheus exports consume.

    Cache methods fetch the registry guard **once per operation**
    (outside their lock) and pass it in, matching the cheap-when-off
    pattern of the service and solver layers.
    """
    if registry is not None:
        registry.counter(
            "service_cache_events_total",
            "result-cache lookup outcomes",
            ("event",)).labels(event=event).inc(value)


def cache_key(problem: CompiledProblem, solver: str,
              config: SolverConfig, repair: bool = False,
              problem_key: Optional[str] = None) -> Optional[str]:
    """Stable cache key, or ``None`` when the job is uncacheable.

    ``None`` (no seed) means the backend's RNG is nondeterministic
    across runs, so a cached result would silently change semantics.
    The convergence flag must already be resolved
    (:meth:`SolverConfig.resolve_convergence`) — it changes the
    result's ``convergence`` payload, so it is part of the key, as is
    ``repair``, which changes the returned best solution.
    ``problem_key`` lets a caller that already holds
    ``problem.content_key()`` (the service computes it once per
    submission for batching) pass it in instead of re-deriving it.
    """
    if config.seed is None:
        return None
    material = json.dumps(
        {
            "problem": problem_key or problem.content_key(),
            "solver": solver,
            "config": config.to_dict(),
            "repair": bool(repair),
        },
        sort_keys=True, default=repr,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded, thread-safe LRU mapping cache keys to results."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.skips = 0

    def get(self, key: Optional[str]) -> Optional[Any]:
        """Look up a key, refreshing its LRU position on a hit."""
        registry = _metrics.get_registry()
        if key is None:
            with self._lock:
                self.skips += 1
            _count_event("skip", registry=registry)
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            _count_event("miss", registry=registry)
        else:
            _count_event("hit", registry=registry)
        return entry

    def peek(self, key: Optional[str]) -> Optional[Any]:
        """Look up without touching hit/miss accounting or LRU order.

        The service peeks under its own submission lock and then calls
        :meth:`note_hit` / :meth:`note_miss` once it knows whether the
        submission became a cache hit, a coalesce, or a real job — so
        coalesced duplicates are not double-counted as misses.
        """
        if key is None:
            return None
        with self._lock:
            return self._entries.get(key)

    def note_hit(self, key: str) -> None:
        """Count a hit and refresh the entry's LRU position."""
        registry = _metrics.get_registry()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self.hits += 1
        _count_event("hit", registry=registry)

    def note_miss(self, key: Optional[str]) -> None:
        """Count a miss — or a skip, for uncacheable ``None`` keys."""
        registry = _metrics.get_registry()
        if key is None:
            with self._lock:
                self.skips += 1
            _count_event("skip", registry=registry)
            return
        with self._lock:
            self.misses += 1
        _count_event("miss", registry=registry)

    def put(self, key: Optional[str], result: Any) -> None:
        """Insert a result, evicting the least recently used past cap."""
        if key is None:
            return
        registry = _metrics.get_registry()
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted:
            _count_event("eviction", evicted, registry=registry)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, Any]:
        """Hit/miss/eviction statistics plus current occupancy."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "skips": self.skips,
                "hit_rate": (self.hits / total) if total else 0.0,
            }

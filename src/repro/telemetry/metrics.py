"""The metrics store: labeled counters, gauges, histograms, timers.

Every number the stack records lives here — the tutorial's work
counts (gate applications, circuit evaluations, sweeps, shots), span
timings (``span_seconds{path}``, written by
:func:`repro.telemetry.span`) and the serving layer's questions ("p95
queue wait", "cache hit ratio by outcome", "per-solver execution
time"):

* :class:`Counter` — monotonically increasing totals, optionally
  split by label values (``service_jobs_total{status="timeout"}``).
* :class:`Gauge` — last-written (or max-tracked) values.
* :class:`Histogram` — fixed log-spaced buckets **plus** a bounded
  reservoir of raw observations, so exports carry both
  Prometheus-style bucket counts and exact p50/p95/p99 for runs that
  fit the reservoir.
* :class:`Timer` — a context manager observing elapsed seconds into a
  histogram series.

Everything hangs off a thread-safe :class:`MetricsRegistry` with
snapshot/merge support and two export formats: the Prometheus text
exposition format (:meth:`MetricsRegistry.to_prometheus`) and
``repro-metrics/v1`` JSON (:meth:`MetricsRegistry.to_json`) consumed
by ``python -m repro.experiments metrics-report``.
:meth:`MetricsRegistry.merge_snapshot` is the one merge: each warm
worker process keeps its own registry and ships one snapshot when the
pool drains, so ``service_metrics_merges_total`` counts drained
workers, not jobs, and ``run_experiment`` folds each run's fresh
registry into the caller's the same way.

The warm-pool service layer contributes its own instrument on top of
the job/queue/cache set: ``service_worker_respawns_total``
(reap-and-replace events; exported as an explicit 0 on healthy
runs).

Like the tracer, metrics are **off by default and cheap when off**:
instrumented hot paths fetch :func:`get_registry` once per
*operation* (a solve, a batch run, a service dispatch) and fall
through when it is ``None``, so the disabled cost is one function
call + identity check per operation, never per sweep or per gate.

The ``metrics`` level of :func:`repro.telemetry.observe`
(``REPRO_OBSERVE=metrics``) and every level above it install a
registry; :func:`enable_metrics` installs a given one (a run's fresh
registry, a worker's private one)::

    from repro import telemetry
    telemetry.observe("metrics")
    ... instrumented code ...
    print(telemetry.get_registry().to_prometheus())

:func:`main` validates a Prometheus text file; the package runs it
(the CI format checker)::

    python -m repro.telemetry metrics.prom
"""

from __future__ import annotations

import json
import math
import random
import re
import threading
import time
from bisect import bisect_left
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: Schema tag carried by every registry snapshot / JSON export.
METRICS_SCHEMA = "repro-metrics/v1"

#: Default histogram buckets: log-spaced upper bounds covering 100us
#: to 500s with a 1/2.5/5 mantissa ladder — wide enough for queue
#: waits and solver runtimes alike. An implicit +Inf bucket catches
#: everything beyond.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    mantissa * 10.0 ** exponent
    for exponent in range(-4, 3)
    for mantissa in (1.0, 2.5, 5.0)
)

#: Per-series reservoir capacity. Quantiles are exact while a series
#: has at most this many observations; beyond it the reservoir decays
#: into a uniform sample (Algorithm R) and quantiles are estimates.
RESERVOIR_SIZE = 2048

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def quantile(sorted_values: Sequence[float], q: float
             ) -> Optional[float]:
    """Linear-interpolation quantile of pre-sorted values."""
    if not sorted_values:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile fraction must be in [0, 1]")
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[high] * fraction)


class Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("_series", "_start", "elapsed")

    def __init__(self, series: "HistogramSeries"):
        self._series = series
        self._start = 0.0
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self._start
        self._series.observe(self.elapsed)
        return False


# ----------------------------------------------------------------------
# Per-label-set series (the objects hot paths actually update)
# ----------------------------------------------------------------------
class CounterSeries:
    """One label set of a :class:`Counter`."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeSeries:
    """One label set of a :class:`Gauge`."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """Keep the running maximum (peak-tracking gauges)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramSeries:
    """One label set of a :class:`Histogram`: buckets + reservoir."""

    __slots__ = ("_lock", "_buckets", "_bucket_counts", "_count",
                 "_sum", "_reservoir", "_rng")

    def __init__(self, buckets: Tuple[float, ...]):
        self._lock = threading.Lock()
        self._buckets = buckets
        # Per-bucket (not cumulative) counts; the final slot is the
        # overflow bucket (observations above the last bound).
        self._bucket_counts = [0] * (len(buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._reservoir: List[float] = []
        # Deterministic reservoir decay so snapshots of the same run
        # reproduce bit for bit.
        self._rng = random.Random(0x5EED)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._bucket_counts[bisect_left(self._buckets, value)] += 1
            if len(self._reservoir) < RESERVOIR_SIZE:
                self._reservoir.append(value)
            else:  # Algorithm R: uniform sample over all observations
                slot = self._rng.randrange(self._count)
                if slot < RESERVOIR_SIZE:
                    self._reservoir[slot] = value

    def time(self) -> Timer:
        """A :class:`Timer` observing into this series on exit."""
        return Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Reservoir quantile (exact while the reservoir holds all
        observations, a uniform-sample estimate beyond)."""
        with self._lock:
            values = sorted(self._reservoir)
        return quantile(values, q)

    def percentiles(self) -> Dict[str, Optional[float]]:
        with self._lock:
            values = sorted(self._reservoir)
        return {
            "p50": quantile(values, 0.50),
            "p95": quantile(values, 0.95),
            "p99": quantile(values, 0.99),
        }

    def _snapshot(self, include_reservoir: bool) -> Dict[str, Any]:
        with self._lock:
            entry: Dict[str, Any] = {
                "count": self._count,
                "sum": self._sum,
                "bucket_counts": list(self._bucket_counts),
            }
            values = sorted(self._reservoir)
        entry.update(
            p50=quantile(values, 0.50),
            p95=quantile(values, 0.95),
            p99=quantile(values, 0.99),
        )
        if include_reservoir:
            entry["reservoir"] = values
        return entry

    def _merge(self, entry: Mapping[str, Any]) -> None:
        counts = entry.get("bucket_counts") or []
        reservoir = entry.get("reservoir") or []
        with self._lock:
            self._count += int(entry.get("count", 0))
            self._sum += float(entry.get("sum", 0.0))
            if len(counts) == len(self._bucket_counts):
                for index, extra in enumerate(counts):
                    self._bucket_counts[index] += int(extra)
            for value in reservoir:
                if len(self._reservoir) < RESERVOIR_SIZE:
                    self._reservoir.append(float(value))
                else:
                    slot = self._rng.randrange(len(self._reservoir))
                    self._reservoir[slot] = float(value)


_SERIES_TYPES = {
    "counter": CounterSeries,
    "gauge": GaugeSeries,
}


# ----------------------------------------------------------------------
# Instruments (name + help + labelnames -> series per label set)
# ----------------------------------------------------------------------
class _Instrument:
    """Base labeled instrument: a family of per-label-set series."""

    kind = "?"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_PATTERN.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _new_series(self):
        return _SERIES_TYPES[self.kind]()

    def labels(self, **labelvalues: Any):
        """The series for one label set (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._new_series()
        return series

    def _unlabeled(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled {list(self.labelnames)}; "
                "call .labels(...) first"
            )
        return self.labels()

    def series_items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._series.items())

    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Instrument):
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    @property
    def value(self) -> float:
        """Total across every label set."""
        return sum(series.value for _, series in self.series_items())


class Gauge(_Instrument):
    kind = "gauge"

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabeled().dec(amount)

    def set_max(self, value: float) -> None:
        self._unlabeled().set_max(value)

    @property
    def value(self) -> float:
        series = self._unlabeled()
        return series.value


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in (buckets if buckets is not None
                                          else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds

    def _new_series(self):
        return HistogramSeries(self.buckets)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)

    def time(self) -> Timer:
        return self._unlabeled().time()


_INSTRUMENT_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Thread-safe named registry of labeled instruments.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create:
    repeated calls with the same name return the same instrument, and
    conflicting re-registration (different kind, labelnames or
    buckets) raises ``ValueError`` — metric identity must be stable
    for exports to make sense.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        self.created_at = time.time()

    def _get_or_create(self, kind: str, name: str, help: str,
                       labelnames: Sequence[str],
                       **kwargs: Any) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = _INSTRUMENT_TYPES[kind](
                    name, help, labelnames, **kwargs)
                self._instruments[name] = instrument
                return instrument
        if instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {kind}"
            )
        if instrument.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{list(instrument.labelnames)}, not {list(labelnames)}"
            )
        if kind == "histogram":
            buckets = kwargs.get("buckets")
            if (buckets is not None
                    and tuple(float(b) for b in buckets)
                    != instrument.buckets):
                raise ValueError(
                    f"metric {name!r} already registered with "
                    "different buckets"
                )
        return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create("gauge", name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None
                  ) -> Histogram:
        return self._get_or_create("histogram", name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def instrument_names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    # -- export ----------------------------------------------------------
    def snapshot(self, include_reservoir: bool = True
                 ) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) view of every instrument.

        Histogram series always include precomputed p50/p95/p99;
        ``include_reservoir=False`` drops the raw reservoir values
        (the :class:`~repro.telemetry.sampler.MetricsSampler` uses
        this to keep periodic JSONL lines small).
        """
        with self._lock:
            instruments = list(self._instruments.values())
        snap: Dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "unix_time": time.time(),
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for instrument in instruments:
            if instrument.kind == "histogram":
                entry: Dict[str, Any] = {
                    "help": instrument.help,
                    "labelnames": list(instrument.labelnames),
                    "buckets": list(instrument.buckets),
                    "series": [
                        {"labels": instrument._label_dict(key),
                         **series._snapshot(include_reservoir)}
                        for key, series in instrument.series_items()
                    ],
                }
                snap["histograms"][instrument.name] = entry
            else:
                section = ("counters" if instrument.kind == "counter"
                           else "gauges")
                snap[section][instrument.name] = {
                    "help": instrument.help,
                    "labelnames": list(instrument.labelnames),
                    "series": [
                        {"labels": instrument._label_dict(key),
                         "value": series.value}
                        for key, series in instrument.series_items()
                    ],
                }
        return snap

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Worker processes run with their own registry and ship the
        snapshot back with the result; the parent merges so one export
        covers the fleet. Counters and histogram bucket counts / sums
        add per label set, gauges last-write-wins, reservoirs merge
        bounded (beyond capacity the merge keeps a uniform sample).
        """
        for name, entry in (snapshot.get("counters") or {}).items():
            counter = self.counter(name, entry.get("help", ""),
                                   entry.get("labelnames", ()))
            for series in entry.get("series", []):
                value = float(series.get("value", 0.0))
                if value:
                    counter.labels(**series.get("labels", {})).inc(value)
        for name, entry in (snapshot.get("gauges") or {}).items():
            gauge = self.gauge(name, entry.get("help", ""),
                               entry.get("labelnames", ()))
            for series in entry.get("series", []):
                gauge.labels(**series.get("labels", {})).set(
                    float(series.get("value", 0.0)))
        for name, entry in (snapshot.get("histograms") or {}).items():
            histogram = self.histogram(name, entry.get("help", ""),
                                       entry.get("labelnames", ()),
                                       buckets=entry.get("buckets"))
            for series in entry.get("series", []):
                target = histogram.labels(**series.get("labels", {}))
                target._merge(series)

    def to_json(self, indent: Optional[int] = 2,
                include_reservoir: bool = True) -> str:
        """The snapshot as a ``repro-metrics/v1`` JSON document."""
        return json.dumps(self.snapshot(include_reservoir),
                          indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Histograms render the standard cumulative ``_bucket`` series
        (with ``le`` upper bounds and a ``+Inf`` catch-all) plus
        ``_sum`` and ``_count``, preserving the invariants scrapers
        rely on: bucket counts non-decreasing in ``le`` and the
        ``+Inf`` bucket equal to ``_count``.
        """
        lines: List[str] = []
        snap = self.snapshot(include_reservoir=False)
        for kind, section in (("counter", "counters"),
                              ("gauge", "gauges")):
            for name in sorted(snap[section]):
                entry = snap[section][name]
                if entry["help"]:
                    lines.append(f"# HELP {name} "
                                 f"{_escape_help(entry['help'])}")
                lines.append(f"# TYPE {name} {kind}")
                for series in entry["series"]:
                    lines.append(
                        f"{name}{_format_labels(series['labels'])} "
                        f"{_format_value(series['value'])}"
                    )
        for name in sorted(snap["histograms"]):
            entry = snap["histograms"][name]
            if entry["help"]:
                lines.append(f"# HELP {name} "
                             f"{_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} histogram")
            bounds = entry["buckets"]
            for series in entry["series"]:
                labels = series["labels"]
                cumulative = 0
                for bound, bucket in zip(bounds,
                                         series["bucket_counts"]):
                    cumulative += bucket
                    le_labels = {**labels, "le": _format_le(bound)}
                    lines.append(
                        f"{name}_bucket{_format_labels(le_labels)} "
                        f"{cumulative}"
                    )
                cumulative += series["bucket_counts"][-1]
                inf_labels = {**labels, "le": "+Inf"}
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} "
                    f"{cumulative}"
                )
                lines.append(f"{name}_sum{_format_labels(labels)} "
                             f"{_format_value(series['sum'])}")
                lines.append(f"{name}_count{_format_labels(labels)} "
                             f"{series['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._instruments.clear()


# ----------------------------------------------------------------------
# Prometheus text formatting / validation
# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_le(bound: float) -> str:
    return format(bound, ".10g")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return format(value, ".10g")


_SAMPLE_PATTERN = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(.*)\})?"
    r"\s+(-?(?:[0-9.]+(?:[eE][+-]?[0-9]+)?|Inf)|\+Inf|NaN)$"
)
_LABEL_PAIR_PATTERN = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def _parse_sample_value(text: str) -> float:
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def validate_prometheus_text(text: str) -> List[str]:
    """Structural checks on a Prometheus text exposition document.

    Returns a list of problems (empty when the document is valid):
    unknown/missing ``# TYPE`` declarations, unparsable sample lines,
    non-finite counter values — and for histograms, the scrape
    invariants: ``le`` bounds strictly increasing, cumulative bucket
    counts non-decreasing, a ``+Inf`` bucket present and equal to the
    series ``_count``, and a finite ``_sum``.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    # (base name, frozen labels minus le) -> list of (le, count)
    buckets: Dict[Tuple[str, Any], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Any], float] = {}
    sums: Dict[Tuple[str, Any], float] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram",
                                                   "summary",
                                                   "untyped"):
                problems.append(f"line {number}: malformed TYPE: {line!r}")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_PATTERN.match(line)
        if match is None:
            problems.append(f"line {number}: unparsable sample: {line!r}")
            continue
        name, label_body, value_text = match.groups()
        labels = dict(_LABEL_PAIR_PATTERN.findall(label_body or ""))
        value = _parse_sample_value(value_text)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = name[:-len(suffix)] if name.endswith(suffix) else None
            if stripped is not None and types.get(stripped) == "histogram":
                base = stripped
                break
        declared = types.get(base)
        if declared is None:
            problems.append(
                f"line {number}: sample {name!r} has no # TYPE "
                "declaration"
            )
            continue
        if declared == "counter" and not (math.isfinite(value)
                                          and value >= 0):
            problems.append(
                f"line {number}: counter {name!r} has invalid value "
                f"{value_text}"
            )
        if declared == "histogram":
            series_labels = {key: val for key, val in labels.items()
                             if key != "le"}
            key = (base, tuple(sorted(series_labels.items())))
            if name.endswith("_bucket"):
                le_text = labels.get("le")
                if le_text is None:
                    problems.append(
                        f"line {number}: histogram bucket without "
                        f"'le' label: {line!r}"
                    )
                    continue
                buckets.setdefault(key, []).append(
                    (_parse_sample_value(le_text), value))
            elif name.endswith("_count"):
                counts[key] = value
            elif name.endswith("_sum"):
                sums[key] = value
            elif name == base:
                problems.append(
                    f"line {number}: bare histogram sample "
                    f"{name!r} (expected _bucket/_sum/_count)"
                )
    for key, series in buckets.items():
        name, labels = key
        where = f"histogram {name!r} {dict(labels) or ''}".rstrip()
        les = [le for le, _ in series]
        if les != sorted(les) or len(set(les)) != len(les):
            problems.append(f"{where}: 'le' bounds not strictly "
                            "increasing")
        values = [count for _, count in series]
        if any(later < earlier for earlier, later
               in zip(values, values[1:])):
            problems.append(f"{where}: cumulative bucket counts "
                            "decrease")
        if not les or not math.isinf(les[-1]):
            problems.append(f"{where}: missing '+Inf' bucket")
        elif key in counts and values[-1] != counts[key]:
            problems.append(
                f"{where}: '+Inf' bucket {values[-1]:g} != _count "
                f"{counts[key]:g}"
            )
        if key not in counts:
            problems.append(f"{where}: missing _count sample")
        if key not in sums:
            problems.append(f"{where}: missing _sum sample")
        elif not math.isfinite(sums[key]):
            problems.append(f"{where}: _sum is not finite")
    return problems


# ----------------------------------------------------------------------
# Global registry (the single-attribute guard)
# ----------------------------------------------------------------------
_registry: Optional[MetricsRegistry] = None


def enable_metrics(registry: Optional[MetricsRegistry] = None
                   ) -> MetricsRegistry:
    """Install (and return) the global registry; metrics flow after."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return _registry


def disable_metrics() -> None:
    """Remove the global registry; instrumented code reverts to no-ops."""
    global _registry
    _registry = None


def get_registry() -> Optional[MetricsRegistry]:
    """The active registry, or None when metrics are disabled.

    Hot paths fetch this once per operation and branch on it, so the
    disabled cost is a single call + identity check.
    """
    return _registry


# ----------------------------------------------------------------------
# CLI: validate a Prometheus text file (used by CI)
# ----------------------------------------------------------------------
def main(argv: Optional[Iterable[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Validate a Prometheus text exposition file "
                    "(format + histogram invariants).",
    )
    parser.add_argument("path", help="Prometheus text file")
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        print(f"cannot read {args.path}: {error}", file=sys.stderr)
        return 1
    problems = validate_prometheus_text(text)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    samples = sum(1 for line in text.splitlines()
                  if line and not line.startswith("#"))
    families = sum(1 for line in text.splitlines()
                   if line.startswith("# TYPE "))
    print(f"{args.path}: valid Prometheus exposition "
          f"({families} metric families, {samples} samples)")
    return 0

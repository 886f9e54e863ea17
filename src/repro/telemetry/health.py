"""Service-level objectives over a metrics snapshot, as plain code.

An :class:`SLORule` reads one number from a ``repro-metrics/v1``
snapshot (:meth:`MetricsRegistry.snapshot`) and compares it with a
fail threshold and an optional warn threshold::

    SLORule("queue_wait_p95", "p95(service_queue_wait_seconds)",
            lambda snapshot: _p95(snapshot,
                                  "service_queue_wait_seconds"),
            "<", 5.0, warn=1.0)

A quantile is the one the snapshot's series already carries, computed
from its full reservoir: the figure the dashboard prints. A ratio is
of counter values; a counter that exists but has no series for a label
value was never incremented there and reads 0.

:func:`evaluate_rules` folds rule results into a :class:`HealthReport`
with overall status ``ok`` / ``warn`` / ``fail`` and a per-rule reason
string. A rule whose metric was never collected, whose histogram is
empty or whose ratio is 0/0 is ``warn`` with a ``not evaluated:``
reason rather than failing: an SLO over a subsystem that did not run
is unknown, not violated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from . import flight as _flight

_STATUS_ORDER = {"ok": 0, "warn": 1, "fail": 2}

_COMPARISONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class MetricUnavailable(Exception):
    """The number a rule reads is not in the snapshot (or is 0/0)."""


@dataclass(frozen=True)
class SLORule:
    """One named service-level objective.

    ``reader`` returns the number the rule judges from a snapshot, or
    raises :class:`MetricUnavailable`; ``quantity`` names that number
    in reports. The rule is ``fail`` unless ``number <op> fail`` holds,
    else ``warn`` unless ``number <op> warn`` holds too, else ``ok``.
    """

    name: str
    quantity: str
    reader: Callable[[Mapping[str, Any]], float]
    op: str
    fail: float
    warn: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ValueError(f"unsupported comparison {self.op!r}; "
                             f"expected one of {', '.join(_COMPARISONS)}")

    def check(self, threshold: float) -> str:
        """The text of the check against ``threshold``."""
        return f"{self.quantity} {self.op} {_format_number(threshold)}"


@dataclass
class RuleResult:
    """Outcome of one rule against one snapshot."""

    rule: str
    status: str
    reason: str
    expr: str


@dataclass
class HealthReport:
    """Aggregated rule outcomes; overall status is the worst rule."""

    results: List[RuleResult] = field(default_factory=list)

    @property
    def status(self) -> str:
        worst = "ok"
        for result in self.results:
            if _STATUS_ORDER[result.status] > _STATUS_ORDER[worst]:
                worst = result.status
        return worst

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def failures(self) -> List[RuleResult]:
        return [r for r in self.results if r.status == "fail"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "rules": [
                {"rule": r.rule, "status": r.status,
                 "reason": r.reason, "expr": r.expr}
                for r in self.results
            ],
        }

    def render(self) -> str:
        lines = [f"health: {self.status.upper()}"]
        width = max((len(r.rule) for r in self.results), default=0)
        for result in self.results:
            lines.append(
                f"  {result.status:<4}  "
                f"{result.rule.ljust(width)}  {result.reason}"
            )
        if not self.results:
            lines.append("  (no rules evaluated)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Readers over a snapshot dict
# ----------------------------------------------------------------------
def _p95(snapshot: Mapping[str, Any], name: str) -> float:
    """The p95 carried by histogram ``name``'s unlabeled series."""
    entry = (snapshot.get("histograms") or {}).get(name)
    if entry is None:
        raise MetricUnavailable(f"histogram {name!r} was not collected")
    for series in entry.get("series", []):
        if not series.get("labels") and series.get("p95") is not None:
            return float(series["p95"])
    raise MetricUnavailable(
        f"histogram {name!r} has no p95: its reservoir is empty")


def _counter(snapshot: Mapping[str, Any], name: str,
             **labels: str) -> float:
    """Counter ``name`` summed over the series carrying ``labels``."""
    entry = (snapshot.get("counters") or {}).get(name)
    if entry is None:
        raise MetricUnavailable(f"counter {name!r} was not collected")
    return float(sum(
        series.get("value", 0.0) for series in entry.get("series", [])
        if labels.items() <= (series.get("labels") or {}).items()))


def _ratio(part: float, whole: float, of: str) -> float:
    if not whole:
        raise MetricUnavailable(f"no {of}")
    return part / whole


def _cache_hit_ratio(snapshot: Mapping[str, Any]) -> float:
    hits = _counter(snapshot, "service_cache_events_total", event="hit")
    misses = _counter(snapshot, "service_cache_events_total",
                      event="miss")
    return _ratio(hits, hits + misses, "cache lookups")


def _job_share(status: str) -> Callable[[Mapping[str, Any]], float]:
    """Reader of the share of submitted jobs that ended in ``status``."""
    def read(snapshot: Mapping[str, Any]) -> float:
        return _ratio(
            _counter(snapshot, "service_jobs_total", status=status),
            _counter(snapshot, "service_jobs_total", status="submitted"),
            "submitted jobs")
    return read


#: Default ruleset for the serving layer. Thresholds are deliberately
#: loose: they catch pathology (stalled queue, cold cache, systematic
#: timeouts), not tuning regressions.
DEFAULT_SLO_RULES: Tuple[SLORule, ...] = (
    SLORule(
        "queue_wait_p95", "p95(service_queue_wait_seconds)",
        lambda snapshot: _p95(snapshot, "service_queue_wait_seconds"),
        "<", 5.0, warn=1.0,
        description="jobs should not sit in the queue",
    ),
    SLORule(
        "cache_hit_ratio",
        "service_cache_events_total hit / (hit + miss)",
        _cache_hit_ratio, ">=", 0.1, warn=0.25,
        description="repeat submissions should be served from cache",
    ),
    SLORule(
        "timeout_rate", "service_jobs_total timeout / submitted",
        _job_share("timeout"), "<=", 0.05,
        description="deadline reaping should be exceptional",
    ),
    SLORule(
        "failure_rate", "service_jobs_total failed / submitted",
        _job_share("failed"), "<=", 0.01,
        description="worker crashes should be exceptional",
    ),
)


def _format_number(value: float) -> str:
    if not math.isfinite(value):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) < 1e-3 or abs(value) >= 1e6:
        return f"{value:.3g}"
    return f"{value:.4g}".rstrip("0").rstrip(".") or "0"


# ----------------------------------------------------------------------
# Rule evaluation
# ----------------------------------------------------------------------
def evaluate_rule(rule: SLORule, snapshot: Mapping[str, Any]
                  ) -> RuleResult:
    """Evaluate one rule; a number the snapshot lacks gives ``warn``."""
    try:
        value = rule.reader(snapshot)
    except MetricUnavailable as unavailable:
        return RuleResult(rule.name, "warn",
                          f"not evaluated: {unavailable}",
                          rule.check(rule.fail))
    holds = _COMPARISONS[rule.op]
    reading = f"{_format_number(value)} {rule.op} "
    if not holds(value, rule.fail):
        return RuleResult(
            rule.name, "fail",
            f"violated: {reading}{_format_number(rule.fail)}",
            rule.check(rule.fail))
    if rule.warn is not None and not holds(value, rule.warn):
        return RuleResult(
            rule.name, "warn",
            f"ok but past warning threshold: {reading}"
            f"{_format_number(rule.warn)}",
            rule.check(rule.warn))
    return RuleResult(rule.name, "ok",
                      f"{reading}{_format_number(rule.fail)}",
                      rule.check(rule.fail))


def evaluate_rules(rules: Iterable[SLORule],
                   snapshot: Mapping[str, Any]) -> HealthReport:
    """Evaluate a ruleset into a :class:`HealthReport`.

    When the flight recorder is enabled, every report goes to
    :meth:`~repro.telemetry.flight.FlightRecorder.on_slo_breach`: a
    new breach cuts a ``repro-flight/v2`` capsule, whose
    ``flight.capsule`` instant is the breach's one record in the event
    log, and a report with no failing rule ends the breach.
    """
    report = HealthReport([evaluate_rule(rule, snapshot)
                           for rule in rules])
    recorder = _flight.get_flight_recorder()
    if recorder is not None:
        recorder.on_slo_breach(report)
    return report

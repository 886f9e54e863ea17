"""Declarative SLO rules evaluated against a metrics snapshot.

A :class:`SLORule` is a named boolean expression over the metrics in a
``repro-metrics/v1`` snapshot (:meth:`MetricsRegistry.snapshot`)::

    SLORule("queue_wait_p95",
            "p95(service_queue_wait_seconds) < 1.0",
            warn="p95(service_queue_wait_seconds) < 0.25")

Expressions are ordinary Python comparison syntax, parsed with
:mod:`ast` and evaluated against a small whitelist — there is no
``eval``. Supported forms:

* comparisons ``< <= > >=`` with arithmetic ``+ - * /`` and numeric
  literals on either side;
* a bare metric name (``service_queue_depth``) — the value of a
  counter (summed over label sets) or gauge;
* ``value(name, label='x')`` — counter/gauge value filtered by
  labels; a counter whose metric exists but has no matching series
  counts as ``0`` (it was simply never incremented);
* ``p50(name, ...)`` / ``p95`` / ``p99`` / ``quantile(name, q, ...)``
  — histogram quantiles from the reservoir when present, otherwise
  interpolated from bucket counts;
* ``mean(name, ...)``, ``count(name, ...)``, ``total(name, ...)`` —
  histogram mean / observation count / sum, label-filtered.

:func:`evaluate_rules` folds rule results into a :class:`HealthReport`
with overall status ``ok`` / ``warn`` / ``fail`` and a per-rule reason
string. A rule whose metric was never collected (or whose ratio is
0/0) degrades to ``warn`` by default rather than failing: an SLO over
a subsystem that did not run is unknown, not violated.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
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

from . import flight as _flight
from .metrics import quantile as _reservoir_quantile

_STATUS_ORDER = {"ok": 0, "warn": 1, "fail": 2}

_COMPARE_OPS = {
    ast.Lt: ("<", lambda a, b: a < b),
    ast.LtE: ("<=", lambda a, b: a <= b),
    ast.Gt: (">", lambda a, b: a > b),
    ast.GtE: (">=", lambda a, b: a >= b),
}

_BINARY_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


class SLOExpressionError(ValueError):
    """An expression does not fit the supported rule grammar."""


class _MetricUnavailable(Exception):
    """A referenced metric was never collected (or is 0/0)."""


@dataclass(frozen=True)
class SLORule:
    """One named service-level objective.

    ``expr`` failing makes the rule ``fail``; otherwise ``warn`` (the
    early-warning threshold) failing makes it ``warn``; otherwise
    ``ok``.
    """

    name: str
    expr: str
    warn: Optional[str] = None
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"name": self.name, "expr": self.expr}
        if self.warn:
            entry["warn"] = self.warn
        if self.description:
            entry["description"] = self.description
        return entry


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


#: Default ruleset for the serving layer — the signals ISSUE 6 names.
#: Thresholds are deliberately loose: they catch pathology (stalled
#: queue, cold cache, systematic timeouts), not tuning regressions.
DEFAULT_SLO_RULES: Tuple[SLORule, ...] = (
    SLORule(
        "queue_wait_p95",
        "p95(service_queue_wait_seconds) < 5.0",
        warn="p95(service_queue_wait_seconds) < 1.0",
        description="jobs should not sit in the queue",
    ),
    SLORule(
        "cache_hit_ratio",
        "value(service_cache_events_total, event='hit') / "
        "(value(service_cache_events_total, event='hit') + "
        "value(service_cache_events_total, event='miss')) >= 0.1",
        warn="value(service_cache_events_total, event='hit') / "
             "(value(service_cache_events_total, event='hit') + "
             "value(service_cache_events_total, event='miss')) >= 0.25",
        description="repeat submissions should be served from cache",
    ),
    SLORule(
        "timeout_rate",
        "value(service_jobs_total, status='timeout') / "
        "value(service_jobs_total, status='submitted') <= 0.05",
        description="deadline reaping should be exceptional",
    ),
    SLORule(
        "failure_rate",
        "value(service_jobs_total, status='failed') / "
        "value(service_jobs_total, status='submitted') <= 0.01",
        description="worker crashes should be exceptional",
    ),
)


# ----------------------------------------------------------------------
# Metric lookup over a snapshot dict
# ----------------------------------------------------------------------
def _matching_series(entry: Mapping[str, Any],
                     labels: Mapping[str, str]) -> List[Mapping[str, Any]]:
    matches = []
    for series in entry.get("series", []):
        have = series.get("labels", {})
        if all(have.get(key) == value for key, value in labels.items()):
            matches.append(series)
    return matches


class _SnapshotLookup:
    """Name/label resolution against one ``repro-metrics/v1`` dict."""

    def __init__(self, snapshot: Mapping[str, Any]):
        self.counters = snapshot.get("counters") or {}
        self.gauges = snapshot.get("gauges") or {}
        self.histograms = snapshot.get("histograms") or {}

    def scalar(self, name: str, labels: Mapping[str, str]) -> float:
        if name in self.counters:
            series = _matching_series(self.counters[name], labels)
            # A counter that exists but has no series for this label
            # set was never incremented there: the value is 0.
            return float(sum(s.get("value", 0.0) for s in series))
        if name in self.gauges:
            series = _matching_series(self.gauges[name], labels)
            if not series:
                raise _MetricUnavailable(
                    f"gauge {name!r} has no series matching "
                    f"{dict(labels)}"
                )
            # Multiple gauge series without a disambiguating filter:
            # report the max (peak semantics; summing gauges is wrong).
            return float(max(s.get("value", 0.0) for s in series))
        raise _MetricUnavailable(f"metric {name!r} was not collected")

    def _histogram_series(self, name: str, labels: Mapping[str, str]
                          ) -> Tuple[Mapping[str, Any],
                                     List[Mapping[str, Any]]]:
        entry = self.histograms.get(name)
        if entry is None:
            raise _MetricUnavailable(
                f"histogram {name!r} was not collected")
        series = _matching_series(entry, labels)
        if not any(s.get("count") for s in series):
            raise _MetricUnavailable(
                f"histogram {name!r} has no observations matching "
                f"{dict(labels)}"
            )
        return entry, series

    def hist_count(self, name: str, labels: Mapping[str, str]) -> float:
        _, series = self._histogram_series(name, labels)
        return float(sum(s.get("count", 0) for s in series))

    def hist_sum(self, name: str, labels: Mapping[str, str]) -> float:
        _, series = self._histogram_series(name, labels)
        return float(sum(s.get("sum", 0.0) for s in series))

    def hist_mean(self, name: str, labels: Mapping[str, str]) -> float:
        _, series = self._histogram_series(name, labels)
        count = sum(s.get("count", 0) for s in series)
        total = sum(s.get("sum", 0.0) for s in series)
        return total / count

    def hist_quantile(self, name: str, q: float,
                      labels: Mapping[str, str]) -> float:
        entry, series = self._histogram_series(name, labels)
        merged: List[float] = []
        for one in series:
            merged.extend(one.get("reservoir") or [])
        if merged:
            value = _reservoir_quantile(sorted(merged), q)
            if value is not None:
                return value
        return _bucket_quantile(entry, series, q)


def _bucket_quantile(entry: Mapping[str, Any],
                     series: Sequence[Mapping[str, Any]],
                     q: float) -> float:
    """Quantile interpolated from merged bucket counts.

    Fallback for snapshots without reservoirs (sampler JSONL lines):
    linear interpolation within the bucket where the cumulative count
    crosses ``q``. Overflow-bucket hits clamp to the last bound.
    """
    bounds = [float(b) for b in entry.get("buckets", [])]
    merged = [0] * (len(bounds) + 1)
    for one in series:
        counts = one.get("bucket_counts") or []
        if len(counts) == len(merged):
            for index, value in enumerate(counts):
                merged[index] += int(value)
    total = sum(merged)
    if total == 0 or not bounds:
        raise _MetricUnavailable("histogram has no bucket data")
    target = q * total
    cumulative = 0
    for index, count in enumerate(merged):
        previous = cumulative
        cumulative += count
        if cumulative >= target and count:
            if index >= len(bounds):
                return bounds[-1]
            low = bounds[index - 1] if index else 0.0
            high = bounds[index]
            fraction = (target - previous) / count
            return low + (high - low) * min(max(fraction, 0.0), 1.0)
    return bounds[-1]


# ----------------------------------------------------------------------
# Expression evaluation (ast whitelist, no eval)
# ----------------------------------------------------------------------
def _evaluate_expression(expr: str, lookup: _SnapshotLookup
                         ) -> Tuple[bool, str]:
    """Evaluate one rule expression; returns (holds, reason text)."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as error:
        raise SLOExpressionError(
            f"cannot parse SLO expression {expr!r}: {error}"
        ) from error
    body = tree.body
    if (not isinstance(body, ast.Compare)
            or len(body.ops) != 1 or len(body.comparators) != 1):
        raise SLOExpressionError(
            f"SLO expression must be a single comparison: {expr!r}"
        )
    op_type = type(body.ops[0])
    if op_type not in _COMPARE_OPS:
        raise SLOExpressionError(
            f"unsupported comparison operator in {expr!r}"
        )
    symbol, compare = _COMPARE_OPS[op_type]
    left = _evaluate_numeric(body.left, lookup, expr)
    right = _evaluate_numeric(body.comparators[0], lookup, expr)
    holds = bool(compare(left, right))
    reason = (f"{_format_number(left)} {symbol} "
              f"{_format_number(right)}")
    return holds, reason


def _evaluate_numeric(node: ast.AST, lookup: _SnapshotLookup,
                      expr: str) -> float:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)):
            raise SLOExpressionError(
                f"non-numeric literal {node.value!r} in {expr!r}"
            )
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate_numeric(node.operand, lookup, expr)
    if isinstance(node, ast.BinOp):
        op = _BINARY_OPS.get(type(node.op))
        if op is None:
            raise SLOExpressionError(
                f"unsupported arithmetic operator in {expr!r}"
            )
        left = _evaluate_numeric(node.left, lookup, expr)
        right = _evaluate_numeric(node.right, lookup, expr)
        try:
            return op(left, right)
        except ZeroDivisionError:
            raise _MetricUnavailable(
                f"division by zero evaluating {expr!r}"
            ) from None
    if isinstance(node, ast.Name):
        return lookup.scalar(node.id, {})
    if isinstance(node, ast.Call):
        return _evaluate_call(node, lookup, expr)
    raise SLOExpressionError(
        f"unsupported syntax {ast.dump(node)} in {expr!r}"
    )


def _call_target(node: ast.Call, expr: str
                 ) -> Tuple[str, Dict[str, str], List[float]]:
    if not node.args:
        raise SLOExpressionError(
            f"metric function needs a metric name argument: {expr!r}"
        )
    first = node.args[0]
    if isinstance(first, ast.Name):
        name = first.id
    elif isinstance(first, ast.Constant) and isinstance(first.value, str):
        name = first.value
    else:
        raise SLOExpressionError(
            f"first argument must be a metric name: {expr!r}"
        )
    extra: List[float] = []
    for arg in node.args[1:]:
        if (isinstance(arg, ast.Constant)
                and isinstance(arg.value, (int, float))
                and not isinstance(arg.value, bool)):
            extra.append(float(arg.value))
        else:
            raise SLOExpressionError(
                f"extra positional arguments must be numeric: {expr!r}"
            )
    labels: Dict[str, str] = {}
    for keyword in node.keywords:
        if keyword.arg is None:
            raise SLOExpressionError(f"**kwargs not supported: {expr!r}")
        value = keyword.value
        if isinstance(value, ast.Constant):
            labels[keyword.arg] = str(value.value)
        else:
            raise SLOExpressionError(
                f"label filters must be literals: {expr!r}"
            )
    return name, labels, extra


def _evaluate_call(node: ast.Call, lookup: _SnapshotLookup,
                   expr: str) -> float:
    if not isinstance(node.func, ast.Name):
        raise SLOExpressionError(f"unsupported call in {expr!r}")
    func = node.func.id
    name, labels, extra = _call_target(node, expr)
    if func == "value":
        return lookup.scalar(name, labels)
    if func in ("p50", "p95", "p99"):
        return lookup.hist_quantile(name, int(func[1:]) / 100.0, labels)
    if func == "quantile":
        if len(extra) != 1 or not 0.0 <= extra[0] <= 1.0:
            raise SLOExpressionError(
                f"quantile(name, q) needs q in [0, 1]: {expr!r}"
            )
        return lookup.hist_quantile(name, extra[0], labels)
    if func == "mean":
        return lookup.hist_mean(name, labels)
    if func == "count":
        return lookup.hist_count(name, labels)
    if func == "total":
        return lookup.hist_sum(name, labels)
    raise SLOExpressionError(
        f"unknown metric function {func!r} in {expr!r} "
        "(expected value/p50/p95/p99/quantile/mean/count/total)"
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
def evaluate_rule(rule: SLORule, snapshot: Mapping[str, Any],
                  on_missing: str = "warn") -> RuleResult:
    """Evaluate one rule; missing metrics degrade to ``on_missing``."""
    if on_missing not in ("ok", "warn", "fail"):
        raise ValueError("on_missing must be ok/warn/fail")
    lookup = _SnapshotLookup(snapshot)
    try:
        holds, reason = _evaluate_expression(rule.expr, lookup)
    except _MetricUnavailable as unavailable:
        return RuleResult(rule.name, on_missing,
                          f"not evaluated: {unavailable}", rule.expr)
    if not holds:
        return RuleResult(rule.name, "fail",
                          f"violated: {reason}", rule.expr)
    if rule.warn:
        try:
            warn_holds, warn_reason = _evaluate_expression(
                rule.warn, lookup)
        except _MetricUnavailable:
            warn_holds, warn_reason = True, ""
        if not warn_holds:
            return RuleResult(
                rule.name, "warn",
                f"ok but past warning threshold: {warn_reason}",
                rule.warn,
            )
    return RuleResult(rule.name, "ok", reason, rule.expr)


def evaluate_rules(rules: Iterable[SLORule],
                   snapshot: Mapping[str, Any],
                   on_missing: str = "warn") -> HealthReport:
    """Evaluate a ruleset into a :class:`HealthReport`.

    When the flight recorder is enabled and the report fails, a
    ``repro-flight/v2`` capsule is cut for the breach, and its
    ``flight.capsule`` instant is the breach's one record in the event
    log (see :meth:`repro.telemetry.flight.FlightRecorder.on_slo_breach`).
    """
    report = HealthReport()
    for rule in rules:
        report.results.append(evaluate_rule(rule, snapshot,
                                            on_missing=on_missing))
    recorder = _flight.get_flight_recorder()
    if recorder is not None and report.status == "fail":
        recorder.on_slo_breach(report)
    return report


def load_rules(path: str) -> List[SLORule]:
    """Load rules from a JSON file: a list of rule objects
    (``{"name": ..., "expr": ..., "warn"?: ..., "description"?: ...}``)
    or ``{"rules": [...]}``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, Mapping):
        document = document.get("rules", [])
    if not isinstance(document, list):
        raise ValueError(f"{path}: expected a list of SLO rules")
    rules = []
    for index, entry in enumerate(document):
        if not isinstance(entry, Mapping) or "name" not in entry \
                or "expr" not in entry:
            raise ValueError(
                f"{path}: rules[{index}] needs 'name' and 'expr'"
            )
        rules.append(SLORule(
            name=str(entry["name"]),
            expr=str(entry["expr"]),
            warn=str(entry["warn"]) if entry.get("warn") else None,
            description=str(entry.get("description", "")),
        ))
    return rules

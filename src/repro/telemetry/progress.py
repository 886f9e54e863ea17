"""Uniform per-iteration convergence rows for every solver.

Annealing stalls, QAOA plateaus and tabu cycling are invisible in
aggregate statistics — they only show up in *per-iteration* traces
(Du et al., arXiv:2502.01146). :class:`ProgressTrace` is the one hook
all six registered solvers (sa / sqa / tabu / pt / qaoa / exact) write
through, so every backend emits rows with the same five fields:

``iteration``
    0-based sweep / move / evaluation index.
``best_energy``
    Best energy seen up to and including this iteration.
``current_energy``
    Energy of the current configuration (minimum across reads /
    replicas for population solvers; ``None`` when undefined).
``acceptance_rate``
    Fraction of proposed moves accepted this iteration (``None`` for
    solvers without a Metropolis accept step).
``schedule_value``
    The annealing-schedule knob at this iteration — inverse
    temperature (SA), transverse field (SQA), tabu tenure, coldest
    beta (PT); ``None`` when the solver has no schedule.

Rows are bounded (:data:`MAX_PROGRESS_ROWS`); past the cap new rows
are dropped and counted, so a million-sweep anneal cannot blow up
memory. When event tracing is active each row is mirrored as an
instant event on the timeline (category ``convergence``), which lines
solver convergence up against the spans that produced it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from . import metrics as _metrics
from . import trace

#: Per-trace row cap; further rows are dropped and counted.
MAX_PROGRESS_ROWS = 10_000

#: The uniform row schema every solver emits.
PROGRESS_FIELDS = ("iteration", "best_energy", "current_energy",
                   "acceptance_rate", "schedule_value")


class ProgressTrace:
    """Bounded recorder of uniform per-iteration convergence rows.

    Parameters
    ----------
    label:
        Short tag (usually the solver registry name) used to name the
        mirrored trace events.
    max_rows:
        Row cap; appends past it are dropped and counted in
        :attr:`truncated`.
    """

    def __init__(self, label: str = "solver",
                 max_rows: int = MAX_PROGRESS_ROWS):
        if max_rows < 1:
            raise ValueError("max_rows must be positive")
        self.label = label
        self.max_rows = max_rows
        self._rows: List[Dict[str, Any]] = []
        self.truncated = 0

    def record(self, iteration: int, best_energy: float,
               current_energy: Optional[float] = None,
               acceptance_rate: Optional[float] = None,
               schedule_value: Optional[float] = None) -> None:
        """Append one uniform iteration row (bounded)."""
        if len(self._rows) >= self.max_rows:
            self.truncated += 1
            return
        row: Dict[str, Any] = {
            "iteration": int(iteration),
            "best_energy": float(best_energy),
            "current_energy": (None if current_energy is None
                               else float(current_energy)),
            "acceptance_rate": (None if acceptance_rate is None
                                else float(acceptance_rate)),
            "schedule_value": (None if schedule_value is None
                               else float(schedule_value)),
        }
        self._rows.append(row)
        tracer = trace.get_tracer()
        if tracer is not None:
            tracer.instant(f"convergence.{self.label}",
                           category="convergence", args=row)

    def rows(self) -> List[Dict[str, Any]]:
        """Copies of the recorded rows, in iteration order."""
        return [dict(row) for row in self._rows]

    def note_truncation(self) -> int:
        """Add the dropped-row count to the metrics registry.

        Truncation used to be recorded only on the trace object itself,
        where nothing downstream looked at it; callers that consume a
        finished trace (dispatch, the service workers) call this so the
        loss shows up as ``progress_truncated_rows_total`` — and
        therefore in the metrics dashboard — instead of vanishing.
        Returns the number of rows dropped (0 when nothing was lost).
        """
        registry = _metrics.get_registry()
        if self.truncated and registry is not None:
            registry.counter(
                "progress_truncated_rows_total",
                "convergence rows dropped past the per-trace cap",
            ).inc(self.truncated)
        return self.truncated

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return True

    @property
    def best_energy(self) -> Optional[float]:
        """Best energy over all recorded rows, or None when empty."""
        if not self._rows:
            return None
        return min(row["best_energy"] for row in self._rows)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "rows": self.rows(),
            "truncated": self.truncated,
        }

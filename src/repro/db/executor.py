"""A miniature join executor over catalog tables.

Executes :class:`~repro.db.query.JoinTree` plans with hash equi-joins
on real numpy column data, so optimizer output can be *run*, not just
costed — and so the cost model's cardinality estimates can be validated
against actual intermediate result sizes.

Intermediates are represented as row-id vectors per base table (a
"rowid join"), which keeps execution allocation-light: materializing
column values happens only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .. import telemetry
from ..telemetry import metrics as _metrics
from .catalog import Catalog
from .cost import selectivity_from_stats
from .query import JoinGraph, JoinTree


@dataclass(frozen=True)
class EquiJoinPredicate:
    """``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str


@dataclass
class PhysicalQuery:
    """A join query bound to catalog tables.

    ``tables`` fixes the relation numbering (relation i = tables[i]),
    which is how logical :class:`JoinGraph` relations map to physical
    tables.
    """

    catalog: Catalog
    tables: List[str]
    predicates: List[EquiJoinPredicate] = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.tables)) != len(self.tables):
            raise ValueError(
                "self-joins need aliases; duplicate table names given"
            )
        for table in self.tables:
            self.catalog.table(table)  # raises on unknown
        for predicate in self.predicates:
            for table, column in (
                (predicate.left_table, predicate.left_column),
                (predicate.right_table, predicate.right_column),
            ):
                if table not in self.tables:
                    raise ValueError(f"predicate references {table!r} "
                                     "which is not in the query")
                self.catalog.table(table).column(column)

    def relation_index(self, table: str) -> int:
        return self.tables.index(table)

    def to_join_graph(self) -> JoinGraph:
        """Estimate a logical join graph from catalog statistics.

        Cardinalities come from row counts; selectivities from the
        System-R ``1 / max(ndv)`` estimator, multiplying when several
        predicates link the same table pair.
        """
        cardinalities = [
            float(self.catalog.row_count(t)) for t in self.tables
        ]
        selectivities: Dict[Tuple[int, int], float] = {}
        for predicate in self.predicates:
            a = self.relation_index(predicate.left_table)
            b = self.relation_index(predicate.right_table)
            key = (min(a, b), max(a, b))
            estimate = selectivity_from_stats(
                self.catalog,
                (predicate.left_table, predicate.left_column),
                (predicate.right_table, predicate.right_column),
            )
            selectivities[key] = selectivities.get(key, 1.0) * estimate
        return JoinGraph(cardinalities, selectivities,
                         names=list(self.tables))


@dataclass
class ExecutionResult:
    """Outcome of running a plan: final size and per-node actuals."""

    row_count: int
    intermediate_sizes: Dict[frozenset, int]
    actual_cost: float  # sum of intermediate sizes (C_out, measured)


class HashJoinExecutor:
    """Executes join trees bottom-up with hash equi-joins."""

    def __init__(self, query: PhysicalQuery):
        self.query = query
        self._predicates_by_pair: Dict[Tuple[int, int],
                                       List[EquiJoinPredicate]] = {}
        for predicate in query.predicates:
            a = query.relation_index(predicate.left_table)
            b = query.relation_index(predicate.right_table)
            key = (min(a, b), max(a, b))
            self._predicates_by_pair.setdefault(key, []).append(predicate)

    # ------------------------------------------------------------------
    def execute(self, tree: JoinTree,
                max_intermediate_rows: int = 5_000_000) -> ExecutionResult:
        """Run the plan; raises if a cross product would explode."""
        sizes: Dict[frozenset, int] = {}
        with telemetry.span("db.executor.execute"):
            rowids = self._execute_node(tree, sizes, max_intermediate_rows)
        count = _result_length(rowids)
        actual_cost = float(sum(
            size for relations, size in sizes.items() if len(relations) > 1
        ))
        registry = _metrics.get_registry()
        if registry is not None:
            registry.counter("db_plans_executed_total",
                             "join plans executed").inc()
            registry.counter(
                "db_joins_total", "joins executed").inc(
                    sum(1 for relations in sizes if len(relations) > 1))
            registry.counter(
                "db_intermediate_rows_total",
                "rows materialized by intermediate joins",
            ).inc(int(actual_cost))
            registry.counter("db_output_rows_total",
                             "rows returned by executed plans").inc(count)
        return ExecutionResult(
            row_count=count,
            intermediate_sizes=sizes,
            actual_cost=actual_cost,
        )

    def _execute_node(self, node: JoinTree, sizes: Dict[frozenset, int],
                      limit: int) -> Dict[int, np.ndarray]:
        if node.is_leaf:
            relation = next(iter(node.relations))
            table = self.query.tables[relation]
            count = self.query.catalog.row_count(table)
            rowids = {relation: np.arange(count)}
            sizes[frozenset(node.relations)] = count
            return rowids
        left = self._execute_node(node.left, sizes, limit)
        right = self._execute_node(node.right, sizes, limit)
        joined = self._join(left, right, node, limit)
        sizes[frozenset(node.relations)] = _result_length(joined)
        return joined

    def _join(self, left: Dict[int, np.ndarray],
              right: Dict[int, np.ndarray], node: JoinTree,
              limit: int) -> Dict[int, np.ndarray]:
        predicates = self._applicable_predicates(
            set(left), set(right)
        )
        if not predicates:
            return self._cross_product(left, right, limit)
        first, *rest = predicates
        joined = self._hash_join(left, right, first)
        for predicate in rest:
            joined = self._filter_predicate(joined, predicate)
        if _result_length(joined) > limit:
            raise RuntimeError("intermediate result exceeds limit")
        return joined

    def _applicable_predicates(self, left_relations, right_relations
                               ) -> List[EquiJoinPredicate]:
        out: List[EquiJoinPredicate] = []
        for (a, b), predicates in self._predicates_by_pair.items():
            if ((a in left_relations and b in right_relations)
                    or (b in left_relations and a in right_relations)):
                out.extend(predicates)
        return out

    def _column_values(self, rowids: Dict[int, np.ndarray],
                       table: str, column: str) -> np.ndarray:
        relation = self.query.relation_index(table)
        base = self.query.catalog.table(table).column(column)
        return base[rowids[relation]]

    def _hash_join(self, left: Dict[int, np.ndarray],
                   right: Dict[int, np.ndarray],
                   predicate: EquiJoinPredicate) -> Dict[int, np.ndarray]:
        left_relations = set(left)
        if self.query.relation_index(predicate.left_table) in left_relations:
            build_side, probe_side = left, right
            build_key = (predicate.left_table, predicate.left_column)
            probe_key = (predicate.right_table, predicate.right_column)
        else:
            build_side, probe_side = left, right
            build_key = (predicate.right_table, predicate.right_column)
            probe_key = (predicate.left_table, predicate.left_column)

        build_values = self._column_values(build_side, *build_key)
        probe_values = self._column_values(probe_side, *probe_key)

        table: Dict[float, List[int]] = {}
        for position, value in enumerate(build_values):
            table.setdefault(float(value), []).append(position)

        build_positions: List[int] = []
        probe_positions: List[int] = []
        for position, value in enumerate(probe_values):
            for match in table.get(float(value), ()):
                build_positions.append(match)
                probe_positions.append(position)

        build_index = np.asarray(build_positions, dtype=int)
        probe_index = np.asarray(probe_positions, dtype=int)
        joined: Dict[int, np.ndarray] = {}
        for relation, ids in build_side.items():
            joined[relation] = ids[build_index]
        for relation, ids in probe_side.items():
            joined[relation] = ids[probe_index]
        return joined

    def _filter_predicate(self, rowids: Dict[int, np.ndarray],
                          predicate: EquiJoinPredicate
                          ) -> Dict[int, np.ndarray]:
        left_values = self._column_values(
            rowids, predicate.left_table, predicate.left_column
        )
        right_values = self._column_values(
            rowids, predicate.right_table, predicate.right_column
        )
        mask = left_values == right_values
        return {relation: ids[mask] for relation, ids in rowids.items()}

    def _cross_product(self, left: Dict[int, np.ndarray],
                       right: Dict[int, np.ndarray],
                       limit: int) -> Dict[int, np.ndarray]:
        n_left = _result_length(left)
        n_right = _result_length(right)
        if n_left * n_right > limit:
            raise RuntimeError(
                f"cross product of {n_left} x {n_right} rows exceeds "
                f"the {limit}-row limit"
            )
        left_index = np.repeat(np.arange(n_left), n_right)
        right_index = np.tile(np.arange(n_right), n_left)
        joined: Dict[int, np.ndarray] = {}
        for relation, ids in left.items():
            joined[relation] = ids[left_index]
        for relation, ids in right.items():
            joined[relation] = ids[right_index]
        return joined


def _result_length(rowids: Mapping[int, np.ndarray]) -> int:
    lengths = {ids.shape[0] for ids in rowids.values()}
    if len(lengths) != 1:
        raise RuntimeError("internal: ragged rowid vectors")
    return lengths.pop()


def validate_cost_model(query: PhysicalQuery, tree: JoinTree
                        ) -> List[Dict[str, float]]:
    """Estimated vs actual cardinality for every join node of a plan.

    Returns one record per inner node with the estimator's q-error —
    the executor-level ground truth for experiment-style analyses.
    """
    from .cost import q_error

    graph = query.to_join_graph()
    result = HashJoinExecutor(query).execute(tree)
    records: List[Dict[str, float]] = []
    for node in tree.inner_nodes():
        key = frozenset(node.relations)
        actual = result.intermediate_sizes[key]
        estimate = graph.subset_cardinality(node.relations)
        records.append({
            "num_relations": float(len(node.relations)),
            "estimated": float(estimate),
            "actual": float(actual),
            "q_error": q_error(estimate, actual),
        })
    return records

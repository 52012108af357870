"""Cardinality estimation over logical plans.

Follows the System R conventions: histogram/NDV-based selectivities for
base-table predicates, ``1/max(ndv)`` for equi-joins, independence across
conjuncts, and damping for unknowns.  Estimates drive both join ordering and
access-path selection, and experiment E9 measures how much they matter.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_LIKE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    ColumnStats,
    join_selectivity,
)
from repro.plan import logical
from repro.plan.expressions import (
    BoundBinary,
    BoundColumn,
    BoundExpr,
    BoundInList,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundParam,
    BoundUnary,
    split_conjuncts,
)

#: (table_name, column_name) provenance of an output position, when known.
Origin = Optional[Tuple[str, str]]


class Estimator:
    """Estimates output cardinalities for logical plan nodes."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- provenance ------------------------------------------------------

    def origins(self, plan: logical.LogicalPlan) -> List[Origin]:
        """Base-table provenance of each output column (None when derived)."""
        if isinstance(plan, logical.Scan):
            return [(plan.table, c.name) for c in plan.schema.columns]
        if isinstance(plan, (logical.Filter, logical.Sort, logical.Limit, logical.Distinct)):
            return self.origins(plan.child)
        if isinstance(plan, logical.Join):
            return self.origins(plan.left) + self.origins(plan.right)
        if isinstance(plan, logical.Project):
            child = self.origins(plan.child)
            out: List[Origin] = []
            for expr in plan.exprs:
                if isinstance(expr, BoundColumn):
                    out.append(child[expr.index])
                else:
                    out.append(None)
            return out
        if isinstance(plan, logical.Aggregate):
            child = self.origins(plan.child)
            out = []
            for expr in plan.group_exprs:
                if isinstance(expr, BoundColumn):
                    out.append(child[expr.index])
                else:
                    out.append(None)
            out.extend([None] * len(plan.aggregates))
            return out
        if isinstance(plan, logical.Values):
            return [None] * len(plan.schema)
        return [None] * len(plan.output_schema())

    def _column_stats(self, origin: Origin) -> Optional[ColumnStats]:
        if origin is None:
            return None
        table_name, column_name = origin
        if not self.catalog.has_table(table_name):
            return None
        table = self.catalog.get_table(table_name)
        if table.stats is None:
            return None
        return table.stats.column(column_name)

    # -- cardinality --------------------------------------------------------

    def estimate(self, plan: logical.LogicalPlan) -> float:
        """Estimated number of output rows."""
        if isinstance(plan, logical.Scan):
            table = self.catalog.get_table(plan.table)
            if table.stats is not None:
                return float(max(table.stats.row_count, 0))
            return float(max(table.row_count, 0))
        if isinstance(plan, logical.Values):
            return float(len(plan.rows))
        if isinstance(plan, logical.Filter):
            child_rows = self.estimate(plan.child)
            sel = self.selectivity(plan.predicate, self.origins(plan.child))
            return max(child_rows * sel, 0.0)
        if isinstance(plan, logical.Project):
            return self.estimate(plan.child)
        if isinstance(plan, logical.Join):
            return self.join_rows(plan, self.estimate(plan.left), self.estimate(plan.right))
        if isinstance(plan, logical.Aggregate):
            child_rows = self.estimate(plan.child)
            if not plan.group_exprs:
                return 1.0
            ndv = 1.0
            origins = self.origins(plan.child)
            for expr in plan.group_exprs:
                ndv *= self._group_ndv(expr, origins, child_rows)
            return min(child_rows, max(ndv, 1.0))
        if isinstance(plan, logical.Sort):
            return self.estimate(plan.child)
        if isinstance(plan, logical.Limit):
            child_rows = self.estimate(plan.child)
            if plan.limit is None:
                return max(child_rows - plan.offset, 0.0)
            return float(min(child_rows, plan.limit))
        if isinstance(plan, logical.Distinct):
            child_rows = self.estimate(plan.child)
            return max(1.0, child_rows * 0.9) if child_rows else 0.0
        if isinstance(plan, logical.SetOp):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            if plan.kind == "union":
                return left + right if plan.all else (left + right) * 0.9
            if plan.kind == "intersect":
                return min(left, right) * 0.5
            return left * 0.5  # except
        return 1000.0

    def join_rows(self, plan: logical.Join, left: float, right: float) -> float:
        """Rows out of ``plan`` given its inputs' estimates (reused, not re-derived)."""
        if plan.kind == logical.CROSS or plan.condition is None:
            rows = left * right
        else:
            origins = self.origins(plan.left) + self.origins(plan.right)
            rows = left * right * self.selectivity(plan.condition, origins)
        if plan.kind == logical.LEFT_OUTER:
            rows = max(rows, left)
        return rows

    def _group_ndv(self, expr: BoundExpr, origins: List[Origin], rows: float) -> float:
        if isinstance(expr, BoundColumn):
            stats = self._column_stats(origins[expr.index])
            if stats is not None and stats.n_distinct:
                return float(stats.n_distinct)
        # Unknown grouping expression: square-root damping.
        return max(1.0, rows ** 0.5)

    # -- selectivity ------------------------------------------------------------

    def selectivity(self, predicate: BoundExpr, origins: List[Origin]) -> float:
        """Estimated fraction of rows satisfying ``predicate``."""
        sel = 1.0
        for conjunct in split_conjuncts(predicate):
            sel *= self._conjunct_selectivity(conjunct, origins)
        return max(0.0, min(1.0, sel))

    def _conjunct_selectivity(self, pred: BoundExpr, origins: List[Origin]) -> float:
        if isinstance(pred, BoundLiteral):
            if pred.value is True:
                return 1.0
            return 0.0
        if isinstance(pred, BoundUnary) and pred.op == "NOT":
            return 1.0 - self._conjunct_selectivity(pred.operand, origins)
        if isinstance(pred, BoundIsNull):
            frac = self._null_fraction(pred.operand, origins)
            return 1.0 - frac if pred.negated else frac
        if isinstance(pred, BoundInList):
            base = self._in_selectivity(pred, origins)
            return 1.0 - base if pred.negated else base
        if isinstance(pred, BoundLike):
            base = DEFAULT_LIKE_SELECTIVITY
            if not pred.pattern.startswith(("%", "_")):
                base = 0.1  # prefix patterns are more selective
            return 1.0 - base if pred.negated else base
        if isinstance(pred, BoundBinary):
            if pred.op == "OR":
                s1 = self._conjunct_selectivity(pred.left, origins)
                s2 = self._conjunct_selectivity(pred.right, origins)
                return min(1.0, s1 + s2 - s1 * s2)
            if pred.op == "AND":
                return self.selectivity(pred, origins)
            if pred.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison_selectivity(pred, origins)
        return DEFAULT_RANGE_SELECTIVITY

    def _null_fraction(self, expr: BoundExpr, origins: List[Origin]) -> float:
        if isinstance(expr, BoundColumn):
            stats = self._column_stats(origins[expr.index])
            if stats is not None and stats.count:
                return stats.null_fraction()
        return 0.05

    def _in_selectivity(self, pred: BoundInList, origins: List[Origin]) -> float:
        if isinstance(pred.operand, BoundColumn):
            stats = self._column_stats(origins[pred.operand.index])
            if stats is not None:
                return min(1.0, sum(stats.eq_selectivity(v) for v in pred.values))
        return min(1.0, DEFAULT_EQ_SELECTIVITY * len(pred.values))

    def _comparison_selectivity(
        self, pred: BoundBinary, origins: List[Origin]
    ) -> float:
        left, right, op = pred.left, pred.right, pred.op
        # Normalize to column-on-the-left.
        if isinstance(right, BoundColumn) and isinstance(left, (BoundLiteral, BoundParam)):
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if isinstance(left, BoundColumn) and isinstance(right, BoundParam):
            # Parameter value unknown at plan time: treat an equality like
            # "some one value" (1/ndv) and ranges like the generic default.
            stats = self._column_stats(origins[left.index])
            if op in ("=", "!="):
                base = (
                    stats.eq_selectivity()
                    if stats is not None
                    else DEFAULT_EQ_SELECTIVITY
                )
                return base if op == "=" else max(0.0, 1.0 - base)
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(left, BoundColumn) and isinstance(right, BoundColumn):
            if op == "=":
                return join_selectivity(
                    self._column_stats(origins[left.index]),
                    self._column_stats(origins[right.index]),
                )
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(left, BoundColumn) and isinstance(right, BoundLiteral):
            stats = self._column_stats(origins[left.index])
            value = right.value
            if stats is None:
                return (
                    DEFAULT_EQ_SELECTIVITY
                    if op in ("=", "!=")
                    else DEFAULT_RANGE_SELECTIVITY
                )
            if op == "=":
                return stats.eq_selectivity(value)
            if op == "!=":
                return max(0.0, 1.0 - stats.eq_selectivity(value))
            if op in ("<", "<="):
                return stats.range_selectivity(None, value)
            if op in (">", ">="):
                return stats.range_selectivity(value, None)
        return DEFAULT_RANGE_SELECTIVITY

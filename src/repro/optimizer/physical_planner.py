"""Physical planning: access paths and join algorithms.

Lowers an (already rewritten) logical plan to a physical tree:

* ``Filter(Scan)`` chooses between a sequential scan and an index scan by
  comparing cost-model estimates for every usable index predicate;
* inner/left joins with extractable equality keys become hash joins, the
  rest nested loops;
* ``Limit(Sort)`` plants a top-N hint on the sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.catalog.catalog import Catalog, IndexInfo, TableInfo
from repro.core.errors import PlanError
from repro.exec import physical as phys
from repro.optimizer.cardinality import Estimator
from repro.optimizer.cost import CostModel
from repro.optimizer.rules import extract_equi_keys
from repro.plan import logical
from repro.plan.expressions import (
    BoundBinary,
    BoundColumn,
    BoundExpr,
    BoundLiteral,
    BoundParam,
    conjoin,
    split_conjuncts,
)


@dataclass
class PlannerFlags:
    """Feature switches (E9's ablations flip these)."""

    enable_index_scan: bool = True
    enable_hash_join: bool = True
    enable_topn_sort: bool = True
    #: 0 disables the parallelism pass; 1 keeps exchange operators but runs
    #: their morsels inline (the overhead-measurement configuration); >= 2
    #: fans morsels out to the shared worker pool.
    workers: int = 0
    morsel_size: int = 8192
    #: Tables below this row count stay serial: morsel dispatch overhead
    #: would dominate.  Tests force parallel plans by setting it to 0.
    parallel_min_rows: int = 2048
    #: Radix partition count for parallel joins; 0 picks workers * 4
    #: (enough partitions that LPT scheduling absorbs skew).
    join_partitions: int = 0


#: Aggregate functions with a known partial-state decomposition.
_PARALLEL_AGG_FUNCS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass
class _IndexChoice:
    index: IndexInfo
    column_index: int
    eq_value: Any = None
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    consumed: Tuple[int, ...] = ()  # positions in the conjunct list
    estimated_rows: float = 0.0


class PhysicalPlanner:
    """Lowers logical plans to physical plans."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        flags: Optional[PlannerFlags] = None,
    ):
        self.catalog = catalog
        self.cost = cost_model if cost_model is not None else CostModel()
        self.flags = flags if flags is not None else PlannerFlags()
        self.estimator = Estimator(catalog)

    # ------------------------------------------------------------------

    def plan(self, node: logical.LogicalPlan) -> phys.PhysicalPlan:
        rows = self.estimator.estimate(node)
        if isinstance(node, logical.Scan):
            return phys.PSeqScan(node.table, node.alias, node.schema, rows)
        if isinstance(node, logical.Values):
            return phys.PValues(node.rows, node.schema, rows)
        if isinstance(node, logical.Filter):
            return self._plan_filter(node, rows)
        if isinstance(node, logical.Project):
            child = self.plan(node.child)
            return phys.PProject(child, node.exprs, node.output_schema(), rows)
        if isinstance(node, logical.Join):
            return self._plan_join(node, rows)
        if isinstance(node, logical.Aggregate):
            child = self.plan(node.child)
            return phys.PAggregate(
                child, node.group_exprs, node.aggregates, node.output_schema(), rows
            )
        if isinstance(node, logical.Sort):
            child = self.plan(node.child)
            return phys.PSort(child, node.keys, node.output_schema(), rows)
        if isinstance(node, logical.Limit):
            child = self.plan(node.child)
            if (
                self.flags.enable_topn_sort
                and isinstance(child, phys.PSort)
                and node.limit is not None
            ):
                child.limit_hint = node.limit + (node.offset or 0)
            return phys.PLimit(child, node.limit, node.offset, node.output_schema(), rows)
        if isinstance(node, logical.Distinct):
            child = self.plan(node.child)
            return phys.PDistinct(child, node.output_schema(), rows)
        if isinstance(node, logical.SetOp):
            return phys.PSetOp(
                self.plan(node.left),
                self.plan(node.right),
                node.kind,
                node.all,
                node.output_schema(),
                rows,
            )
        raise PlanError(f"cannot lower {type(node).__name__} to a physical plan")

    # -- filter / access path ------------------------------------------------

    def _plan_filter(self, node: logical.Filter, rows: float) -> phys.PhysicalPlan:
        if self.flags.enable_index_scan and isinstance(node.child, logical.Scan):
            scan = node.child
            table = self.catalog.get_table(scan.table)
            choice = self._choose_index(table, scan, node.predicate)
            if choice is not None:
                conjuncts = list(split_conjuncts(node.predicate))
                residual = conjoin(
                    [c for i, c in enumerate(conjuncts) if i not in choice.consumed]
                )
                return phys.PIndexScan(
                    table=scan.table,
                    alias=scan.alias,
                    schema=scan.schema,
                    index_name=choice.index.name,
                    column_index=choice.column_index,
                    eq_value=choice.eq_value,
                    low=choice.low,
                    high=choice.high,
                    include_low=choice.include_low,
                    include_high=choice.include_high,
                    residual=residual,
                    cardinality=rows,
                )
        child = self.plan(node.child)
        return phys.PFilter(child, node.predicate, node.output_schema(), rows)

    def _choose_index(
        self, table: TableInfo, scan: logical.Scan, predicate: BoundExpr
    ) -> Optional[_IndexChoice]:
        conjuncts = list(split_conjuncts(predicate))
        candidates = [
            (conjunct, candidate)
            for pos, conjunct in enumerate(conjuncts)
            if (candidate := self._match_index_conjunct(table, conjunct, pos)) is not None
        ]
        if not candidates:
            # No index matches: skip the storage stats and cost model.
            return None
        table_rows = float(max(table.row_count, 1))
        pages = max(table.stats_snapshot().page_count, 1)
        seq_cost = self.cost.seq_scan(pages, table_rows) + self.cost.filter(
            table_rows, len(conjuncts)
        )
        best: Optional[_IndexChoice] = None
        best_cost = seq_cost
        origins = self.estimator.origins(scan)
        for conjunct, candidate in candidates:
            sel = self.estimator.selectivity(conjunct, origins)
            matching = table_rows * sel
            candidate.estimated_rows = matching
            cost = self.cost.index_scan(matching) + self.cost.filter(
                matching, len(conjuncts) - 1
            )
            if cost < best_cost:
                best = candidate
                best_cost = cost
        return best

    def _match_index_conjunct(
        self, table: TableInfo, conjunct: BoundExpr, position: int
    ) -> Optional[_IndexChoice]:
        if not isinstance(conjunct, BoundBinary):
            return None
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(right, BoundColumn) and isinstance(left, (BoundLiteral, BoundParam)):
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        if not (
            isinstance(left, BoundColumn)
            and isinstance(right, (BoundLiteral, BoundParam))
        ):
            return None
        if isinstance(right, BoundLiteral):
            if right.value is None:
                return None
            probe = right.value
        else:
            # Parameter placeholder: the executor resolves the BoundParam's
            # current value on every run, so prepared plans keep index access.
            probe = right
        column_name = table.schema[left.index].name
        if op == "=":
            info = table.index_on(column_name)
            if info is None:
                return None
            return _IndexChoice(info, left.index, eq_value=probe, consumed=(position,))
        if op in ("<", "<=", ">", ">="):
            info = table.index_on(column_name, kind_filter="btree")
            if info is None:
                return None
            if op in ("<", "<="):
                return _IndexChoice(
                    info,
                    left.index,
                    high=probe,
                    include_high=(op == "<="),
                    consumed=(position,),
                )
            return _IndexChoice(
                info,
                left.index,
                low=probe,
                include_low=(op == ">="),
                consumed=(position,),
            )
        return None

    # -- parallelism ---------------------------------------------------------

    def parallelize(self, plan: phys.PhysicalPlan) -> phys.PhysicalPlan:
        """Rewrite eligible subtrees into exchange operators.

        The decision pass is deliberately conservative — the serial plan is
        always the fallback:

        * only ``Project(Filter(SeqScan))`` chains (either stage optional)
          become parallel scans; index scans keep their access-path order
          and stay serial;
        * tables under ``parallel_min_rows`` stay serial (morsel dispatch
          would cost more than it saves);
        * aggregates parallelize only when every function has a partial
          decomposition; hash joins and sorts only when their probe side /
          input is an eligible chain.

        Everything the pass leaves serial executes exactly as before, so a
        parallel plan is always a drop-in replacement — and the ordered
        gather in :mod:`repro.exec.parallel` means even row *order* matches.
        """
        if self.flags.workers <= 0:
            return plan
        return self._parallelize(plan)

    def _parallel_chain(self, node: phys.PhysicalPlan) -> Optional[phys.PParallelScan]:
        """A PParallelScan for a Project/Filter/SeqScan chain, else None."""
        project: Optional[phys.PProject] = None
        filter_: Optional[phys.PFilter] = None
        cur = node
        if isinstance(cur, phys.PProject):
            project, cur = cur, cur.child
        if isinstance(cur, phys.PFilter):
            filter_, cur = cur, cur.child
        if not isinstance(cur, phys.PSeqScan):
            return None
        table = self.catalog.get_table(cur.table)
        if table.row_count < self.flags.parallel_min_rows:
            return None
        return phys.PParallelScan(
            table=cur.table,
            alias=cur.alias,
            base_schema=cur.schema,
            predicate=filter_.predicate if filter_ is not None else None,
            exprs=project.exprs if project is not None else None,
            schema=node.schema,
            workers=self.flags.workers,
            morsel_size=self.flags.morsel_size,
            cardinality=node.estimated_rows(),
        )

    def _parallelize(self, node: phys.PhysicalPlan) -> phys.PhysicalPlan:
        chain = self._parallel_chain(node)
        if chain is not None:
            return chain
        if isinstance(node, phys.PAggregate):
            child_chain = self._parallel_chain(node.child)
            if child_chain is not None and all(
                spec.func in _PARALLEL_AGG_FUNCS for spec in node.aggregates
            ):
                return phys.PTwoPhaseAggregate(
                    child=child_chain,
                    group_exprs=node.group_exprs,
                    aggregates=node.aggregates,
                    schema=node.schema,
                    workers=self.flags.workers,
                    cardinality=node.cardinality,
                )
        if isinstance(node, phys.PHashJoin):
            left_chain = self._parallel_chain(node.left)
            if left_chain is not None:
                return phys.PPartitionedHashJoin(
                    left=left_chain,
                    right=self._parallelize(node.right),
                    kind=node.kind,
                    left_keys=node.left_keys,
                    right_keys=node.right_keys,
                    residual=node.residual,
                    schema=node.schema,
                    workers=self.flags.workers,
                    partitions=self.flags.join_partitions
                    or max(4, self.flags.workers * 4),
                    cardinality=node.cardinality,
                )
        if isinstance(node, phys.PSort):
            child_chain = self._parallel_chain(node.child)
            if child_chain is not None:
                # The top-N hint was planted by the Limit lowering before
                # this pass ran, so it transfers to the per-morsel sorts.
                return phys.PParallelSort(
                    child=child_chain,
                    keys=node.keys,
                    schema=node.schema,
                    workers=self.flags.workers,
                    limit_hint=node.limit_hint,
                    cardinality=node.cardinality,
                )
        for attr in ("child", "left", "right"):
            child = getattr(node, attr, None)
            if isinstance(child, phys.PhysicalPlan):
                setattr(node, attr, self._parallelize(child))
        return node

    # -- joins ------------------------------------------------------------------

    def _plan_join(self, node: logical.Join, rows: float) -> phys.PhysicalPlan:
        left = self.plan(node.left)
        right = self.plan(node.right)
        schema = node.output_schema()
        if (
            self.flags.enable_hash_join
            and node.condition is not None
            and node.kind in (logical.INNER, logical.LEFT_OUTER)
        ):
            left_width = len(node.left.output_schema())
            left_keys, right_keys, residual_parts = extract_equi_keys(
                node.condition, left_width
            )
            if left_keys:
                residual = conjoin(residual_parts)
                return phys.PHashJoin(
                    left,
                    right,
                    node.kind,
                    tuple(left_keys),
                    tuple(right_keys),
                    residual,
                    schema,
                    rows,
                )
        return phys.PNestedLoopJoin(left, right, node.kind, node.condition, schema, rows)

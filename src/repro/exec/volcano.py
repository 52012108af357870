"""Volcano-style (row-at-a-time, pull-based) execution engine.

Each physical operator lowers to a Python generator; composing generators
gives the classic open/next/close pipeline without the boilerplate.  The
engine shares the physical plan format with the vectorized engine — run the
same plan on either and you get the same rows (tested property).

The row operators with no batch form — hash and nested-loop join, hash
aggregate, set operations and DISTINCT — are implemented once, here, for
both engines (:data:`ROW_OPERATORS`).  Each takes the calling engine's
child-row executor, ``rows(child)``, and is a generator, so no child runs
before the operator is pulled.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Catalog
from repro.core.errors import ExecutionError
from repro.core.types import Row
from repro.exec import parallel
from repro.exec import physical as phys
from repro.exec.compile import _Accumulator, aggregate_output, evaluator
from repro.plan.expressions import BoundExpr

#: An engine's child-row executor: ``rows(child)`` yields the child's rows.
ChildRows = Callable[[phys.PhysicalPlan], Iterable[Row]]


def execute_volcano(plan: phys.PhysicalPlan, catalog: Catalog) -> Iterator[Row]:
    """Run a physical plan, yielding result rows."""
    row_operator = ROW_OPERATORS.get(type(plan))
    if row_operator is not None:
        return row_operator(plan, lambda child: execute_volcano(child, catalog))
    if isinstance(plan, phys.PSeqScan):
        return _seq_scan(plan, catalog)
    if isinstance(plan, phys.PIndexScan):
        return _index_scan(plan, catalog)
    if isinstance(plan, phys.PValues):
        return iter(plan.rows)
    if isinstance(plan, phys.PFilter):
        return _filter(plan, catalog)
    if isinstance(plan, phys.PProject):
        return _project(plan, catalog)
    if isinstance(plan, phys.PSort):
        return _sort(plan, catalog)
    if isinstance(plan, phys.PLimit):
        return _limit(plan, catalog)
    if isinstance(plan, phys.PParallelScan):
        return parallel.scan_rows(plan, catalog)
    if isinstance(plan, phys.PTwoPhaseAggregate):
        return iter(parallel.aggregate_rows(plan, catalog))
    if isinstance(plan, phys.PPartitionedHashJoin):
        return _partitioned_hash_join(plan, catalog)
    if isinstance(plan, phys.PParallelSort):
        return iter(parallel.sorted_rows(plan, catalog))
    raise ExecutionError(f"volcano engine cannot execute {type(plan).__name__}")


# -- scans ---------------------------------------------------------------------


def _seq_scan(plan: phys.PSeqScan, catalog: Catalog) -> Iterator[Row]:
    table = catalog.get_table(plan.table)
    yield from table.scan_rows()


def _resolve_bound(value: Any) -> Any:
    """An index-scan bound is a concrete value or a parameter expression."""
    if isinstance(value, BoundExpr):
        return value.eval(())
    return value


def _index_scan(plan: phys.PIndexScan, catalog: Catalog) -> Iterator[Row]:
    table = catalog.get_table(plan.table)
    info = table.indexes.get(plan.index_name)
    if info is None:
        raise ExecutionError(f"index {plan.index_name!r} disappeared")
    if plan.eq_value is not None:
        eq_value = _resolve_bound(plan.eq_value)
        if eq_value is None:
            return  # equality with a NULL parameter matches nothing
        rids = info.structure.search(eq_value)
    else:
        if not info.supports_range():
            raise ExecutionError(f"index {plan.index_name!r} cannot do range scans")
        low = _resolve_bound(plan.low)
        high = _resolve_bound(plan.high)
        if (plan.low is not None and low is None) or (
            plan.high is not None and high is None
        ):
            return  # a comparison with a NULL parameter matches nothing
        rids = [
            rid
            for _, rid in info.structure.range(
                low, high, plan.include_low, plan.include_high
            )
        ]
    residual = evaluator(plan.residual)
    for rid in rids:
        row = table.get(rid)
        if row is None:
            continue  # deleted since index lookup
        if residual is not None and residual(row) is not True:
            continue
        yield row


# -- row pipeline ----------------------------------------------------------------


def _filter(plan: phys.PFilter, catalog: Catalog) -> Iterator[Row]:
    predicate = evaluator(plan.predicate)
    for row in execute_volcano(plan.child, catalog):
        if predicate(row) is True:
            yield row


def _project(plan: phys.PProject, catalog: Catalog) -> Iterator[Row]:
    fns = [evaluator(e) for e in plan.exprs]
    for row in execute_volcano(plan.child, catalog):
        yield tuple(fn(row) for fn in fns)


def nested_loop_join(plan: phys.PNestedLoopJoin, rows: ChildRows) -> Iterator[Row]:
    right_rows = list(rows(plan.right))
    right_width = len(plan.right.schema)
    null_pad = (None,) * right_width
    condition = evaluator(plan.condition)
    for left_row in rows(plan.left):
        matched = False
        for right_row in right_rows:
            combined = left_row + right_row
            if condition is None or condition(combined) is True:
                matched = True
                yield combined
        if plan.is_outer and not matched:
            yield left_row + null_pad


def hash_join(plan: phys.PHashJoin, rows: ChildRows) -> Iterator[Row]:
    # Build on the right input.
    table: Dict[Tuple, List[Row]] = {}
    right_keys = [evaluator(k) for k in plan.right_keys]
    for right_row in rows(plan.right):
        key = tuple(k(right_row) for k in right_keys)
        if any(v is None for v in key):
            continue  # SQL equality never matches NULL
        table.setdefault(key, []).append(right_row)
    right_width = len(plan.right.schema)
    null_pad = (None,) * right_width
    residual = evaluator(plan.residual)
    left_keys = [evaluator(k) for k in plan.left_keys]
    for left_row in rows(plan.left):
        key = tuple(k(left_row) for k in left_keys)
        matched = False
        if not any(v is None for v in key):
            for right_row in table.get(key, ()):
                combined = left_row + right_row
                if residual is None or residual(combined) is True:
                    matched = True
                    yield combined
        if plan.is_outer and not matched:
            yield left_row + null_pad


def _partitioned_hash_join(
    plan: phys.PPartitionedHashJoin, catalog: Catalog
) -> Iterator[Row]:
    right_rows = list(execute_volcano(plan.right, catalog))
    yield from parallel.join_rows(plan, catalog, right_rows)


# -- aggregation --------------------------------------------------------------------


def aggregate(plan: phys.PAggregate, rows: ChildRows) -> Iterator[Row]:
    groups: Dict[Tuple, List[_Accumulator]] = {}
    group_fns = [evaluator(e) for e in plan.group_exprs]
    for row in rows(plan.child):
        key = tuple(fn(row) for fn in group_fns)
        accs = groups.get(key)
        if accs is None:
            accs = [_Accumulator(spec) for spec in plan.aggregates]
            groups[key] = accs
        for acc in accs:
            acc.add(row)
    yield from aggregate_output(groups, plan.aggregates, bool(plan.group_exprs))


# -- set operations ----------------------------------------------------------------


def set_op(plan: phys.PSetOp, rows: ChildRows) -> Iterator[Row]:
    if plan.kind == "union":
        if plan.all:
            yield from rows(plan.left)
            yield from rows(plan.right)
            return
        seen = set()
        for side in (plan.left, plan.right):
            for row in rows(side):
                if row not in seen:
                    seen.add(row)
                    yield row
        return
    right_rows = set(rows(plan.right))
    emitted = set()
    if plan.kind == "intersect":
        for row in rows(plan.left):
            if row in right_rows and row not in emitted:
                emitted.add(row)
                yield row
        return
    if plan.kind == "except":
        for row in rows(plan.left):
            if row not in right_rows and row not in emitted:
                emitted.add(row)
                yield row
        return
    raise ExecutionError(f"unknown set operation {plan.kind!r}")


# -- ordering ---------------------------------------------------------------------------


class SortComparable:
    """Row wrapper implementing multi-key SQL ordering.

    ASC places NULLs last, DESC places NULLs first (PostgreSQL defaults).
    """

    __slots__ = ("values", "directions")

    def __init__(self, values: Sequence[Any], directions: Sequence[bool]):
        self.values = values
        self.directions = directions

    def __lt__(self, other: "SortComparable") -> bool:
        for v1, v2, asc in zip(self.values, other.values, self.directions):
            n1, n2 = v1 is None, v2 is None
            if n1 or n2:
                if n1 and n2:
                    continue
                return not asc if n1 else asc
            if v1 == v2:
                continue
            return bool(v1 < v2) if asc else bool(v2 < v1)
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortComparable):
            return NotImplemented
        return not (self < other) and not (other < self)


def sort_rows(
    rows: List[Row],
    keys: Sequence[Tuple[BoundExpr, bool]],
    limit: Optional[int] = None,
) -> List[Row]:
    """Sort rows by bound key expressions; bounded heap when limit is given."""
    directions = [asc for _, asc in keys]
    key_fns = [evaluator(e) for e, _ in keys]

    def key_of(row: Row) -> SortComparable:
        return SortComparable([fn(row) for fn in key_fns], directions)

    if limit is not None and limit < len(rows):
        return heapq.nsmallest(limit, rows, key=key_of)
    return sorted(rows, key=key_of)


def _sort(plan: phys.PSort, catalog: Catalog) -> Iterator[Row]:
    rows = list(execute_volcano(plan.child, catalog))
    yield from sort_rows(rows, plan.keys, plan.limit_hint)


def _limit(plan: phys.PLimit, catalog: Catalog) -> Iterator[Row]:
    produced = 0
    skipped = 0
    for row in execute_volcano(plan.child, catalog):
        if skipped < plan.offset:
            skipped += 1
            continue
        if plan.limit is not None and produced >= plan.limit:
            return
        produced += 1
        yield row


def distinct(plan: phys.PDistinct, rows: ChildRows) -> Iterator[Row]:
    seen = set()
    for row in rows(plan.child):
        if row in seen:
            continue
        seen.add(row)
        yield row


#: The row operators both engines run through this one implementation.
ROW_OPERATORS: Dict[type, Callable[[Any, ChildRows], Iterator[Row]]] = {
    phys.PHashJoin: hash_join,
    phys.PNestedLoopJoin: nested_loop_join,
    phys.PAggregate: aggregate,
    phys.PSetOp: set_op,
    phys.PDistinct: distinct,
}

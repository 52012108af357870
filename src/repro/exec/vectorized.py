"""Vectorized (batch-at-a-time) execution engine.

Interprets the same physical plans as the Volcano engine but moves data in
column-major batches (default 1024 rows), amortizing interpretation overhead
and unlocking numpy kernels for numeric predicates.  Together the two
engines demonstrate physical data independence: one logical query, two
physical executions, identical answers (a tested invariant, and experiment
E8's subject).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.catalog.catalog import Catalog
from repro.core.errors import ExecutionError
from repro.core.types import Row
from repro.exec import parallel
from repro.exec import physical as phys
from repro.exec.vector_eval import Batch, as_list, filter_batch, project_batch
from repro.exec.volcano import ROW_OPERATORS, _index_scan, sort_rows

DEFAULT_BATCH_SIZE = 1024


def execute_vectorized(
    plan: phys.PhysicalPlan, catalog: Catalog, batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[Row]:
    """Run a physical plan with batch execution, yielding result rows."""
    for batch, n in _execute(plan, catalog, batch_size):
        if not batch:  # zero-width rows (SELECT COUNT(*) with no FROM): zip yields none
            yield from [()] * n
        else:
            yield from zip(*batch)


def _execute(
    plan: phys.PhysicalPlan, catalog: Catalog, batch_size: int
) -> Iterator[Tuple[Batch, int]]:
    row_operator = ROW_OPERATORS.get(type(plan))
    if row_operator is not None:
        # No batch form: run the shared row operator over the children's rows.
        rows = row_operator(plan, lambda child: execute_vectorized(child, catalog, batch_size))
        yield from _rows_to_batches(rows, len(plan.schema), batch_size)
    elif isinstance(plan, phys.PSeqScan):
        yield from _seq_scan(plan, catalog, batch_size)
    elif isinstance(plan, phys.PIndexScan):
        yield from _rows_to_batches(_index_scan(plan, catalog), len(plan.schema), batch_size)
    elif isinstance(plan, phys.PValues):
        yield from _rows_to_batches(iter(plan.rows), len(plan.schema), batch_size)
    elif isinstance(plan, phys.PFilter):
        yield from _filter(plan, catalog, batch_size)
    elif isinstance(plan, phys.PProject):
        yield from _project(plan, catalog, batch_size)
    elif isinstance(plan, phys.PSort):
        rows = list(execute_vectorized(plan.child, catalog, batch_size))
        ordered = sort_rows(rows, plan.keys, plan.limit_hint)
        yield from _rows_to_batches(iter(ordered), len(plan.schema), batch_size)
    elif isinstance(plan, phys.PLimit):
        yield from _limit(plan, catalog, batch_size)
    elif isinstance(plan, phys.PParallelScan):
        yield from parallel.scan_batches(plan, catalog)
    elif isinstance(plan, phys.PTwoPhaseAggregate):
        rows = parallel.aggregate_rows(plan, catalog)
        yield from _rows_to_batches(iter(rows), len(plan.schema), batch_size)
    elif isinstance(plan, phys.PPartitionedHashJoin):
        right_rows = list(execute_vectorized(plan.right, catalog, batch_size))
        rows = parallel.join_rows(plan, catalog, right_rows)
        yield from _rows_to_batches(iter(rows), len(plan.schema), batch_size)
    elif isinstance(plan, phys.PParallelSort):
        rows = parallel.sorted_rows(plan, catalog)
        yield from _rows_to_batches(iter(rows), len(plan.schema), batch_size)
    else:
        raise ExecutionError(f"vectorized engine cannot execute {type(plan).__name__}")


# -- sources -----------------------------------------------------------------


def _seq_scan(
    plan: phys.PSeqScan, catalog: Catalog, batch_size: int
) -> Iterator[Tuple[Batch, int]]:
    table = catalog.get_table(plan.table)
    if table.column_table is not None:
        # Native columnar path: no row pivot at all.
        for _, columns in table.column_table.batches(batch_size):
            n = len(columns[0]) if columns else 0
            if n:
                yield columns, n
        return
    yield from _rows_to_batches(table.scan_rows(), len(plan.schema), batch_size)


def _rows_to_batches(
    rows: Iterator[Row], width: int, batch_size: int
) -> Iterator[Tuple[Batch, int]]:
    # Accumulate rows and pivot each chunk with one zip(*...) call — the
    # transpose happens in C instead of a per-cell Python append loop.
    chunk: List[Row] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_size:
            yield _pivot(chunk, width), len(chunk)
            chunk = []
    if chunk:
        yield _pivot(chunk, width), len(chunk)


# -- pipeline operators ------------------------------------------------------------


def _filter(
    plan: phys.PFilter, catalog: Catalog, batch_size: int
) -> Iterator[Tuple[Batch, int]]:
    for batch, n in _execute(plan.child, catalog, batch_size):
        batch, n = filter_batch(plan.predicate, batch, n)
        if n:
            yield batch, n


def _project(
    plan: phys.PProject, catalog: Catalog, batch_size: int
) -> Iterator[Tuple[Batch, int]]:
    for batch, n in _execute(plan.child, catalog, batch_size):
        yield [as_list(col) for col in project_batch(plan.exprs, batch, n)], n


def _limit(
    plan: phys.PLimit, catalog: Catalog, batch_size: int
) -> Iterator[Tuple[Batch, int]]:
    to_skip = plan.offset
    remaining = plan.limit
    for batch, n in _execute(plan.child, catalog, batch_size):
        start = 0
        if to_skip:
            if to_skip >= n:
                to_skip -= n
                continue
            start = to_skip
            to_skip = 0
        end = n
        if remaining is not None:
            end = min(end, start + remaining)
        if end <= start:
            return
        taken = end - start
        if start == 0 and end == n:
            yield batch, n
        else:
            yield [col[start:end] for col in batch], taken
        if remaining is not None:
            remaining -= taken
            if remaining <= 0:
                return


def _pivot(rows: List[Row], width: int) -> Batch:
    if not rows:
        return [[] for _ in range(width)]
    return [list(col) for col in zip(*rows)]

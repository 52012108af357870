"""Columnar table storage.

The physical-independence counterpart to :class:`repro.storage.heap.HeapFile`:
one Python list (or numpy array view) per column, an explicit validity set
for deletions, and batch-oriented scans for the vectorized engine.

Numeric columns can be materialized as numpy arrays (:meth:`ColumnTable.
column_array`) so vectorized operators get real SIMD-style evaluation.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import StorageError
from repro.core.types import DataType, Row, Schema, TableStatsSnapshot, validate_row


class ColumnTable:
    """Append-oriented columnar storage with tombstone deletes."""

    def __init__(self, schema: Schema, name: str = "column_table"):
        self.schema = schema
        self.name = name
        self._columns: List[List[Any]] = [[] for _ in schema]
        self._deleted: set = set()
        self._byte_count = 0
        self._dtypes = [spec.dtype for spec in schema]
        self._lock = threading.RLock()
        self._array_cache: dict = {}

    # -- writes -----------------------------------------------------------

    def append(self, row: Sequence[Any]) -> int:
        """Validate and append a row; returns its row index."""
        return self.store(validate_row(self.schema, row))

    def store(self, stored: Row) -> int:
        """Append a row :func:`validate_row` already returned; returns its index."""
        size = self._row_bytes(stored)
        with self._lock:
            for col_list, value in zip(self._columns, stored):
                col_list.append(value)
            self._byte_count += size
            self._array_cache.clear()
            return len(self._columns[0]) - 1

    def append_many(self, rows: Sequence[Sequence[Any]]) -> List[int]:
        return [self.append(row) for row in rows]

    def delete(self, index: int) -> None:
        """Tombstone a row index."""
        with self._lock:
            self._check_index(index)
            if index in self._deleted:
                raise StorageError(f"row {index} already deleted")
            self._deleted.add(index)
            self._byte_count -= self._row_bytes([col[index] for col in self._columns])
            self._array_cache.clear()

    def update(self, index: int, row: Sequence[Any]) -> int:
        """Validate and overwrite a row in place; returns its index, which never moves."""
        return self.replace(index, validate_row(self.schema, row))

    def replace(self, index: int, stored: Row) -> int:
        """Overwrite a row with a tuple :func:`validate_row` already returned."""
        with self._lock:
            self._check_index(index)
            if index in self._deleted:
                raise StorageError(f"row {index} is deleted")
            self._byte_count -= self._row_bytes([col[index] for col in self._columns])
            for col_list, value in zip(self._columns, stored):
                col_list[index] = value
            self._byte_count += self._row_bytes(stored)
            self._array_cache.clear()
            return index

    # -- reads ---------------------------------------------------------------

    def get(self, index: int) -> Optional[Row]:
        with self._lock:
            self._check_index(index)
            if index in self._deleted:
                return None
            return tuple(col[index] for col in self._columns)

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Yield (row_index, row) for live rows."""
        with self._lock:
            total = len(self._columns[0]) if self._columns else 0
            deleted = set(self._deleted)
            columns = [list(c) for c in self._columns]
        for idx in range(total):
            if idx not in deleted:
                yield idx, tuple(col[idx] for col in columns)

    def scan_rows(self) -> Iterator[Row]:
        for _, row in self.scan():
            yield row

    def batches(self, batch_size: int = 1024) -> Iterator[Tuple[List[int], List[List[Any]]]]:
        """Yield (row_indexes, column_slices) for live rows, in batches.

        Each batch is column-major: ``columns[j][i]`` is the value of column
        ``j`` for the ``i``-th row of the batch.
        """
        if batch_size < 1:
            raise StorageError("batch_size must be >= 1")
        with self._lock:
            total = len(self._columns[0]) if self._columns else 0
            deleted = set(self._deleted)
            columns = [list(c) for c in self._columns]
        live = [i for i in range(total) if i not in deleted]
        for start in range(0, len(live), batch_size):
            chunk = live[start : start + batch_size]
            yield chunk, [[col[i] for i in chunk] for col in columns]

    def column_values(self, name_or_index) -> List[Any]:
        """Live values of one column, in row order."""
        idx = self._resolve(name_or_index)
        with self._lock:
            col = self._columns[idx]
            return [v for i, v in enumerate(col) if i not in self._deleted]

    def column_array(self, name_or_index) -> np.ndarray:
        """Live values of a numeric column as a numpy array (cached).

        The returned array is marked read-only: it is shared between every
        caller (including concurrent morsel workers), so an in-place write
        would corrupt other readers' view of the table.
        """
        idx = self._resolve(name_or_index)
        dtype = self.schema[idx].dtype
        if not dtype.is_numeric():
            raise StorageError(
                f"column {self.schema[idx].name!r} is {dtype.value}, not numeric"
            )
        with self._lock:
            if idx in self._array_cache:
                return self._array_cache[idx]
            values = [
                v for i, v in enumerate(self._columns[idx]) if i not in self._deleted
            ]
            arr = np.array(
                [np.nan if v is None else v for v in values],
                dtype=np.int64 if dtype is DataType.INTEGER and None not in values else np.float64,
            )
            arr.setflags(write=False)
            self._array_cache[idx] = arr
            return arr

    def clean_array(self, index: int) -> Optional[np.ndarray]:
        """A NULL-free numeric array aligned with raw row indexes, or None.

        This is the morsel fast path: when the column is numeric, holds no
        NULLs, and the table has no tombstones, row ``i`` of the table is
        element ``i`` of the array, so a morsel ``[start, end)`` is a
        zero-copy slice.  Any other situation returns None and the caller
        falls back to per-value Python lists.  The result (including the
        negative answer) is cached alongside :meth:`column_array` and
        invalidated by every write.
        """
        with self._lock:
            key = ("clean", index)
            if key in self._array_cache:
                return self._array_cache[key]
            arr: Optional[np.ndarray] = None
            dtype = self.schema[index].dtype
            if not self._deleted and dtype.is_numeric():
                values = self._columns[index]
                if None not in values:
                    arr = np.asarray(
                        values,
                        dtype=np.int64 if dtype is DataType.INTEGER else np.float64,
                    )
                    arr.setflags(write=False)
            self._array_cache[key] = arr
            return arr

    # -- morsels ------------------------------------------------------------

    def morsel_source(self, morsel_size: int = 8192) -> "ColumnMorselSource":
        """A consistent snapshot of the table split into row-range morsels."""
        if morsel_size < 1:
            raise StorageError("morsel_size must be >= 1")
        with self._lock:
            total = len(self._columns[0]) if self._columns else 0
            deleted = set(self._deleted) if self._deleted else None
            columns = list(self._columns)
        live: Optional[List[int]] = None
        if deleted:
            live = [i for i in range(total) if i not in deleted]
            count = len(live)
        else:
            count = total
        arrays: List[Optional[np.ndarray]] = []
        if live is None:
            # Arrays align with raw indexes only when nothing is deleted.
            arrays = [self.clean_array(j) for j in range(len(columns))]
        else:
            arrays = [None] * len(columns)
        specs = [
            (start, min(start + morsel_size, count))
            for start in range(0, count, morsel_size)
        ]
        return ColumnMorselSource(columns, arrays, live, specs)

    # -- stats --------------------------------------------------------------

    @property
    def row_count(self) -> int:
        with self._lock:
            total = len(self._columns[0]) if self._columns else 0
            return total - len(self._deleted)

    def stats_snapshot(self) -> TableStatsSnapshot:
        """Row, byte and page counts kept on every write: O(1), no scan."""
        with self._lock:
            return TableStatsSnapshot(
                row_count=self.row_count,
                byte_count=self._byte_count,
                page_count=max(1, self._byte_count // 8192 + 1),
            )

    # -- internals -------------------------------------------------------------

    def _row_bytes(self, row: Sequence[Any]) -> int:
        # ~ the heap's encoded size, comparable across layouts: TEXT 5+len, VECTOR 5+8*len, else 9.
        size = 0
        for value, dtype in zip(row, self._dtypes):
            if value is None:
                continue
            if dtype is DataType.TEXT:
                size += 5 + len(value)
            elif dtype is DataType.VECTOR:
                size += 5 + 8 * len(value)
            else:
                size += 9
        return size

    def _check_index(self, index: int) -> None:
        total = len(self._columns[0]) if self._columns else 0
        if index < 0 or index >= total:
            raise StorageError(f"row index {index} out of range for {self.name!r}")

    def _resolve(self, name_or_index) -> int:
        if isinstance(name_or_index, int):
            if name_or_index < 0 or name_or_index >= len(self.schema):
                raise StorageError(f"column index {name_or_index} out of range")
            return name_or_index
        return self.schema.index_of(name_or_index)


class ColumnMorselSource:
    """Row-range morsels over one snapshot of a :class:`ColumnTable`.

    ``read`` is safe to call from worker threads: it only slices the
    snapshot's immutable arrays and (GIL-atomically) the underlying column
    lists, never touching table locks.  Numeric NULL-free columns come back
    as zero-copy numpy views so downstream kernels release the GIL.
    """

    __slots__ = ("columns", "arrays", "live", "specs")

    def __init__(self, columns, arrays, live, specs):
        self.columns = columns
        self.arrays = arrays
        self.live = live
        self.specs = specs

    def read(self, spec: Tuple[int, int]) -> Tuple[List[Any], int]:
        """Column-major values for morsel ``spec``; returns (columns, n)."""
        start, end = spec
        if self.live is not None:
            idx = self.live[start:end]
            return [[col[i] for i in idx] for col in self.columns], len(idx)
        out: List[Any] = []
        for j, col in enumerate(self.columns):
            arr = self.arrays[j]
            out.append(arr[start:end] if arr is not None else col[start:end])
        return out, end - start

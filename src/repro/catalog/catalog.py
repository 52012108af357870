"""The catalog: tables, layouts, indexes, and statistics in one registry.

A :class:`TableInfo` hides the physical layout (row heap vs. column store)
behind one logical interface — inserts, deletes, updates, scans — and keeps
every secondary index synchronized on each write.  This is where "physical
data independence" stops being a slogan and becomes a dispatch table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.statistics import TableStats, compute_table_stats
from repro.core.errors import CatalogError, StorageError
from repro.core.types import Row, Schema, validate_row
from repro.index.btree import BPlusTree
from repro.index.hashindex import HashIndex
from repro.storage.buffer import BufferPool
from repro.storage.column import ColumnTable
from repro.storage.heap import HeapFile, RecordId

ROW_LAYOUT = "row"
COLUMN_LAYOUT = "column"

#: Tables at or below this row count keep a decoded copy of their rows after a
#: full scan (see :meth:`TableInfo.scan`).  Larger tables always decode from
#: pages so the cache cannot dominate memory on big loads.
SCAN_CACHE_MAX_ROWS = 200_000


@dataclass
class IndexInfo:
    """Metadata + structure for one secondary index."""

    name: str
    table: str
    column: str
    kind: str  # "btree" | "hash"
    unique: bool
    structure: Any = field(repr=False, default=None)

    def supports_range(self) -> bool:
        return self.kind == "btree"


class TableInfo:
    """A logical table over one physical layout, with index maintenance."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        pool: BufferPool,
        layout: str = ROW_LAYOUT,
    ):
        if layout not in (ROW_LAYOUT, COLUMN_LAYOUT):
            raise CatalogError(f"unknown layout {layout!r}")
        self.name = name
        self.schema = schema.with_table(name)
        self.layout = layout
        self.heap: Optional[HeapFile] = None
        self.column_table: Optional[ColumnTable] = None
        if layout == ROW_LAYOUT:
            self.heap = HeapFile(pool, self.schema, name=name)
        else:
            self.column_table = ColumnTable(self.schema, name=name)
        self.indexes: Dict[str, IndexInfo] = {}
        self.stats: Optional[TableStats] = None
        self._lock = threading.RLock()
        # Decoded-row scan cache.  Rows are immutable tuples and every write
        # goes through insert/delete/update below, so a completed scan can be
        # replayed until the next write invalidates it.
        self._scan_cache: Optional[List[Tuple[Any, Row]]] = None
        self._write_version = 0

    # -- writes ----------------------------------------------------------------

    def _note_write(self) -> None:
        self._write_version += 1
        self._scan_cache = None

    def insert(self, row: Sequence[Any]) -> Tuple[Any, Row]:
        """Insert a row, maintaining indexes; returns ``(rid, stored)``.

        ``stored`` is the validated tuple, so callers log it without a read-back."""
        stored = validate_row(self.schema, row)
        with self._lock:
            self._note_write()
            rid = self.storage.store(stored)
            for info in self.indexes.values():
                key = stored[self.schema.index_of(info.column)]
                if key is not None:  # NULL keys are not indexed
                    info.structure.insert(key, rid)
            return rid, stored

    def delete(self, rid: Any) -> Row:
        """Delete by rid; returns the removed row."""
        with self._lock:
            row = self.get(rid)
            if row is None:
                raise StorageError(f"rid {rid} not found in {self.name!r}")
            self._note_write()
            self.storage.delete(rid)
            for info in self.indexes.values():
                key = row[self.schema.index_of(info.column)]
                if key is not None:
                    info.structure.delete(key, rid)
            return row

    def update(self, rid: Any, row: Sequence[Any]) -> Tuple[Any, Row]:
        """Update by rid; returns ``(new_rid, stored)``, the (possibly new) rid
        and the validated tuple, so callers log it without a read-back."""
        stored = validate_row(self.schema, row)
        with self._lock:
            old = self.get(rid)
            if old is None:
                raise StorageError(f"rid {rid} not found in {self.name!r}")
            self._note_write()
            new_rid = self.storage.replace(rid, stored)
            for info in self.indexes.values():
                idx = self.schema.index_of(info.column)
                old_key, new_key = old[idx], stored[idx]
                if old_key != new_key or new_rid != rid:
                    if old_key is not None:
                        info.structure.delete(old_key, rid)
                    if new_key is not None:
                        info.structure.insert(new_key, new_rid)
            return new_rid, stored

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> List[Any]:
        return [self.insert(row)[0] for row in rows]

    # -- reads --------------------------------------------------------------------

    @property
    def storage(self):
        """The layout's store: the :class:`HeapFile` or the :class:`ColumnTable`."""
        return self.heap if self.heap is not None else self.column_table

    def get(self, rid: Any) -> Optional[Row]:
        return self.storage.get(rid)

    def scan(self) -> Iterator[Tuple[Any, Row]]:
        cache = self._scan_cache
        if cache is not None:
            yield from cache
            return
        source = self.storage.scan()
        if self.row_count > SCAN_CACHE_MAX_ROWS:
            yield from source
            return
        version = self._write_version
        pairs: List[Tuple[Any, Row]] = []
        append = pairs.append
        for pair in source:
            append(pair)
            yield pair
        # Install only if the scan ran to completion with no interleaved write
        # (an abandoned or racing scan must not pin a partial snapshot).  The
        # version re-check happens under the table lock so it cannot race a
        # writer between the comparison and the install.
        with self._lock:
            if self._write_version == version:
                self._scan_cache = pairs

    def release_caches(self) -> None:
        """Drop the decoded-row scan cache (shutdown/resource-release path)."""
        with self._lock:
            self._scan_cache = None

    def morsels(self, morsel_size: int = 8192):
        """A morsel source over the current table contents (layout dispatch).

        Returns an object with ``specs`` (opaque morsel descriptors) and
        ``read(spec) -> (columns, n)`` — the storage contract the parallel
        executor (:mod:`repro.exec.parallel`) fans out over worker threads.
        """
        return self.storage.morsel_source(morsel_size)

    def scan_rows(self) -> Iterator[Row]:
        for _, row in self.scan():
            yield row

    @property
    def row_count(self) -> int:
        return self.storage.row_count

    def stats_snapshot(self):
        return self.storage.stats_snapshot()

    # -- indexes ----------------------------------------------------------------------

    def index_on(self, column: str, kind_filter: Optional[str] = None) -> Optional[IndexInfo]:
        """An index whose key is ``column`` (optionally of a given kind)."""
        for info in self.indexes.values():
            if info.column == column and (kind_filter is None or info.kind == kind_filter):
                return info
        return None


class Catalog:
    """Registry of tables and indexes for one database instance."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._tables: Dict[str, TableInfo] = {}
        self._lock = threading.RLock()
        #: Bumped by every DDL change (tables and indexes).  Cached plans
        #: embed the version they were built against; a mismatch is a miss.
        self.version = 0
        #: Bumped by ANALYZE: plans optimized under old statistics are stale.
        self.stats_epoch = 0

    # -- tables -------------------------------------------------------------------

    def create_table(
        self, name: str, schema: Schema, layout: str = ROW_LAYOUT
    ) -> TableInfo:
        with self._lock:
            key = name.lower()
            if key in self._tables:
                raise CatalogError(f"table {name!r} already exists")
            table = TableInfo(name, schema, self.pool, layout=layout)
            self._tables[key] = table
            self.version += 1
            return table

    def drop_table(self, name: str) -> None:
        with self._lock:
            key = name.lower()
            if key not in self._tables:
                raise CatalogError(f"table {name!r} does not exist")
            del self._tables[key]
            self.version += 1

    def get_table(self, name: str) -> TableInfo:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"table {name!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return sorted(t.name for t in self._tables.values())

    # -- indexes --------------------------------------------------------------------

    def create_index(
        self,
        index_name: str,
        table_name: str,
        column: str,
        kind: str = "btree",
        unique: bool = False,
    ) -> IndexInfo:
        """Create and backfill a secondary index."""
        if kind not in ("btree", "hash"):
            raise CatalogError(f"unknown index kind {kind!r}")
        with self._lock:
            table = self.get_table(table_name)
            if any(i.name == index_name for t in self._tables.values() for i in t.indexes.values()):
                raise CatalogError(f"index {index_name!r} already exists")
            col_idx = table.schema.index_of(column)
            structure = BPlusTree(unique=unique) if kind == "btree" else HashIndex(unique=unique)
            info = IndexInfo(
                name=index_name,
                table=table.name,
                column=table.schema[col_idx].name,
                kind=kind,
                unique=unique,
                structure=structure,
            )
            for rid, row in table.scan():
                if row[col_idx] is not None:  # NULL keys are not indexed
                    structure.insert(row[col_idx], rid)
            table.indexes[index_name] = info
            self.version += 1
            return info

    def drop_index(self, index_name: str) -> None:
        with self._lock:
            for table in self._tables.values():
                if index_name in table.indexes:
                    del table.indexes[index_name]
                    self.version += 1
                    return
            raise CatalogError(f"index {index_name!r} does not exist")

    # -- statistics ------------------------------------------------------------------

    def analyze(self, table_name: Optional[str] = None) -> None:
        """Recompute optimizer statistics for one table (or all)."""
        with self._lock:
            names = [table_name] if table_name else self.table_names()
            for name in names:
                table = self.get_table(name)
                snapshot = table.stats_snapshot()
                table.stats = compute_table_stats(
                    table.name,
                    table.schema,
                    table.scan_rows(),
                    byte_count=snapshot.byte_count,
                )
            self.stats_epoch += 1

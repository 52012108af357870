"""Heap files: unordered collections of rows stored in slotted pages."""

from __future__ import annotations

import threading
from typing import Any, Iterator, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import PageFullError, StorageError
from repro.core.types import Row, Schema, TableStatsSnapshot, validate_row
from repro.storage.buffer import BufferPool
from repro.storage.page import MAX_RECORD_SIZE
from repro.storage.rowcodec import RowCodec


class RecordId(NamedTuple):
    """Stable address of a row: (page_id, slot)."""

    page_id: int
    slot: int


class HeapFile:
    """A schema-typed heap of rows over the buffer pool.

    Rows are validated/coerced against the schema on every write, so data on
    pages is always well typed.  Record ids stay stable across in-page
    updates; an update that no longer fits moves the row and returns the new
    :class:`RecordId`.
    """

    def __init__(self, pool: BufferPool, schema: Schema, name: str = "heap"):
        self.pool = pool
        self.schema = schema
        self.name = name
        self.codec = RowCodec(schema)
        self._page_ids: list = []
        self._page_id_set: set = set()
        self._row_count = 0
        self._byte_count = 0
        self._lock = threading.RLock()

    @classmethod
    def attach(
        cls, pool: BufferPool, schema: Schema, name: str, page_ids: Sequence[int]
    ) -> "HeapFile":
        """Reattach to pages already on disk (database reopen).

        Row/byte counts are recomputed with one scan — cheap relative to the
        index rebuilds that follow, and immune to stale metadata.
        """
        heap = cls(pool, schema, name=name)
        heap._page_ids = list(page_ids)
        heap._page_id_set = set(page_ids)
        for __, row in heap.scan():
            heap._row_count += 1
            heap._byte_count += len(heap.codec.encode(row))
        return heap

    # -- writes --------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> RecordId:
        """Validate, encode, and store a row; returns its record id."""
        return self.store(validate_row(self.schema, row))

    def store(self, stored: Row) -> RecordId:
        """Encode and store a row :func:`validate_row` already returned."""
        payload = self.codec.encode(stored)
        if len(payload) > MAX_RECORD_SIZE:
            raise StorageError(
                f"row of {len(payload)} bytes exceeds page capacity {MAX_RECORD_SIZE}"
            )
        with self._lock:
            rid = self._insert_payload(payload)
            self._row_count += 1
            self._byte_count += len(payload)
            return rid

    def _insert_payload(self, payload: bytes) -> RecordId:
        if self._page_ids:
            last_id = self._page_ids[-1]
            page = self.pool.fetch_page(last_id)
            try:
                slot = page.insert(payload)
                return RecordId(last_id, slot)
            except PageFullError:
                # Reclaim tombstoned space before giving up on the page.
                if page.live_bytes() < len(page.data) // 2:
                    page.compact()
                    try:
                        slot = page.insert(payload)
                        return RecordId(last_id, slot)
                    except PageFullError:
                        pass
            finally:
                self.pool.unpin(last_id, dirty=True)
        page = self.pool.new_page()
        try:
            slot = page.insert(payload)
            self._page_ids.append(page.page_id)
            self._page_id_set.add(page.page_id)
            return RecordId(page.page_id, slot)
        finally:
            self.pool.unpin(page.page_id, dirty=True)

    def delete(self, rid: RecordId) -> None:
        """Tombstone a record.  Raises for addresses outside this heap."""
        with self._lock:
            self._check_rid(rid)
            page = self.pool.fetch_page(rid.page_id)
            try:
                existing = page.read(rid.slot)
                if existing is None:
                    raise StorageError(f"record {rid} already deleted")
                page.delete(rid.slot)
                self._row_count -= 1
                self._byte_count -= len(existing)
            finally:
                self.pool.unpin(rid.page_id, dirty=True)

    def update(self, rid: RecordId, row: Sequence[Any]) -> RecordId:
        """Validate and replace a record; returns its (possibly new) record id."""
        return self.replace(rid, validate_row(self.schema, row))

    def replace(self, rid: RecordId, stored: Row) -> RecordId:
        """Replace a record with a row :func:`validate_row` already returned;
        returns its (possibly new) record id."""
        payload = self.codec.encode(stored)
        if len(payload) > MAX_RECORD_SIZE:
            raise StorageError(
                f"row of {len(payload)} bytes exceeds page capacity {MAX_RECORD_SIZE}"
            )
        with self._lock:
            self._check_rid(rid)
            page = self.pool.fetch_page(rid.page_id)
            try:
                existing = page.read(rid.slot)
                if existing is None:
                    raise StorageError(f"record {rid} already deleted")
                if page.update(rid.slot, payload):
                    self._byte_count += len(payload) - len(existing)
                    return rid
                # Doesn't fit here: move the row.
                page.delete(rid.slot)
                self._byte_count -= len(existing)
            finally:
                self.pool.unpin(rid.page_id, dirty=True)
            new_rid = self._insert_payload(payload)
            self._byte_count += len(payload)
            return new_rid

    # -- reads ----------------------------------------------------------------

    def get(self, rid: RecordId) -> Optional[Row]:
        """Fetch one row, or ``None`` if it was deleted."""
        with self._lock:
            self._check_rid(rid)
        page = self.pool.fetch_page(rid.page_id)
        try:
            payload = page.read(rid.slot)
            return self.codec.decode(payload) if payload is not None else None
        finally:
            self.pool.unpin(rid.page_id)

    def scan(self) -> Iterator[Tuple[RecordId, Row]]:
        """Yield every live row with its record id, in storage order."""
        with self._lock:
            page_ids = list(self._page_ids)
        for page_id in page_ids:
            page = self.pool.fetch_page(page_id)
            try:
                records = list(page.records())
            finally:
                self.pool.unpin(page_id)
            for slot, payload in records:
                yield RecordId(page_id, slot), self.codec.decode(payload)

    def scan_rows(self) -> Iterator[Row]:
        """Yield every live row without record ids."""
        for _, row in self.scan():
            yield row

    # -- morsels ---------------------------------------------------------------

    def morsel_source(self, morsel_size: int = 8192) -> "HeapMorselSource":
        """Split the heap into page-chunk morsels of roughly ``morsel_size`` rows.

        Heap morsels are page-aligned: a spec is a list of page ids, sized so
        the expected row count per morsel approximates ``morsel_size`` (from
        the current rows-per-page average).  Reads go through the buffer pool,
        whose internal lock makes concurrent ``fetch_page``/``unpin`` from
        worker threads safe; :class:`repro.storage.rowcodec.RowCodec` is
        stateless, so decoding needs no coordination.
        """
        if morsel_size < 1:
            raise StorageError("morsel_size must be >= 1")
        with self._lock:
            page_ids = list(self._page_ids)
            row_count = self._row_count
        rows_per_page = max(1, row_count // max(1, len(page_ids)))
        pages_per_morsel = max(1, morsel_size // rows_per_page)
        specs = [
            page_ids[start : start + pages_per_morsel]
            for start in range(0, len(page_ids), pages_per_morsel)
        ]
        return HeapMorselSource(self.pool, self.codec, specs)

    # -- stats ------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    def stats_snapshot(self) -> TableStatsSnapshot:
        with self._lock:
            return TableStatsSnapshot(
                row_count=self._row_count,
                byte_count=self._byte_count,
                page_count=len(self._page_ids),
            )

    def page_ids(self) -> list:
        with self._lock:
            return list(self._page_ids)

    # -- internals ---------------------------------------------------------------

    def _check_rid(self, rid: RecordId) -> None:
        if rid.page_id not in self._page_id_set:
            raise StorageError(f"record id {rid} is not in heap {self.name!r}")


class HeapMorselSource:
    """Page-chunk morsels over a snapshot of a :class:`HeapFile`'s page list."""

    __slots__ = ("pool", "codec", "specs")

    def __init__(self, pool: BufferPool, codec: RowCodec, specs):
        self.pool = pool
        self.codec = codec
        self.specs = specs

    def read(self, spec) -> Tuple[list, int]:
        """Decode one page-chunk morsel into column-major lists."""
        decode = self.codec.decode
        rows = []
        for page_id in spec:
            page = self.pool.fetch_page(page_id)
            try:
                records = list(page.records())
            finally:
                self.pool.unpin(page_id)
            rows.extend(decode(payload) for _, payload in records)
        if not rows:
            return [[] for _ in self.codec.schema], 0
        return [list(col) for col in zip(*rows)], len(rows)

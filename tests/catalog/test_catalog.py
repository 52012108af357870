"""Tests for the catalog and table layer (repro.catalog.catalog)."""

import pytest

from repro.catalog.catalog import Catalog
from repro.core.errors import CatalogError, StorageError
from repro.core.types import Column, DataType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager


@pytest.fixture
def catalog():
    return Catalog(BufferPool(InMemoryDiskManager(), capacity=64))


SCHEMA = Schema(
    [
        Column("id", DataType.INTEGER, nullable=False),
        Column("name", DataType.TEXT),
        Column("score", DataType.FLOAT),
    ]
)


class TestTableLifecycle:
    def test_create_get_drop(self, catalog):
        catalog.create_table("t", SCHEMA)
        assert catalog.has_table("t")
        assert catalog.get_table("t").name == "t"
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_names_case_insensitive(self, catalog):
        catalog.create_table("MyTable", SCHEMA)
        assert catalog.has_table("mytable")
        assert catalog.get_table("MYTABLE").name == "MyTable"

    def test_duplicate_rejected(self, catalog):
        catalog.create_table("t", SCHEMA)
        with pytest.raises(CatalogError):
            catalog.create_table("T", SCHEMA)

    def test_drop_missing_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop_table("ghost")

    def test_table_names_sorted(self, catalog):
        for name in ("zeta", "alpha", "mid"):
            catalog.create_table(name, SCHEMA)
        assert catalog.table_names() == ["alpha", "mid", "zeta"]

    def test_schema_qualified_by_table(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        assert table.schema.index_of("t.id") == 0

    def test_bad_layout_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_table("t", SCHEMA, layout="pax")


@pytest.mark.parametrize("layout", ["row", "column"])
class TestTableOps:
    def test_crud_round_trip(self, catalog, layout):
        table = catalog.create_table("t", SCHEMA, layout=layout)
        rid, _ = table.insert((1, "a", 0.5))
        assert table.get(rid) == (1, "a", 0.5)
        new_rid, _ = table.update(rid, (1, "b", 0.9))
        assert table.get(new_rid) == (1, "b", 0.9)
        removed = table.delete(new_rid)
        assert removed == (1, "b", 0.9)
        assert table.row_count == 0

    def test_insert_never_reads_the_row_back(self, layout, monkeypatch):
        from repro.core.database import Database
        from repro.storage.column import ColumnTable
        from repro.storage.heap import HeapFile
        from repro.storage.wal import LogRecordType

        def no_get(self, rid):
            raise AssertionError("insert read its row back")

        db = Database(default_layout=layout)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, name TEXT, score FLOAT)")
        monkeypatch.setattr(HeapFile, "get", no_get)
        monkeypatch.setattr(ColumnTable, "get", no_get)
        __, stored = db.table("t").insert((1, "a", 2))
        assert stored == (1, "a", 2.0)
        db.insert_rows("t", [(2, "b", 3)])
        db.execute("INSERT INTO t VALUES (3, NULL, 4)")
        monkeypatch.undo()
        afters = [r.after for r in db.wal.records() if r.type is LogRecordType.INSERT]
        assert afters == [(2, "b", 3.0), (3, None, 4.0)]
        assert sorted(db.execute("SELECT * FROM t").rows) == [
            (1, "a", 2.0),
            (2, "b", 3.0),
            (3, None, 4.0),
        ]

        # An update reads its row exactly once: the existence check (which
        # also supplies the undo image).  Storage, indexes and the WAL
        # after-image all use the validated tuple.
        db.execute("CREATE INDEX t_name ON t (name)")
        real_gets = {cls: cls.get for cls in (HeapFile, ColumnTable)}
        calls = []

        def counting_get(cls):
            def get(self, rid):
                calls.append(rid)
                return real_gets[cls](self, rid)

            return get

        for cls in real_gets:
            monkeypatch.setattr(cls, "get", counting_get(cls))
        table = db.table("t")
        rid = next(rid for rid, row in table.scan() if row[0] == 1)
        _, stored = table.update(rid, (1, "c", 5))
        assert stored == (1, "c", 5.0)
        assert len(calls) == 1
        calls.clear()
        db.execute("UPDATE t SET score = 7 WHERE id = 2")
        assert len(calls) == 1
        monkeypatch.undo()
        updates = [r.after for r in db.wal.records() if r.type is LogRecordType.UPDATE]
        assert updates == [(2, "b", 7.0)]
        assert sorted(db.execute("SELECT * FROM t").rows) == [
            (1, "c", 5.0),
            (2, "b", 7.0),
            (3, None, 4.0),
        ]
        assert db.execute("SELECT id FROM t WHERE name = 'c'").rows == [(1,)]

    def test_delete_missing_rid(self, catalog, layout):
        table = catalog.create_table("t", SCHEMA, layout=layout)
        rid, _ = table.insert((1, "a", 0.5))
        table.delete(rid)
        with pytest.raises(StorageError):
            table.delete(rid)

    def test_scan_order(self, catalog, layout):
        table = catalog.create_table("t", SCHEMA, layout=layout)
        table.insert_many([(i, f"r{i}", float(i)) for i in range(5)])
        assert [row[0] for row in table.scan_rows()] == [0, 1, 2, 3, 4]


class TestIndexMaintenance:
    def test_backfill_on_create(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        rids = table.insert_many([(i, f"r{i}", float(i)) for i in range(10)])
        info = catalog.create_index("idx", "t", "id")
        assert info.structure.search(3) == [rids[3]]

    def test_insert_updates_index(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        info = catalog.create_index("idx", "t", "id")
        rid, _ = table.insert((42, "x", 1.0))
        assert info.structure.search(42) == [rid]

    def test_delete_updates_index(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        info = catalog.create_index("idx", "t", "id")
        rid, _ = table.insert((42, "x", 1.0))
        table.delete(rid)
        assert info.structure.search(42) == []

    def test_update_moves_index_entry(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        info = catalog.create_index("idx", "t", "id")
        rid, _ = table.insert((1, "x", 1.0))
        new_rid, _ = table.update(rid, (2, "x", 1.0))
        assert info.structure.search(1) == []
        assert info.structure.search(2) == [new_rid]

    def test_null_keys_skipped_everywhere(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        info = catalog.create_index("idx", "t", "score")
        rid, _ = table.insert((1, "x", None))
        assert len(info.structure) == 0
        table.update(rid, (1, "x", 2.0))
        assert info.structure.search(2.0) == [rid]
        table.update(rid, (1, "x", None))
        assert len(info.structure) == 0

    def test_duplicate_index_name_rejected(self, catalog):
        catalog.create_table("t", SCHEMA)
        catalog.create_index("idx", "t", "id")
        with pytest.raises(CatalogError):
            catalog.create_index("idx", "t", "name")

    def test_unknown_kind_rejected(self, catalog):
        catalog.create_table("t", SCHEMA)
        with pytest.raises(CatalogError):
            catalog.create_index("idx", "t", "id", kind="bitmap")

    def test_hash_index_kind(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        info = catalog.create_index("idx", "t", "name", kind="hash")
        rid, _ = table.insert((1, "bob", 1.0))
        assert info.structure.search("bob") == [rid]
        assert not info.supports_range()

    def test_drop_index(self, catalog):
        catalog.create_table("t", SCHEMA)
        catalog.create_index("idx", "t", "id")
        catalog.drop_index("idx")
        assert catalog.get_table("t").index_on("id") is None
        with pytest.raises(CatalogError):
            catalog.drop_index("idx")

    def test_index_on_filters_by_kind(self, catalog):
        table = catalog.create_table("t", SCHEMA)
        catalog.create_index("h", "t", "id", kind="hash")
        assert table.index_on("id") is not None
        assert table.index_on("id", kind_filter="btree") is None


class TestAnalyze:
    def test_analyze_single_and_all(self, catalog):
        t1 = catalog.create_table("t1", SCHEMA)
        t2 = catalog.create_table("t2", SCHEMA)
        t1.insert((1, "a", 1.0))
        catalog.analyze("t1")
        assert t1.stats is not None and t2.stats is None
        catalog.analyze()
        assert t2.stats is not None
        assert t1.stats.row_count == 1

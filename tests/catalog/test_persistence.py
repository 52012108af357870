"""Tests for catalog persistence (reopenable file-backed databases)."""

import os

import pytest

from repro.catalog.persistence import load_catalog, metadata_path, save_catalog
from repro.core.database import Database
from repro.core.errors import CatalogError
from repro.core.types import Column, DataType, Schema


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "data.db")


def _make(db_path, rows=200):
    db = Database(path=db_path)
    db.execute(
        "CREATE TABLE items (id INTEGER NOT NULL, name TEXT, price FLOAT, "
        "emb VECTOR(2))"
    )
    db.insert_rows(
        "items", [(i, f"item{i}", i * 1.5, [float(i), 0.0]) for i in range(rows)]
    )
    db.execute("CREATE INDEX idx_items_id ON items (id)")
    db.execute("CREATE INDEX idx_items_name ON items (name) USING hash")
    return db


class TestReopenCycle:
    def test_rows_survive_reopen(self, db_path):
        _make(db_path).close()
        db = Database(path=db_path)
        assert db.catalog.table_names() == ["items"]
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 200
        assert db.execute("SELECT name FROM items WHERE id = 42").scalar() == "item42"
        db.close()

    def test_schema_types_survive(self, db_path):
        _make(db_path).close()
        db = Database(path=db_path)
        schema = db.table("items").schema
        assert schema.column("id").nullable is False
        assert schema.column("emb").vector_width == 2
        assert db.execute("SELECT emb FROM items WHERE id = 3").scalar() == (3.0, 0.0)
        db.close()

    def test_indexes_rebuilt_and_used(self, db_path):
        _make(db_path).close()
        db = Database(path=db_path)
        db.analyze()
        assert "IndexScan" in db.explain("SELECT name FROM items WHERE id = 7")
        info = db.table("items").index_on("name", kind_filter="hash")
        assert info is not None
        db.close()

    def test_writes_after_reopen_persist(self, db_path):
        _make(db_path, rows=50).close()
        db = Database(path=db_path)
        db.execute("INSERT INTO items VALUES (500, 'late', 1.0, [0.0, 0.0])")
        db.execute("DELETE FROM items WHERE id = 0")
        db.execute("UPDATE items SET price = 99.0 WHERE id = 1")
        db.close()
        final = Database(path=db_path)
        assert final.execute("SELECT COUNT(*) FROM items").scalar() == 50
        assert final.execute("SELECT price FROM items WHERE id = 1").scalar() == 99.0
        assert final.execute("SELECT COUNT(*) FROM items WHERE id = 0").scalar() == 0
        final.close()

    def test_multiple_tables(self, db_path):
        db = Database(path=db_path)
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y TEXT)")
        db.execute("INSERT INTO a VALUES (1)")
        db.execute("INSERT INTO b VALUES ('hello')")
        db.close()
        reopened = Database(path=db_path)
        assert reopened.catalog.table_names() == ["a", "b"]
        assert reopened.execute("SELECT y FROM b").scalar() == "hello"
        reopened.close()

    def test_memory_database_ignores_persistence(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.close()  # must not try to write any sidecar


class TestMetadataFile:
    def test_sidecar_created_on_close(self, db_path):
        _make(db_path).close()
        assert os.path.exists(metadata_path(db_path))

    def test_missing_sidecar_triggers_wal_recovery(self, db_path):
        # A data file without a metadata sidecar is a crash signature: the
        # WAL next to it is the source of truth and recovery rebuilds from
        # it (this used to silently present a fresh, empty database).
        db = Database(path=db_path)
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (7)")
        db.pool.flush_all()
        db.disk.close()  # "crash": no close(), no sidecar
        db.wal.close()
        recovered = Database(path=db_path)
        assert recovered.recovery_stats == {"t": 1}
        assert recovered.execute("SELECT a FROM t").scalar() == 7
        recovered.close()

    def test_no_files_at_all_is_fresh_database(self, db_path):
        # Nothing on disk (no data file, no sidecar, no WAL): fresh start.
        fresh = Database(path=db_path)
        assert fresh.catalog.table_names() == []
        assert fresh.recovery_stats is None
        fresh.close()

    def test_version_mismatch_rejected(self, db_path):
        _make(db_path).close()
        import json

        meta = metadata_path(db_path)
        payload = json.load(open(meta))
        payload["version"] = 999
        json.dump(payload, open(meta, "w"))
        with pytest.raises(CatalogError, match="version"):
            Database(path=db_path)

    def test_column_layout_rejected_loudly(self, db_path):
        db = Database(path=db_path, default_layout="column")
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError, match="column layout"):
            db.close()

    def test_failed_close_still_releases_handles(self, db_path):
        db = Database(path=db_path)
        db.execute("CREATE TABLE r (a INTEGER)")
        db.create_table("c", Schema([Column("x", DataType.INTEGER)]), layout="column")
        with pytest.raises(CatalogError, match="column layout"):
            db.close()
        assert db.closed
        assert db.wal._file.closed
        assert db.disk._file.closed
        db.close()  # a second close is a no-op, not a second error

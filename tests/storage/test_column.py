"""Tests for columnar storage (repro.storage.column)."""

import random

import numpy as np
import pytest

from repro.core.errors import IntegrityError, StorageError
from repro.core.types import Column, DataType, Schema
from repro.storage.column import ColumnTable


def make_table():
    schema = Schema(
        [
            Column("id", DataType.INTEGER, nullable=False),
            Column("name", DataType.TEXT),
            Column("score", DataType.FLOAT),
        ]
    )
    return ColumnTable(schema, name="ct")


class TestAppendGet:
    def test_append_returns_indexes(self):
        table = make_table()
        assert table.append((1, "a", 0.5)) == 0
        assert table.append((2, "b", 1.5)) == 1
        assert table.row_count == 2

    def test_get(self):
        table = make_table()
        table.append((1, "a", 0.5))
        assert table.get(0) == (1, "a", 0.5)

    def test_validation(self):
        table = make_table()
        with pytest.raises(IntegrityError):
            table.append((None, "x", 1.0))

    def test_out_of_range(self):
        with pytest.raises(StorageError, match="out of range"):
            make_table().get(0)


class TestDeleteUpdate:
    def test_delete_hides_row(self):
        table = make_table()
        table.append_many([(1, "a", 0.1), (2, "b", 0.2)])
        table.delete(0)
        assert table.get(0) is None
        assert table.row_count == 1
        assert list(table.scan_rows()) == [(2, "b", 0.2)]

    def test_double_delete_rejected(self):
        table = make_table()
        table.append((1, "a", 0.1))
        table.delete(0)
        with pytest.raises(StorageError, match="already deleted"):
            table.delete(0)

    def test_update_in_place(self):
        table = make_table()
        table.append((1, "a", 0.1))
        table.update(0, (9, "z", 9.9))
        assert table.get(0) == (9, "z", 9.9)

    def test_update_deleted_rejected(self):
        table = make_table()
        table.append((1, "a", 0.1))
        table.delete(0)
        with pytest.raises(StorageError, match="deleted"):
            table.update(0, (2, "b", 0.2))


class TestColumnAccess:
    def test_column_values_skip_deleted(self):
        table = make_table()
        table.append_many([(i, str(i), float(i)) for i in range(5)])
        table.delete(2)
        assert table.column_values("id") == [0, 1, 3, 4]

    def test_column_array_numeric(self):
        table = make_table()
        table.append_many([(i, "x", i * 0.5) for i in range(4)])
        arr = table.column_array("score")
        assert isinstance(arr, np.ndarray)
        assert arr.tolist() == [0.0, 0.5, 1.0, 1.5]

    def test_column_array_rejects_text(self):
        table = make_table()
        table.append((1, "x", 1.0))
        with pytest.raises(StorageError, match="not numeric"):
            table.column_array("name")

    def test_array_cache_invalidated_on_write(self):
        table = make_table()
        table.append((1, "x", 1.0))
        first = table.column_array("score")
        table.append((2, "y", 2.0))
        second = table.column_array("score")
        assert second.tolist() == [1.0, 2.0]
        assert len(first) == 1  # old snapshot unchanged


class TestBatches:
    def test_batches_are_column_major(self):
        table = make_table()
        table.append_many([(i, f"n{i}", float(i)) for i in range(10)])
        batches = list(table.batches(batch_size=4))
        assert [len(idx) for idx, _ in batches] == [4, 4, 2]
        indexes, columns = batches[0]
        assert indexes == [0, 1, 2, 3]
        assert columns[0] == [0, 1, 2, 3]
        assert columns[1] == ["n0", "n1", "n2", "n3"]

    def test_batches_skip_deleted(self):
        table = make_table()
        table.append_many([(i, "x", 0.0) for i in range(6)])
        table.delete(1)
        table.delete(4)
        indexes = [i for idx, _ in table.batches(3) for i in idx]
        assert indexes == [0, 2, 3, 5]

    def test_bad_batch_size(self):
        with pytest.raises(StorageError):
            list(make_table().batches(0))

    def test_stats_snapshot_counts_bytes(self):
        table = make_table()
        table.append_many([(1, "abc", 2.0), (2, None, None)])
        snap = table.stats_snapshot()
        assert snap.row_count == 2
        assert snap.byte_count > 0


def _walk_bytes(table):
    """The original full-table recount the byte counter replaced."""
    total = 0
    for row in table.scan_rows():
        for value, spec in zip(row, table.schema):
            if value is None:
                continue
            if spec.dtype is DataType.TEXT:
                total += 5 + len(value)
            elif spec.dtype is DataType.VECTOR:
                total += 5 + 8 * len(value)
            else:
                total += 9
    return total


def _mixed_table():
    return ColumnTable(
        Schema(
            [
                Column("id", DataType.INTEGER, nullable=False),
                Column("name", DataType.TEXT),
                Column("score", DataType.FLOAT),
                Column("flag", DataType.BOOLEAN),
                Column("emb", DataType.VECTOR),
            ]
        ),
        name="mixed",
    )


def _random_row(rng, key):
    def maybe(value):
        return None if rng.random() < 0.3 else value

    return (
        key,
        maybe("x" * rng.randrange(0, 12)),
        maybe(rng.uniform(-5, 5)),
        maybe(rng.random() < 0.5),
        maybe([rng.random() for _ in range(rng.randrange(0, 5))]),
    )


class TestIncrementalStats:
    @pytest.mark.parametrize("seed", range(8))
    def test_counters_match_full_recount(self, seed):
        rng = random.Random(seed)
        table = _mixed_table()
        live, updated = [], set()
        seen = {"update_to_null": 0, "re_update": 0, "delete_after_update": 0}
        for step in range(300):
            op = rng.random()
            if op < 0.45 or not live:
                live.append(table.append(_random_row(rng, step)))
            elif op < 0.8:
                index = rng.choice(live)
                row = _random_row(rng, step)
                if rng.random() < 0.3:
                    row = (step, None, None, None, None)
                    seen["update_to_null"] += 1
                if index in updated:
                    seen["re_update"] += 1
                table.update(index, row)
                updated.add(index)
            else:
                index = live.pop(rng.randrange(len(live)))
                if index in updated:
                    seen["delete_after_update"] += 1
                table.delete(index)
            snap = table.stats_snapshot()
            assert snap.byte_count == _walk_bytes(table)
            assert snap.row_count == len(live) == table.row_count
            assert snap.page_count == max(1, snap.byte_count // 8192 + 1)
        assert all(seen.values()), seen

    def test_snapshot_does_no_per_row_work(self, monkeypatch):
        from repro.core.database import Database

        calls, snapshots = [], []
        real_bytes, real_snapshot = ColumnTable._row_bytes, ColumnTable.stats_snapshot
        monkeypatch.setattr(
            ColumnTable, "_row_bytes", lambda self, row: calls.append(1) or real_bytes(self, row)
        )
        monkeypatch.setattr(
            ColumnTable,
            "stats_snapshot",
            lambda self: snapshots.append(1) or real_snapshot(self),
        )
        db = Database(default_layout="column", engine="vectorized")
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        db.insert_rows("t", [(i, i % 7) for i in range(500)])
        db.execute("CREATE INDEX t_id ON t (id)")
        writes = len(calls)
        assert writes == 500
        table = db.table("t").column_table
        for _ in range(20):
            table.stats_snapshot()
        for i in range(20):
            db.execute(f"SELECT v FROM t WHERE id = {i} AND v < {i}")
        assert len(snapshots) >= 40  # every planned filter costed the index
        assert len(calls) == writes


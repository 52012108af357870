"""Unit tests for the morsel layer: storage sources, planner gating,
ordered gather, aggregate/join edge cases, plan-cache segregation,
invariant checks, and env-based worker resolution."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.analyze.invariants import check_physical_invariants
from repro.catalog.catalog import TableInfo
from repro.core.database import Database
from repro.core.errors import ReproError
from repro.core.types import Column, DataType, Schema
from repro.exec import physical as phys
from repro.optimizer.optimizer import OptimizerOptions
from repro.plan.expressions import BoundBinary, BoundColumn, BoundLiteral
from repro.storage.buffer import BufferPool
from repro.storage.column import ColumnTable
from repro.storage.disk import InMemoryDiskManager
from repro.storage.heap import HeapFile


def two_col_schema():
    return Schema([Column("id", DataType.INTEGER), Column("v", DataType.FLOAT)])


def parallel_db(workers=2, morsel_size=64, layout="column", engine="vectorized"):
    return Database(
        engine=engine,
        default_layout=layout,
        # Explicit argument: pins the count even when the suite runs under
        # the REPRO_PARALLEL/REPRO_WORKERS CI leg.
        workers=workers,
        optimizer_options=OptimizerOptions(
            parallel_min_rows=1, morsel_size=morsel_size
        ),
    )


def read_all(source):
    """Concatenate every morsel of a source, row-major."""
    rows = []
    for spec in source.specs:
        columns, n = source.read(spec)
        for i in range(n):
            rows.append(tuple(col[i] for col in columns))
    return rows


# -- storage sources -------------------------------------------------------


class TestColumnMorselSource:
    def _table(self, n):
        table = ColumnTable(two_col_schema(), name="t")
        for i in range(n):
            table.append((i, float(i)))
        return table

    @pytest.mark.parametrize("morsel_size", [1, 2, 7, 100, 101, 4096])
    def test_boundary_sizes_cover_all_rows(self, morsel_size):
        table = self._table(101)
        source = table.morsel_source(morsel_size)
        assert read_all(source) == [(i, float(i)) for i in range(101)]
        spans = [end - start for start, end in source.specs]
        assert sum(spans) == 101
        assert all(0 < span <= morsel_size for span in spans)

    def test_zero_copy_fast_path_when_clean(self):
        table = self._table(50)
        source = table.morsel_source(16)
        assert source.live is None
        assert all(isinstance(a, np.ndarray) for a in source.arrays)
        columns, n = source.read(source.specs[0])
        assert n == 16
        assert isinstance(columns[0], np.ndarray)
        assert columns[0].base is source.arrays[0]  # a view, not a copy

    def test_deletions_take_the_live_index_path(self):
        table = self._table(20)
        for idx in (0, 5, 19):
            table.delete(idx)
        source = table.morsel_source(8)
        assert source.live is not None
        expected = [(i, float(i)) for i in range(20) if i not in (0, 5, 19)]
        assert read_all(source) == expected

    def test_nulls_disable_clean_arrays_but_not_scanning(self):
        table = ColumnTable(two_col_schema(), name="nulls")
        table.append((1, None))
        table.append((2, 2.0))
        assert table.clean_array(0) is not None
        assert table.clean_array(1) is None
        source = table.morsel_source(10)
        assert source.arrays[1] is None
        assert read_all(source) == [(1, None), (2, 2.0)]

    def test_snapshot_isolated_from_later_writes(self):
        table = self._table(10)
        source = table.morsel_source(4)
        table.append((99, 99.0))
        assert len(read_all(source)) == 10

    def test_empty_table(self):
        table = ColumnTable(two_col_schema(), name="empty")
        source = table.morsel_source(8)
        assert source.specs == []


class TestHeapMorselSource:
    def _heap(self, n):
        pool = BufferPool(InMemoryDiskManager(), capacity=64)
        heap = HeapFile(pool, two_col_schema(), name="h")
        for i in range(n):
            heap.insert((i, float(i)))
        return heap

    @pytest.mark.parametrize("morsel_size", [1, 50, 500, 10_000])
    def test_page_chunks_cover_all_rows(self, morsel_size):
        heap = self._heap(500)
        source = heap.morsel_source(morsel_size)
        assert sorted(read_all(source)) == [(i, float(i)) for i in range(500)]

    def test_empty_morsel_keeps_schema_width(self):
        heap = self._heap(0)
        source = heap.morsel_source(100)
        for spec in source.specs:
            columns, n = source.read(spec)
            assert n == 0
            assert len(columns) == 2


class TestTableInfoDispatch:
    @pytest.mark.parametrize("layout", ["row", "column"])
    def test_morsels_dispatches_by_layout(self, layout):
        pool = BufferPool(InMemoryDiskManager(), capacity=64)
        info = TableInfo("t", two_col_schema(), pool, layout=layout)
        for i in range(30):
            info.insert((i, float(i)))
        source = info.morsels(morsel_size=10)
        assert sorted(read_all(source)) == [(i, float(i)) for i in range(30)]


# -- planner gating --------------------------------------------------------


class TestParallelizePass:
    def _db(self, **kw):
        db = parallel_db(**kw)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL, v FLOAT)")
        db.insert_rows("t", [(i, float(i)) for i in range(300)])
        return db

    def test_scan_chain_parallelized(self):
        db = self._db()
        plan = db.explain("SELECT v FROM t WHERE id > 10")
        assert "ParallelScan" in plan

    def test_small_tables_stay_serial(self):
        db = parallel_db()
        db.optimizer_options = OptimizerOptions(workers=2, parallel_min_rows=2048)
        db.execute("CREATE TABLE small (id INTEGER)")
        db.insert_rows("small", [(i,) for i in range(10)])
        plan = db.explain("SELECT id FROM small WHERE id > 1")
        assert "ParallelScan" not in plan
        assert "SeqScan" in plan

    def test_workers_zero_is_fully_serial(self):
        db = self._db(workers=0)
        plan = db.explain("SELECT v FROM t WHERE id > 10")
        assert "ParallelScan" not in plan

    def test_index_scans_stay_serial(self):
        db = self._db()
        db.execute("CREATE INDEX idx_id ON t (id)")
        db.analyze()
        plan = db.explain("SELECT v FROM t WHERE id = 5")
        assert "IndexScan" in plan
        assert "ParallelScan" not in plan

    def test_eligible_aggregate_goes_two_phase(self):
        db = self._db()
        plan = db.explain("SELECT COUNT(*), SUM(v) FROM t WHERE id > 10")
        assert "TwoPhaseAggregate" in plan

    def test_join_goes_partitioned(self):
        db = self._db()
        db.execute("CREATE TABLE u (id INTEGER NOT NULL, w FLOAT)")
        db.insert_rows("u", [(i, float(i * 2)) for i in range(300)])
        plan = db.explain("SELECT t.v, u.w FROM t JOIN u ON t.id = u.id")
        assert "PartitionedHashJoin" in plan


# -- ordered gather --------------------------------------------------------


class TestOrderedGather:
    @pytest.mark.parametrize("engine", ["volcano", "vectorized"])
    def test_unordered_select_preserves_serial_row_order(self, engine):
        serial = Database(engine=engine, default_layout="column")
        par = parallel_db(workers=4, morsel_size=16, engine=engine)
        for db in (serial, par):
            db.execute("CREATE TABLE seq (id INTEGER NOT NULL, tag TEXT)")
            db.insert_rows("seq", [(i, f"tag-{i % 13}") for i in range(1000)])
        sql = "SELECT id, tag FROM seq WHERE id % 3 = 0"  # no ORDER BY
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_workers_one_runs_inline_with_same_results(self):
        db = parallel_db(workers=1, morsel_size=32)
        db.execute("CREATE TABLE t (id INTEGER NOT NULL)")
        db.insert_rows("t", [(i,) for i in range(200)])
        assert "ParallelScan" in db.explain("SELECT id FROM t WHERE id < 50")
        rows = db.execute("SELECT id FROM t WHERE id < 50").rows
        assert rows == [(i,) for i in range(50)]


# -- aggregate edge cases --------------------------------------------------


class TestTwoPhaseAggregateEdges:
    def _db(self):
        db = parallel_db(workers=2, morsel_size=8)
        db.execute("CREATE TABLE m (k TEXT, v INTEGER, f FLOAT)")
        return db

    def test_nulls_follow_sql_semantics(self):
        db = self._db()
        db.insert_rows(
            "m",
            [("a", 1, None), ("a", None, 2.5), ("b", None, None), ("a", 3, 0.5)],
        )
        rows = db.execute(
            "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(f), MIN(v), MAX(f) "
            "FROM m GROUP BY k"
        ).rows
        assert rows == [
            ("a", 3, 2, 4, 1.5, 1, 2.5),
            ("b", 1, 0, None, None, None, None),
        ]

    def test_empty_input_global_aggregate(self):
        db = self._db()
        rows = db.execute("SELECT COUNT(*), SUM(v), MIN(v), AVG(f) FROM m").rows
        assert rows == [(0, None, None, None)]

    def test_distinct_merges_across_morsels(self):
        db = self._db()
        db.insert_rows("m", [("g", i % 5, float(i % 3)) for i in range(100)])
        rows = db.execute(
            "SELECT COUNT(DISTINCT v), SUM(DISTINCT v) FROM m"
        ).rows
        assert rows == [(5, 10)]

    def test_text_group_keys(self):
        db = self._db()
        db.insert_rows("m", [(f"k{i % 4}", i, float(i)) for i in range(64)])
        rows = db.execute("SELECT k, COUNT(*) FROM m GROUP BY k").rows
        # First-seen order, like the serial aggregate.
        assert rows == [("k0", 16), ("k1", 16), ("k2", 16), ("k3", 16)]

    def test_int_sum_beyond_float53_stays_exact(self):
        db = parallel_db(workers=2, morsel_size=64)
        db.execute("CREATE TABLE big (v INTEGER NOT NULL)")
        huge = (1 << 53) + 1  # would round under a float64 accumulator
        db.insert_rows("big", [(huge,), (1,)] * 100)
        rows = db.execute("SELECT SUM(v) FROM big").rows
        assert rows == [((huge + 1) * 100,)]

    def test_large_integers_match_serial(self):
        """Grouped MIN/MAX near 2^53 and SUMs past 2^63 must not go through
        float64 identities or wrapping int64 reductions."""
        near53 = [(i % 3, (1 << 53) + 1 + i % 5) for i in range(300)]
        near62 = [(3, (1 << 62) + i) for i in range(10)]
        queries = [
            "SELECT g, MIN(v), MAX(v) FROM big GROUP BY g ORDER BY g",
            "SELECT MIN(v), MAX(v) FROM big",
            "SELECT SUM(v), AVG(v) FROM big",
            "SELECT g, SUM(v) FROM big GROUP BY g ORDER BY g",
        ]
        results = {}
        for workers in (0, 2):
            db = parallel_db(workers=workers, morsel_size=64)
            db.execute("CREATE TABLE big (g INTEGER NOT NULL, v INTEGER NOT NULL)")
            db.insert_rows("big", near53 + near62)
            results[workers] = [db.execute(q).rows for q in queries]
        assert results[2] == results[0]
        assert results[0][0][0] == (0, (1 << 53) + 1, (1 << 53) + 5)
        assert results[0][2][0][0] == sum(v for _, v in near53 + near62)


# -- join edge cases -------------------------------------------------------


class TestPartitionedJoinEdges:
    def _dbs(self):
        serial = Database(engine="vectorized", default_layout="column")
        par = parallel_db(workers=2, morsel_size=8)
        for db in (serial, par):
            db.execute("CREATE TABLE l (id INTEGER, v INTEGER)")
            db.execute("CREATE TABLE r (id INTEGER, w INTEGER)")
            db.insert_rows(
                "l", [(i if i % 7 else None, i) for i in range(60)]
            )
            db.insert_rows("r", [(i, i * 10) for i in range(0, 60, 2)])
        return serial, par

    def test_left_outer_with_null_keys(self):
        serial, par = self._dbs()
        sql = "SELECT l.v, r.w FROM l LEFT JOIN r ON l.id = r.id"
        assert "PartitionedHashJoin" in par.explain(sql)
        assert par.execute(sql).rows == serial.execute(sql).rows

    def test_inner_with_residual_condition(self):
        serial, par = self._dbs()
        sql = "SELECT l.v, r.w FROM l JOIN r ON l.id = r.id AND l.v + r.w > 100"
        assert par.execute(sql).rows == serial.execute(sql).rows


# -- plan cache segregation ------------------------------------------------


class TestPlanCacheSegregation:
    def test_worker_options_change_the_cache_key(self):
        serial = OptimizerOptions()
        par = OptimizerOptions(workers=2)
        assert astuple(serial) != astuple(par)
        small_morsels = OptimizerOptions(workers=2, morsel_size=64)
        assert astuple(par) != astuple(small_morsels)

    def test_databases_with_different_workers_use_distinct_keys(self):
        assert (
            parallel_db(workers=2)._options_key()
            != Database(engine="vectorized")._options_key()
        )


# -- invariants ------------------------------------------------------------


class TestParallelInvariants:
    def _scan(self, **overrides):
        schema = two_col_schema()
        fields = dict(
            table="t",
            alias="t",
            base_schema=schema,
            predicate=None,
            exprs=None,
            schema=schema,
            workers=2,
            morsel_size=64,
            cardinality=10.0,
        )
        fields.update(overrides)
        return phys.PParallelScan(**fields)

    def test_valid_parallel_scan_passes(self):
        assert check_physical_invariants(self._scan()) == []

    def test_out_of_bounds_predicate_column_flagged(self):
        bad = BoundBinary(
            ">",
            BoundColumn(9, DataType.INTEGER, "ghost"),
            BoundLiteral(1, DataType.INTEGER),
            DataType.BOOLEAN,
        )
        findings = check_physical_invariants(self._scan(predicate=bad))
        assert any("column" in f.message for f in findings)

    def test_projection_arity_mismatch_flagged(self):
        findings = check_physical_invariants(
            self._scan(
                exprs=(BoundColumn(0, DataType.INTEGER, "id"),),
                # schema still two wide: arity mismatch
            )
        )
        assert findings

    def test_zero_workers_flagged(self):
        findings = check_physical_invariants(self._scan(workers=0))
        assert findings

    def test_join_key_bounds_checked(self):
        scan = self._scan()
        join = phys.PPartitionedHashJoin(
            left=scan,
            right=self._scan(),
            kind="inner",
            left_keys=(BoundColumn(5, DataType.INTEGER, "bad"),),
            right_keys=(BoundColumn(0, DataType.INTEGER, "id"),),
            residual=None,
            schema=Schema(list(scan.schema.columns) * 2),
            workers=2,
        )
        findings = check_physical_invariants(join)
        assert any("key" in f.message or "column" in f.message for f in findings)


# -- env resolution --------------------------------------------------------


class TestWorkerEnvResolution:
    def test_repro_workers_pins_exact_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        db = Database(engine="vectorized")
        assert db.optimizer_options.workers == 3

    def test_repro_parallel_defaults_to_at_least_two(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        db = Database(engine="vectorized")
        assert db.optimizer_options.workers >= 2

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        db = Database(engine="vectorized", workers=0)
        assert db.optimizer_options.workers == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(ReproError):
            Database(engine="vectorized", workers=-1)

    def test_env_off_leaves_options_alone(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        db = Database(engine="vectorized")
        assert db.optimizer_options.workers == 0

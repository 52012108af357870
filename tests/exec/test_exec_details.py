"""Detailed executor tests: sort semantics, accumulators, batch evaluation."""

import pytest

from repro.core.types import Column, DataType, Schema
from repro.exec.compile import _Accumulator
from repro.exec.vector_eval import eval_batch
from repro.exec.volcano import SortComparable, sort_rows
from repro.plan.binder import Binder
from repro.plan.expressions import AggSpec, BoundColumn, BoundLiteral
from repro.sql.parser import parse_expression


def _bind(text, schema):
    from repro.catalog.catalog import Catalog
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import InMemoryDiskManager

    catalog = Catalog(BufferPool(InMemoryDiskManager()))
    return Binder(catalog).bind_expr(parse_expression(text), schema)


SCHEMA = Schema(
    [
        Column("a", DataType.INTEGER),
        Column("b", DataType.FLOAT),
        Column("c", DataType.TEXT),
    ]
)


class TestSortComparable:
    def test_single_key_asc(self):
        a = SortComparable([1], [True])
        b = SortComparable([2], [True])
        assert a < b and not b < a

    def test_single_key_desc(self):
        a = SortComparable([1], [False])
        b = SortComparable([2], [False])
        assert b < a

    def test_nulls_last_asc(self):
        null = SortComparable([None], [True])
        val = SortComparable([5], [True])
        assert val < null and not null < val

    def test_nulls_first_desc(self):
        null = SortComparable([None], [False])
        val = SortComparable([5], [False])
        assert null < val

    def test_both_null_fall_through_to_next_key(self):
        a = SortComparable([None, 1], [True, True])
        b = SortComparable([None, 2], [True, True])
        assert a < b

    def test_mixed_direction_keys(self):
        a = SortComparable(["x", 1], [True, False])
        b = SortComparable(["x", 2], [True, False])
        assert b < a  # tie on key1, DESC on key2

    def test_equality(self):
        assert SortComparable([1, "a"], [True, True]) == SortComparable([1, "a"], [True, True])


class TestSortRows:
    KEY = BoundColumn(0, DataType.INTEGER, "k")

    def test_limit_uses_heap_and_matches_full_sort(self):
        rows = [(i * 37 % 101,) for i in range(101)]
        full = sort_rows(rows, [(self.KEY, True)])
        top = sort_rows(rows, [(self.KEY, True)], limit=10)
        assert top == full[:10]

    def test_sort_is_stable(self):
        rows = [(1, "first"), (0, "x"), (1, "second")]
        ordered = sort_rows(rows, [(self.KEY, True)])
        assert ordered == [(0, "x"), (1, "first"), (1, "second")]

    def test_limit_larger_than_input(self):
        rows = [(3,), (1,), (2,)]
        assert sort_rows(rows, [(self.KEY, True)], limit=100) == [(1,), (2,), (3,)]


class TestAccumulators:
    def _feed(self, spec, values):
        acc = _Accumulator(spec)
        for v in values:
            acc.add((v,))
        return acc.result()

    def arg(self):
        return BoundColumn(0, DataType.INTEGER, "x")

    def test_count_star_counts_nulls(self):
        acc = _Accumulator(AggSpec("COUNT", None))
        for v in [1, None, 2]:
            acc.add((v,))
        assert acc.result() == 3

    def test_count_column_skips_nulls(self):
        assert self._feed(AggSpec("COUNT", self.arg()), [1, None, 2]) == 2

    def test_sum_of_nothing_is_null(self):
        assert self._feed(AggSpec("SUM", self.arg()), [None, None]) is None

    def test_avg(self):
        assert self._feed(AggSpec("AVG", self.arg()), [1, 2, None, 3]) == 2.0

    def test_min_max(self):
        assert self._feed(AggSpec("MIN", self.arg()), [5, None, 2]) == 2
        assert self._feed(AggSpec("MAX", self.arg()), [5, None, 2]) == 5

    def test_distinct_sum(self):
        assert self._feed(AggSpec("SUM", self.arg(), distinct=True), [3, 3, 4]) == 7

    def test_distinct_count(self):
        assert self._feed(AggSpec("COUNT", self.arg(), distinct=True), [3, 3, 4, None]) == 2

    VALUES = [5, None, 3, 5, -2, None, 7, 3, 11, -2, 0, 5]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "values", [VALUES, [None, None], []], ids=["mixed", "all-null", "empty"]
    )
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("func", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
    def test_chunked_merge_equals_single_pass(self, func, distinct, values, k):
        spec = AggSpec(func, self.arg(), distinct=distinct)
        assert self._merged(spec, values, k) == self._feed(spec, values)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("values", [VALUES, []], ids=["mixed", "empty"])
    def test_count_star_chunked_merge(self, values, k):
        spec = AggSpec("COUNT", None)
        assert self._merged(spec, values, k) == self._feed(spec, values)

    @pytest.mark.parametrize("func", ["SUM", "AVG", "MIN", "MAX"])
    def test_distinct_floats_merge_bit_identical(self, func):
        import random

        rng = random.Random(3)
        values = [rng.random() * 10.0 ** rng.randint(-9, 17) for _ in range(300)]
        values += values[::7]  # duplicates that straddle chunks
        spec = AggSpec(func, BoundColumn(0, DataType.FLOAT, "v"), distinct=True)
        assert self._merged(spec, values, 4) == self._feed(spec, values)

    def _merged(self, spec, values, k):
        """Accumulate ``k`` ordered chunks separately, then merge them in order."""
        merged = None
        for c in range(k):
            acc = _Accumulator(spec)
            for v in values[c * len(values) // k : (c + 1) * len(values) // k]:
                if spec.arg is None:
                    acc.add((v,))
                else:
                    acc.add_value(v)
            if merged is None:
                merged = acc
            else:
                merged.merge(acc)
        return merged.result()


class TestBatchEvaluation:
    def batch(self):
        # Columns: a INTEGER, b FLOAT, c TEXT
        return [[1, 2, None, 4], [0.5, None, 1.5, 2.0], ["x", "yy", "x", None]], 4

    def test_numeric_fast_path_matches_rowwise(self):
        batch, n = [[1, 2, 3, 4], [10.0, 20.0, 30.0, 40.0], ["a"] * 4], 4
        expr = _bind("a * 2 + b", SCHEMA)
        got = eval_batch(expr, batch, n)
        expected = [expr.eval((batch[0][i], batch[1][i], batch[2][i])) for i in range(n)]
        assert got == expected

    def test_null_propagation_general_path(self):
        batch, n = self.batch()
        expr = _bind("a + b", SCHEMA)
        got = eval_batch(expr, batch, n)
        assert got == [1.5, None, None, 6.0]

    def test_comparison_three_valued(self):
        batch, n = self.batch()
        expr = _bind("a > 1", SCHEMA)
        assert eval_batch(expr, batch, n) == [False, True, None, True]

    def test_and_or_batch(self):
        batch, n = self.batch()
        expr = _bind("a > 1 AND b > 1", SCHEMA)
        assert eval_batch(expr, batch, n) == [False, None, None, True]
        expr = _bind("a > 1 OR b > 1", SCHEMA)
        assert eval_batch(expr, batch, n) == [False, True, True, True]

    def test_like_and_case_rowwise(self):
        batch, n = self.batch()
        expr = _bind("c LIKE 'x%'", SCHEMA)
        assert eval_batch(expr, batch, n) == [True, False, True, None]
        expr = _bind("CASE WHEN a = 1 THEN 'one' ELSE 'other' END", SCHEMA)
        assert eval_batch(expr, batch, n) == ["one", "other", "other", "other"]

    def test_in_list_batch(self):
        batch, n = self.batch()
        expr = _bind("a IN (1, 4)", SCHEMA)
        assert eval_batch(expr, batch, n) == [True, False, None, True]

    def test_is_null_batch(self):
        batch, n = self.batch()
        expr = _bind("a IS NULL", SCHEMA)
        assert eval_batch(expr, batch, n) == [False, False, True, False]

    def test_literal_broadcast(self):
        expr = BoundLiteral(7, DataType.INTEGER)
        assert eval_batch(expr, [[1, 2]], 2) == [7, 7]


class TestEngineEdgeCases:
    """End-to-end edge cases through both engines."""

    @pytest.fixture
    def db(self):
        from repro.core.database import Database

        database = Database()
        database.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        return database

    @pytest.mark.parametrize("engine", ["volcano", "vectorized"])
    def test_empty_table_queries(self, db, engine):
        assert db.execute("SELECT * FROM t", engine=engine).rows == []
        assert db.execute("SELECT COUNT(*) FROM t", engine=engine).scalar() == 0
        assert db.execute("SELECT a FROM t ORDER BY a LIMIT 5", engine=engine).rows == []
        assert db.execute(
            "SELECT b, COUNT(*) FROM t GROUP BY b", engine=engine
        ).rows == []

    @pytest.mark.parametrize("engine", ["volcano", "vectorized"])
    def test_offset_beyond_input(self, db, engine):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.execute(
            "SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 10", engine=engine
        ).rows == []

    @pytest.mark.parametrize("engine", ["volcano", "vectorized"])
    def test_offset_straddles_batches(self, db, engine):
        db.insert_rows("t", [(i, "v") for i in range(3000)])
        rows = db.execute(
            "SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 2047", engine=engine
        ).rows
        assert rows == [(i,) for i in range(2047, 2052)]

    @pytest.mark.parametrize("engine", ["volcano", "vectorized"])
    def test_cross_join_empty_side(self, db, engine):
        db.execute("CREATE TABLE empty_side (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.execute(
            "SELECT COUNT(*) FROM t, empty_side", engine=engine
        ).scalar() == 0

    @pytest.mark.parametrize("engine", ["volcano", "vectorized"])
    def test_left_join_empty_right(self, db, engine):
        db.execute("CREATE TABLE r (a INTEGER, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        rows = db.execute(
            "SELECT t.a, r.v FROM t LEFT JOIN r ON t.a = r.a", engine=engine
        ).rows
        assert rows == [(1, None)]

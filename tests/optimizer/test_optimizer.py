"""Tests for the optimizer (rules, join ordering, cardinality, planning)."""

import pytest

from repro.core.database import Database
from repro.core.types import DataType
from repro.exec import physical as phys
from repro.optimizer.cardinality import Estimator
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.rules import fold_expr
from repro.plan.binder import Binder
from repro.plan.expressions import BoundLiteral
from repro.sql.parser import parse


def _plan_for(db, sql, options=None):
    statement = parse(sql)
    logical_plan = Binder(db.catalog).bind_select(statement)
    optimizer = Optimizer(db.catalog, options=options)
    return optimizer.optimize(logical_plan)


@pytest.fixture
def db3():
    """Three tables with very different sizes + stats, for join ordering."""
    db = Database()
    db.execute("CREATE TABLE big (id INTEGER, small_id INTEGER, payload TEXT)")
    db.execute("CREATE TABLE mid (id INTEGER, tiny_id INTEGER, v INTEGER)")
    db.execute("CREATE TABLE tiny (id INTEGER, tag TEXT)")
    db.insert_rows("big", [(i, i % 50, f"p{i}") for i in range(1000)])
    db.insert_rows("mid", [(i, i % 5, i) for i in range(50)])
    db.insert_rows("tiny", [(i, f"t{i}") for i in range(5)])
    db.analyze()
    return db


class TestConstantFolding:
    def fold(self, db, text):
        binder = Binder(db.catalog)
        from repro.sql.parser import parse_expression

        bound = binder.bind_expr(parse_expression(text), db.table("big").schema)
        return fold_expr(bound)

    def test_arithmetic_folds(self, db3):
        assert self.fold(db3, "1 + 2 * 3") == BoundLiteral(7, DataType.INTEGER)

    def test_boolean_shortcuts(self, db3):
        assert self.fold(db3, "TRUE AND id > 1").to_sql() == "(id#0 > 1)"
        assert self.fold(db3, "FALSE AND id > 1") == BoundLiteral(False, DataType.BOOLEAN)
        assert self.fold(db3, "TRUE OR id > 1") == BoundLiteral(True, DataType.BOOLEAN)
        assert self.fold(db3, "FALSE OR id > 1").to_sql() == "(id#0 > 1)"

    def test_double_negation(self, db3):
        assert self.fold(db3, "NOT NOT id > 1").to_sql() == "(id#0 > 1)"

    def test_division_by_zero_deferred(self, db3):
        folded = self.fold(db3, "1 / 0")
        assert not isinstance(folded, BoundLiteral)  # left for runtime error

    def test_case_pruning(self, db3):
        folded = self.fold(db3, "CASE WHEN 1 = 2 THEN 'a' WHEN 1 = 1 THEN 'b' END")
        assert folded == BoundLiteral("b", DataType.TEXT)

    def test_function_folding(self, db3):
        assert self.fold(db3, "UPPER('abc')") == BoundLiteral("ABC", DataType.TEXT)


class TestPushdown:
    def test_where_reaches_both_scan_sides(self, db3):
        optimized, _ = _plan_for(
            db3,
            "SELECT b.payload FROM big b, mid m "
            "WHERE b.small_id = m.id AND b.id < 10 AND m.v > 2",
        )
        text = optimized.pretty()
        # Single-table conjuncts sit directly above their scans, below the join.
        join_pos = text.index("Join")
        assert text.index("(id#0 < 10)", join_pos) > join_pos
        assert "Filter" in text

    def test_cross_join_with_equi_where_becomes_inner(self, db3):
        __, physical = _plan_for(
            db3, "SELECT COUNT(*) FROM big b, mid m WHERE b.small_id = m.id"
        )
        assert "HashJoin" in physical.pretty()

    def test_pushdown_preserves_results(self, db3):
        sql = (
            "SELECT b.id FROM big b JOIN mid m ON b.small_id = m.id "
            "WHERE m.v > 10 AND b.id < 100 ORDER BY b.id"
        )
        with_opt = db3.execute(sql).rows
        db_naive = Database()
        db_naive.optimizer_options = OptimizerOptions.naive()
        # Re-run on the same data through the naive pipeline.
        naive_db = Database(optimizer_options=OptimizerOptions.naive())
        naive_db.execute("CREATE TABLE big (id INTEGER, small_id INTEGER, payload TEXT)")
        naive_db.execute("CREATE TABLE mid (id INTEGER, tiny_id INTEGER, v INTEGER)")
        naive_db.insert_rows("big", [(i, i % 50, f"p{i}") for i in range(1000)])
        naive_db.insert_rows("mid", [(i, i % 5, i) for i in range(50)])
        assert naive_db.execute(sql).rows == with_opt

    def test_filter_pushes_through_aggregate_keys(self, db3):
        optimized, __ = _plan_for(
            db3,
            "SELECT small_id, COUNT(*) FROM big GROUP BY small_id "
            "HAVING small_id < 5",
        )
        text = optimized.pretty()
        # The HAVING over a group key became a pre-aggregation filter.
        assert text.index("Aggregate") < text.index("Filter")

    def test_having_on_aggregate_stays_above(self, db3):
        optimized, __ = _plan_for(
            db3,
            "SELECT small_id, COUNT(*) FROM big GROUP BY small_id "
            "HAVING COUNT(*) > 10",
        )
        text = optimized.pretty()
        assert text.index("Filter") < text.index("Aggregate")


class TestJoinOrdering:
    def test_smallest_tables_join_first(self, db3):
        optimized, __ = _plan_for(
            db3,
            "SELECT COUNT(*) FROM big b JOIN mid m ON b.small_id = m.id "
            "JOIN tiny t ON m.tiny_id = t.id",
        )
        text = optimized.pretty()
        # big (1000 rows) must not be in the deepest (first) join pair with
        # a cross product; the cheapest tree joins mid⋈tiny (50x5) first or
        # filters big early. Verify big appears above at least one join.
        first_scan = text.strip().splitlines()[-1]
        assert "Scan(big" not in first_scan or "tiny" in text

    def test_ordering_preserves_results(self, db3):
        sql = (
            "SELECT t.tag, COUNT(*) AS n FROM big b "
            "JOIN mid m ON b.small_id = m.id "
            "JOIN tiny t ON m.tiny_id = t.id "
            "GROUP BY t.tag ORDER BY t.tag"
        )
        optimized_rows = db3.execute(sql).rows
        db3.optimizer_options = OptimizerOptions.naive()
        naive_rows = db3.execute(sql).rows
        db3.optimizer_options = OptimizerOptions()
        assert optimized_rows == naive_rows

    def test_single_side_join_conjunct_not_lost(self, db3):
        """Regression: ON-clause conjuncts touching one side must survive
        join reordering."""
        sql = (
            "SELECT COUNT(*) FROM big b JOIN mid m "
            "ON b.small_id = m.id AND m.v > 25"
        )
        optimized = db3.execute(sql).scalar()
        db3.optimizer_options = OptimizerOptions.naive()
        naive = db3.execute(sql).scalar()
        db3.optimizer_options = OptimizerOptions()
        assert optimized == naive

    def test_five_way_join_plans_and_runs(self, db3):
        db3.execute("CREATE TABLE d1 (k INTEGER)")
        db3.execute("CREATE TABLE d2 (k INTEGER)")
        db3.insert_rows("d1", [(i,) for i in range(4)])
        db3.insert_rows("d2", [(i,) for i in range(4)])
        db3.analyze()
        sql = (
            "SELECT COUNT(*) FROM big b JOIN mid m ON b.small_id = m.id "
            "JOIN tiny t ON m.tiny_id = t.id "
            "JOIN d1 ON t.id = d1.k JOIN d2 ON d1.k = d2.k"
        )
        assert db3.execute(sql).scalar() > 0


class TestCardinality:
    def test_scan_estimate_uses_stats(self, db3):
        from repro.plan import logical

        estimator = Estimator(db3.catalog)
        scan = logical.Scan("big", "big", db3.table("big").schema)
        assert estimator.estimate(scan) == 1000.0

    def test_equality_selectivity_from_ndv(self, db3):
        estimator = Estimator(db3.catalog)
        binder = Binder(db3.catalog)
        from repro.plan import logical
        from repro.sql.parser import parse_expression

        scan = logical.Scan("big", "big", db3.table("big").schema)
        pred = binder.bind_expr(parse_expression("small_id = 7"), scan.schema)
        sel = estimator.selectivity(pred, estimator.origins(scan))
        assert sel == pytest.approx(1 / 50, rel=0.3)

    def test_range_selectivity_from_histogram(self, db3):
        estimator = Estimator(db3.catalog)
        binder = Binder(db3.catalog)
        from repro.plan import logical
        from repro.sql.parser import parse_expression

        scan = logical.Scan("big", "big", db3.table("big").schema)
        pred = binder.bind_expr(parse_expression("id < 250"), scan.schema)
        sel = estimator.selectivity(pred, estimator.origins(scan))
        assert sel == pytest.approx(0.25, abs=0.05)

    def test_conjunction_multiplies(self, db3):
        estimator = Estimator(db3.catalog)
        binder = Binder(db3.catalog)
        from repro.plan import logical
        from repro.sql.parser import parse_expression

        scan = logical.Scan("big", "big", db3.table("big").schema)
        single = estimator.selectivity(
            binder.bind_expr(parse_expression("id < 500"), scan.schema),
            estimator.origins(scan),
        )
        double = estimator.selectivity(
            binder.bind_expr(parse_expression("id < 500 AND small_id = 3"), scan.schema),
            estimator.origins(scan),
        )
        assert double < single

    def test_filter_estimate_shrinks_plan(self, db3):
        optimized, physical = _plan_for(db3, "SELECT * FROM big WHERE id < 100")
        assert physical.cardinality < 1000


class TestPhysicalChoices:
    def test_hash_join_for_equi(self, db3):
        __, physical = _plan_for(
            db3, "SELECT COUNT(*) FROM big b JOIN mid m ON b.small_id = m.id"
        )
        assert "HashJoin" in physical.pretty()

    def test_nl_join_for_inequality(self, db3):
        __, physical = _plan_for(
            db3, "SELECT COUNT(*) FROM mid m JOIN tiny t ON m.tiny_id < t.id"
        )
        assert "NestedLoopJoin" in physical.pretty()

    def test_hash_join_disabled_falls_back(self, db3):
        options = OptimizerOptions(enable_hash_join=False)
        __, physical = _plan_for(
            db3, "SELECT COUNT(*) FROM big b JOIN mid m ON b.small_id = m.id", options
        )
        assert "NestedLoopJoin" in physical.pretty()

    def test_index_scan_chosen_when_cheap(self, db3):
        db3.execute("CREATE INDEX idx_big_id ON big (id)")
        db3.analyze()
        __, physical = _plan_for(db3, "SELECT payload FROM big WHERE id = 77")
        assert "IndexScan" in physical.pretty()

    def test_index_range_scan(self, db3):
        db3.execute("CREATE INDEX idx_big_id2 ON big (id)")
        db3.analyze()
        __, physical = _plan_for(db3, "SELECT payload FROM big WHERE id < 5")
        assert "IndexScan" in physical.pretty()
        rows = db3.execute("SELECT id FROM big WHERE id < 5 ORDER BY id").rows
        assert rows == [(i,) for i in range(5)]

    def test_unindexed_filters_never_read_storage_stats(self, db3, monkeypatch):
        from repro.catalog.catalog import TableInfo

        snapshots = []
        real = TableInfo.stats_snapshot
        monkeypatch.setattr(
            TableInfo, "stats_snapshot", lambda self: snapshots.append(self.name) or real(self)
        )
        _plan_for(db3, "SELECT payload FROM big WHERE id = 77 AND small_id < 3")
        assert snapshots == []
        db3.execute("CREATE INDEX idx_big_small ON big (small_id)")
        _plan_for(db3, "SELECT payload FROM big WHERE id = 77 AND small_id < 3")
        assert snapshots == ["big"]

    def test_index_ignored_for_unselective_range(self, db3):
        db3.execute("CREATE INDEX idx_big_id3 ON big (id)")
        db3.analyze()
        __, physical = _plan_for(db3, "SELECT payload FROM big WHERE id < 990")
        assert "SeqScan" in physical.pretty()

    def test_topn_hint_from_limit(self, db3):
        __, physical = _plan_for(
            db3, "SELECT id FROM big ORDER BY id DESC LIMIT 7"
        )
        sorts = [n for n in _walk(physical) if isinstance(n, phys.PSort)]
        assert sorts and sorts[0].limit_hint == 7

    def test_naive_options_disable_everything(self, db3):
        options = OptimizerOptions.naive()
        __, physical = _plan_for(
            db3,
            "SELECT COUNT(*) FROM big b JOIN mid m ON b.small_id = m.id "
            "WHERE b.id < 10",
            options,
        )
        text = physical.pretty()
        assert "HashJoin" not in text
        assert "IndexScan" not in text


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)

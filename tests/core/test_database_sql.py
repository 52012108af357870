"""End-to-end SQL correctness tests through the Database facade."""

import pytest

from repro.core.database import Database
from repro.core.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    IntegrityError,
    ParseError,
    TransactionError,
    TypeMismatchError,
)


class TestProjectionAndFilter:
    def test_select_star(self, people_db):
        rows = people_db.execute("SELECT * FROM people ORDER BY id").rows
        assert len(rows) == 5
        assert rows[0] == (1, "alice", 30, "nyc")

    def test_select_columns_and_alias(self, people_db):
        result = people_db.execute("SELECT name AS who, age FROM people WHERE id = 2")
        assert result.columns == ["who", "age"]
        assert result.rows == [("bob", 25)]

    def test_arithmetic_projection(self, people_db):
        result = people_db.execute("SELECT age * 2 + 1 FROM people WHERE id = 1")
        assert result.scalar() == 61

    def test_comparison_operators(self, people_db):
        q = "SELECT id FROM people WHERE age {} 28 ORDER BY id"
        assert people_db.execute(q.format(">")).column("id") == [1, 3]
        assert people_db.execute(q.format(">=")).column("id") == [1, 3, 4]
        assert people_db.execute(q.format("<")).column("id") == [2]
        assert people_db.execute(q.format("!=")).column("id") == [1, 2, 3]

    def test_like(self, people_db):
        result = people_db.execute("SELECT name FROM people WHERE name LIKE '%a%' ORDER BY id")
        assert result.column("name") == ["alice", "carol", "dave"]

    def test_like_underscore(self, people_db):
        result = people_db.execute("SELECT name FROM people WHERE name LIKE '_ob'")
        assert result.column("name") == ["bob"]

    def test_in_and_between(self, people_db):
        assert people_db.execute(
            "SELECT COUNT(*) FROM people WHERE city IN ('nyc', 'chi')"
        ).scalar() == 3
        assert people_db.execute(
            "SELECT COUNT(*) FROM people WHERE age BETWEEN 25 AND 30"
        ).scalar() == 3

    def test_case_expression(self, people_db):
        result = people_db.execute(
            "SELECT name, CASE WHEN age >= 30 THEN 'senior' "
            "WHEN age IS NULL THEN 'unknown' ELSE 'junior' END AS band "
            "FROM people ORDER BY id"
        )
        assert result.column("band") == ["senior", "junior", "senior", "junior", "unknown"]

    def test_scalar_functions(self, people_db):
        assert people_db.execute("SELECT UPPER(name) FROM people WHERE id=1").scalar() == "ALICE"
        assert people_db.execute("SELECT LENGTH(name) FROM people WHERE id=2").scalar() == 3
        assert people_db.execute("SELECT ABS(0 - 5)").scalar() == 5
        assert people_db.execute("SELECT SUBSTR('hello', 2, 3)").scalar() == "ell"
        assert people_db.execute("SELECT COALESCE(NULL, NULL, 7)").scalar() == 7

    def test_string_concat(self, people_db):
        assert people_db.execute(
            "SELECT name || '!' FROM people WHERE id = 2"
        ).scalar() == "bob!"

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 2").scalar() == 3
        assert db.execute("SELECT 'x' || 'y'").scalar() == "xy"

    def test_division_semantics(self, db):
        assert db.execute("SELECT 7 / 2").scalar() == 3  # integer division
        assert db.execute("SELECT 7.0 / 2").scalar() == 3.5
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT 1 / 0")


class TestNullSemantics:
    def test_null_comparison_filters_out(self, people_db):
        # erin has NULL age: no comparison keeps her.
        assert people_db.execute("SELECT COUNT(*) FROM people WHERE age > 0").scalar() == 4
        assert people_db.execute("SELECT COUNT(*) FROM people WHERE age < 1000").scalar() == 4
        assert people_db.execute(
            "SELECT COUNT(*) FROM people WHERE NOT age > 0"
        ).scalar() == 0

    def test_is_null(self, people_db):
        assert people_db.execute(
            "SELECT name FROM people WHERE age IS NULL"
        ).column("name") == ["erin"]
        assert people_db.execute(
            "SELECT COUNT(*) FROM people WHERE age IS NOT NULL"
        ).scalar() == 4

    def test_null_arithmetic_propagates(self, people_db):
        result = people_db.execute("SELECT age + 1 FROM people WHERE id = 5")
        assert result.scalar() is None

    def test_three_valued_or(self, people_db):
        # NULL OR TRUE is TRUE: erin qualifies via city.
        assert people_db.execute(
            "SELECT COUNT(*) FROM people WHERE age > 100 OR city = 'sf'"
        ).scalar() == 2

    def test_in_with_null_list(self, db):
        assert db.execute("SELECT 1 IN (1, NULL)").scalar() is True
        assert db.execute("SELECT 2 IN (1, NULL)").scalar() is None


class TestOrderLimitDistinct:
    def test_order_by_multiple_keys(self, people_db):
        result = people_db.execute("SELECT city, name FROM people ORDER BY city, name DESC")
        assert result.rows[0] == ("chi", "dave")
        assert result.rows[1] == ("nyc", "carol")

    def test_order_nulls_last_asc(self, people_db):
        ages = people_db.execute("SELECT age FROM people ORDER BY age").column("age")
        assert ages == [25, 28, 30, 35, None]

    def test_order_nulls_first_desc(self, people_db):
        ages = people_db.execute("SELECT age FROM people ORDER BY age DESC").column("age")
        assert ages == [None, 35, 30, 28, 25]

    def test_order_by_ordinal_and_alias(self, people_db):
        by_ordinal = people_db.execute("SELECT name, age FROM people ORDER BY 2 DESC")
        by_alias = people_db.execute("SELECT name, age AS a FROM people ORDER BY a DESC")
        assert by_ordinal.rows == by_alias.rows

    def test_order_by_unprojected_expression(self, people_db):
        result = people_db.execute("SELECT name FROM people WHERE age IS NOT NULL ORDER BY age * -1")
        assert result.column("name") == ["carol", "alice", "dave", "bob"]

    def test_limit_offset(self, people_db):
        result = people_db.execute("SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 1")
        assert result.column("id") == [2, 3]

    def test_limit_zero(self, people_db):
        assert people_db.execute("SELECT id FROM people LIMIT 0").rows == []

    def test_distinct(self, people_db):
        result = people_db.execute("SELECT DISTINCT city FROM people ORDER BY city")
        assert result.column("city") == ["chi", "nyc", "sf"]


class TestAggregates:
    def test_global_aggregates(self, people_db):
        row = people_db.execute(
            "SELECT COUNT(*), COUNT(age), SUM(age), AVG(age), MIN(age), MAX(age) FROM people"
        ).rows[0]
        assert row == (5, 4, 118, 29.5, 25, 35)

    def test_aggregate_empty_input(self, people_db):
        row = people_db.execute(
            "SELECT COUNT(*), SUM(age), MIN(age) FROM people WHERE id > 100"
        ).rows[0]
        assert row == (0, None, None)

    def test_group_by(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city ORDER BY city"
        )
        assert result.rows == [("chi", 1), ("nyc", 2), ("sf", 2)]

    def test_group_by_with_nulls_in_values(self, people_db):
        result = people_db.execute(
            "SELECT city, SUM(age) FROM people GROUP BY city ORDER BY city"
        )
        assert result.rows == [("chi", 28), ("nyc", 65), ("sf", 25)]

    def test_group_by_expression(self, people_db):
        result = people_db.execute(
            "SELECT age / 10, COUNT(*) FROM people WHERE age IS NOT NULL "
            "GROUP BY age / 10 ORDER BY 1"
        )
        assert result.rows == [(2, 2), (3, 2)]

    def test_having(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city HAVING COUNT(*) > 1 ORDER BY city"
        )
        assert result.column("city") == ["nyc", "sf"]

    def test_having_on_group_key(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) FROM people GROUP BY city HAVING city != 'sf' ORDER BY city"
        )
        assert result.column("city") == ["chi", "nyc"]

    def test_count_distinct(self, people_db):
        assert people_db.execute("SELECT COUNT(DISTINCT city) FROM people").scalar() == 3

    def test_group_by_ordinal_and_alias(self, people_db):
        a = people_db.execute("SELECT city AS c, COUNT(*) FROM people GROUP BY c ORDER BY c")
        b = people_db.execute("SELECT city AS c, COUNT(*) FROM people GROUP BY 1 ORDER BY 1")
        assert a.rows == b.rows

    def test_ungrouped_column_rejected(self, people_db):
        with pytest.raises(BindError, match="GROUP BY"):
            people_db.execute("SELECT name, COUNT(*) FROM people GROUP BY city")

    def test_aggregate_in_where_rejected(self, people_db):
        with pytest.raises(BindError):
            people_db.execute("SELECT id FROM people WHERE COUNT(*) > 1")

    def test_nested_aggregate_rejected(self, people_db):
        with pytest.raises(BindError, match="nested"):
            people_db.execute("SELECT SUM(COUNT(*)) FROM people")

    def test_order_by_aggregate(self, people_db):
        result = people_db.execute(
            "SELECT city, COUNT(*) FROM people GROUP BY city ORDER BY COUNT(*) DESC, city"
        )
        assert result.column("city") == ["nyc", "sf", "chi"]


class TestJoins:
    def test_inner_join(self, people_db):
        result = people_db.execute(
            "SELECT p.name, o.amount FROM people p JOIN orders o ON p.id = o.pid "
            "ORDER BY o.oid"
        )
        assert result.rows[0] == ("alice", 20.0)
        assert len(result.rows) == 5  # order 105 has no matching person

    def test_left_join_pads_nulls(self, people_db):
        result = people_db.execute(
            "SELECT p.name, o.oid FROM people p LEFT JOIN orders o ON p.id = o.pid "
            "ORDER BY p.id, o.oid"
        )
        names = result.column("name")
        assert names.count("dave") == 1
        dave_row = [r for r in result.rows if r[0] == "dave"][0]
        assert dave_row[1] is None

    def test_join_with_extra_condition(self, people_db):
        result = people_db.execute(
            "SELECT o.oid FROM people p JOIN orders o ON p.id = o.pid AND o.amount > 15 "
            "ORDER BY o.oid"
        )
        assert result.column("oid") == [100, 101, 104]

    def test_cross_join_count(self, people_db):
        assert people_db.execute(
            "SELECT COUNT(*) FROM people, orders"
        ).scalar() == 30

    def test_implicit_join_in_where(self, people_db):
        result = people_db.execute(
            "SELECT COUNT(*) FROM people p, orders o WHERE p.id = o.pid"
        )
        assert result.scalar() == 5

    def test_three_way_join(self, people_db):
        people_db.execute("CREATE TABLE cities (code TEXT, full_name TEXT)")
        people_db.execute(
            "INSERT INTO cities VALUES ('nyc','New York'),('sf','San Francisco'),('chi','Chicago')"
        )
        result = people_db.execute(
            "SELECT c.full_name, SUM(o.amount) AS total "
            "FROM people p JOIN orders o ON p.id = o.pid "
            "JOIN cities c ON p.city = c.code "
            "GROUP BY c.full_name ORDER BY total DESC"
        )
        assert result.rows[0][0] == "New York"

    def test_self_join_with_aliases(self, people_db):
        result = people_db.execute(
            "SELECT a.name, b.name FROM people a JOIN people b ON a.age < b.age "
            "WHERE b.name = 'carol' ORDER BY a.id"
        )
        assert result.column("name") == ["alice", "bob", "dave"]

    def test_ambiguous_column_rejected(self, people_db):
        with pytest.raises(BindError, match="ambiguous"):
            people_db.execute("SELECT id FROM people a JOIN people b ON a.id = b.id")

    def test_null_join_keys_never_match(self, db):
        db.execute("CREATE TABLE l (k INTEGER)")
        db.execute("CREATE TABLE r (k INTEGER)")
        db.execute("INSERT INTO l VALUES (1), (NULL)")
        db.execute("INSERT INTO r VALUES (1), (NULL)")
        assert db.execute("SELECT COUNT(*) FROM l JOIN r ON l.k = r.k").scalar() == 1


class TestDML:
    def test_insert_column_subset(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c FLOAT)")
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)")
        assert db.execute("SELECT a, b, c FROM t").rows == [(7, None, 1.5)]

    def test_insert_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        with pytest.raises(BindError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_insert_type_mismatch(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t VALUES ('nope')")

    def test_insert_not_null_violation(self, db):
        db.execute("CREATE TABLE t (a INTEGER NOT NULL)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t VALUES (NULL)")

    def test_insert_constant_expressions(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (2 + 3)")
        assert db.execute("SELECT a FROM t").scalar() == 5

    def test_update_with_expression(self, people_db):
        count = people_db.execute("UPDATE people SET age = age + 1 WHERE city = 'nyc'").rowcount
        assert count == 2
        assert people_db.execute("SELECT age FROM people WHERE id = 1").scalar() == 31

    def test_update_all_rows(self, people_db):
        assert people_db.execute("UPDATE people SET city = 'x'").rowcount == 5

    def test_delete_with_predicate(self, people_db):
        assert people_db.execute("DELETE FROM people WHERE city = 'sf'").rowcount == 2
        assert people_db.execute("SELECT COUNT(*) FROM people").scalar() == 3

    def test_delete_all(self, people_db):
        people_db.execute("DELETE FROM orders")
        assert people_db.execute("SELECT COUNT(*) FROM orders").scalar() == 0


class TestDDL:
    def test_create_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError, match="already exists"):
            db.execute("CREATE TABLE t (a INTEGER)")

    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM t")

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError, match="does not exist"):
            db.execute("SELECT * FROM ghost")

    def test_create_index_and_query(self, people_db):
        # The age column contains a NULL: index creation must skip it and
        # queries must still return exact answers.
        people_db.execute("CREATE INDEX idx_age ON people (age)")
        result = people_db.execute("SELECT name FROM people WHERE age = 25")
        assert result.column("name") == ["bob"]
        # Writes keep the index in sync around NULL keys.
        people_db.execute("UPDATE people SET age = 41 WHERE name = 'erin'")
        assert people_db.execute(
            "SELECT name FROM people WHERE age = 41"
        ).column("name") == ["erin"]

    def test_unique_index_enforced(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("CREATE UNIQUE INDEX u ON t (a)")
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (1)")

    def test_vector_column_round_trip(self, db):
        db.execute("CREATE TABLE docs (id INTEGER, emb VECTOR(3))")
        db.execute("INSERT INTO docs VALUES (1, [0.1, 0.2, 0.3])")
        assert db.execute("SELECT emb FROM docs").scalar() == (0.1, 0.2, 0.3)

    def test_vector_width_enforced(self, db):
        db.execute("CREATE TABLE docs (id INTEGER, emb VECTOR(2))")
        with pytest.raises(IntegrityError, match="width"):
            db.execute("INSERT INTO docs VALUES (1, [0.1, 0.2, 0.3])")

    def test_vec_dist_in_sql(self, db):
        db.execute("CREATE TABLE docs (id INTEGER, emb VECTOR(2))")
        db.execute("INSERT INTO docs VALUES (1, [0.0, 0.0]), (2, [3.0, 4.0])")
        result = db.execute(
            "SELECT id FROM docs ORDER BY VEC_DIST(emb, [0.1, 0.1]) LIMIT 1"
        )
        assert result.scalar() == 1


class TestTransactions:
    def test_rollback_insert(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("INSERT INTO people VALUES (10, 'zed', 1, 'zz')")
        people_db.execute("ROLLBACK")
        assert people_db.execute("SELECT COUNT(*) FROM people").scalar() == 5

    def test_rollback_update_and_delete(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("UPDATE people SET age = 0")
        people_db.execute("DELETE FROM people WHERE id = 1")
        people_db.execute("ROLLBACK")
        rows = people_db.execute("SELECT id, age FROM people ORDER BY id").rows
        assert rows == [(1, 30), (2, 25), (3, 35), (4, 28), (5, None)]

    def test_commit_persists(self, people_db):
        people_db.execute("BEGIN")
        people_db.execute("DELETE FROM people WHERE id = 1")
        people_db.execute("COMMIT")
        assert people_db.execute("SELECT COUNT(*) FROM people").scalar() == 4

    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("BEGIN")

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.execute("COMMIT")

    def test_rollback_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.execute("ROLLBACK")


class TestExplainAndStats:
    def test_explain_shows_plans(self, people_db):
        text = people_db.explain("SELECT name FROM people WHERE id = 1")
        assert "logical plan" in text
        assert "physical plan" in text
        assert "Scan" in text

    def test_explain_uses_index(self, db):
        db.execute("CREATE TABLE big (id INTEGER, v INTEGER)")
        db.insert_rows("big", [(i, i % 7) for i in range(500)])
        db.execute("CREATE INDEX idx_big_id ON big (id)")
        db.analyze()
        text = db.explain("SELECT v FROM big WHERE id = 123")
        assert "IndexScan" in text
        assert db.execute("SELECT v FROM big WHERE id = 123").scalar() == 123 % 7

    def test_statement_stats_populated(self, people_db):
        people_db.execute("SELECT * FROM people")
        stats = people_db.last_stats
        assert stats.total_ms > 0
        assert stats.rows == 5

    def test_analyze_populates_stats(self, people_db):
        people_db.analyze()
        stats = people_db.table("people").stats
        assert stats.row_count == 5
        assert stats.column("age").n_distinct == 4
        assert stats.column("age").null_count == 1


class TestEngineParity:
    QUERIES = [
        "SELECT * FROM people ORDER BY id",
        "SELECT name, age * 2 FROM people WHERE age > 25 ORDER BY id",
        "SELECT city, COUNT(*), AVG(age) FROM people GROUP BY city ORDER BY city",
        "SELECT p.name, o.amount FROM people p JOIN orders o ON p.id = o.pid ORDER BY o.oid",
        "SELECT p.name, o.oid FROM people p LEFT JOIN orders o ON p.id = o.pid ORDER BY p.id, o.oid",
        "SELECT DISTINCT city FROM people ORDER BY city",
        "SELECT id FROM people ORDER BY age DESC LIMIT 3",
        "SELECT COUNT(*) FROM people WHERE name LIKE '%a%' OR age IS NULL",
        # int64 numpy kernels would wrap or round here; answers are exact.
        "SELECT COUNT(*) FROM people WHERE id * 4611686018427387904 > 0",
        "SELECT id * 9223372036854775807 FROM people WHERE id = 3",
        "SELECT COUNT(*) FROM people WHERE id + 9007199254740992 > 9007199254740992.0",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_volcano_equals_vectorized(self, people_db, sql):
        volcano = people_db.execute(sql, engine="volcano").rows
        vectorized = people_db.execute(sql, engine="vectorized").rows
        assert volcano == vectorized

    def test_column_layout_database(self):
        db = Database(default_layout="column", engine="vectorized")
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        assert db.execute("SELECT SUM(a) FROM t").scalar() == 6
        db.execute("DELETE FROM t WHERE a = 2")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2
        db.execute("UPDATE t SET b = 'w' WHERE a = 3")
        assert db.execute("SELECT b FROM t WHERE a = 3").scalar() == "w"

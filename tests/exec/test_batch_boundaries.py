"""Batch-boundary sweep for the vectorized engine.

Vectorized operators carry state across batch edges (sort and set-op
materialization, aggregate accumulators, hash and nested-loop join
build/probe chunking); the classic failure mode is an operator that is only
correct when all its input arrives in one batch.  This sweep runs representative plans at batch sizes
that straddle the default (1024): 1, 2, 1023, 1024, 1025 — so every operator
sees single-row batches, off-by-one edges, and inputs split mid-group —
and checks results against the volcano engine's output.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.exec.vectorized import execute_vectorized
from repro.optimizer.optimizer import Optimizer
from repro.sql.parser import parse

BATCH_SIZES = (1, 2, 1023, 1024, 1025)

# 1500 rows: spans a 1024 batch edge, and 1023/1025 put the edge mid-group.
N_ROWS = 1500

QUERIES = [
    "SELECT id, grp FROM a WHERE id % 3 = 0",
    "SELECT grp, COUNT(*), COUNT(val), SUM(val), AVG(val), MIN(val), MAX(val) "
    "FROM a GROUP BY grp",
    "SELECT COUNT(DISTINCT grp), SUM(DISTINCT grp) FROM a",
    "SELECT id FROM a ORDER BY val, id",
    "SELECT id FROM a ORDER BY val DESC, id LIMIT 10",
    "SELECT DISTINCT grp FROM a",
    "SELECT grp FROM a UNION SELECT grp FROM b",
    "SELECT grp FROM a UNION ALL SELECT grp FROM b",
    "SELECT grp FROM a INTERSECT SELECT grp FROM b",
    "SELECT grp FROM a EXCEPT SELECT grp FROM b",
    "SELECT a.id, b.val FROM a JOIN b ON a.id = b.id WHERE b.val > 100.0",
    "SELECT a.id, b.val FROM a LEFT JOIN b ON a.id = b.id",
    # Non-equi conditions plan as nested-loop joins.
    "SELECT a.id, b.id FROM a JOIN b ON a.id < b.id WHERE b.id >= 1490",
    "SELECT a.id, b.id FROM a LEFT JOIN b ON a.id < b.id AND b.id >= 1490",
    # Empty-input global aggregate: one row of identity values.
    "SELECT COUNT(*), SUM(val) FROM a WHERE id < 0",
    # No FROM: the aggregate's input is one zero-width row.
    "SELECT COUNT(*)",
]


def load(db: Database) -> None:
    db.execute("CREATE TABLE a (id INTEGER NOT NULL, grp INTEGER, val FLOAT)")
    db.execute("CREATE TABLE b (id INTEGER NOT NULL, grp INTEGER, val FLOAT)")
    db.insert_rows(
        "a",
        [
            (i, i % 7, None if i % 97 == 0 else float((i * 31) % 1000))
            for i in range(N_ROWS)
        ],
    )
    db.insert_rows(
        "b",
        [(i, i % 5, float((i * 17) % 500)) for i in range(0, N_ROWS, 2)],
    )


@pytest.fixture(scope="module")
def db():
    database = Database(engine="volcano", default_layout="column")
    load(database)
    return database


@pytest.fixture(scope="module")
def reference(db):
    return {sql: db.execute(sql).rows for sql in QUERIES}


def run_at_batch_size(db: Database, sql: str, batch_size: int):
    logical_plan = db._binder.bind_query(parse(sql))
    optimizer = Optimizer(db.catalog, db.cost_model, db.optimizer_options)
    _, physical = optimizer.optimize(logical_plan)
    return list(execute_vectorized(physical, db.catalog, batch_size=batch_size))


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("sql", QUERIES)
def test_batch_size_does_not_change_results(db, reference, sql, batch_size):
    assert run_at_batch_size(db, sql, batch_size) == reference[sql]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_tiny_tables_at_every_batch_size(batch_size):
    # Inputs smaller than, equal to, and one-off the batch size.
    db = Database(engine="vectorized", default_layout="column")
    db.execute("CREATE TABLE t (v INTEGER)")
    for n in (0, 1, 2):
        rows = db.execute("SELECT COUNT(*), SUM(v) FROM t").rows
        assert rows == [(n, sum(range(n)) if n else None)]
        got = run_at_batch_size(db, "SELECT v FROM t ORDER BY v", batch_size)
        assert got == [(i,) for i in range(n)]
        db.execute(f"INSERT INTO t VALUES ({n})")

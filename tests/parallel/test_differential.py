"""Serial-vs-parallel differential suite.

The determinism contract for morsel-driven execution: a parallel plan must
produce the same rows as the serial plan — and because the gather step
collects morsel results in morsel order, we can assert the stronger
property of identical row *order*, not just multiset equality.  Floats are
compared with a tolerance because parallel partial aggregation associates
additions differently than a serial left fold.

Covers every TPC-H query in the workload and an OLTP-style DML mix, at
workers ∈ {1, 2, 4}, on both engines; plus a sanitizer run asserting the
worker pool's schedule trace is clean.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.analyze.concurrency import check_schedule
from repro.core.database import Database
from repro.exec.parallel import pool_recorder
from repro.optimizer.optimizer import OptimizerOptions
from repro.workloads.tpch import TPCH_QUERIES, load_tpch, tpch_query

SCALE = 0.05
SEED = 7
WORKER_COUNTS = (1, 2, 4)
ENGINES = ("volcano", "vectorized")


def parallel_options(workers: int) -> OptimizerOptions:
    # min_rows=1 so even the small test tables get parallel plans, and a
    # small morsel size so every scan spans many morsels.
    return OptimizerOptions(workers=workers, parallel_min_rows=1, morsel_size=256)


def assert_rows_match(serial_rows, parallel_rows, context: str) -> None:
    assert len(serial_rows) == len(parallel_rows), (
        f"{context}: {len(serial_rows)} serial rows vs {len(parallel_rows)} parallel"
    )
    for rownum, (expected, got) in enumerate(zip(serial_rows, parallel_rows)):
        assert len(expected) == len(got), f"{context} row {rownum}: arity differs"
        for col, (a, b) in enumerate(zip(expected, got)):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None:
                    assert a is None and b is None, (
                        f"{context} row {rownum} col {col}: {a!r} vs {b!r}"
                    )
                else:
                    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (
                        f"{context} row {rownum} col {col}: {a!r} vs {b!r}"
                    )
            else:
                assert a == b, f"{context} row {rownum} col {col}: {a!r} vs {b!r}"


@pytest.fixture(scope="module")
def tpch_serial():
    dbs = {}
    for engine in ENGINES:
        db = Database(engine=engine, default_layout="column")
        load_tpch(db, scale_factor=SCALE, seed=SEED)
        dbs[engine] = db
    return dbs


@pytest.fixture(scope="module")
def tpch_parallel():
    dbs = {}
    for engine in ENGINES:
        for workers in WORKER_COUNTS:
            db = Database(
                engine=engine,
                default_layout="column",
                optimizer_options=parallel_options(workers),
            )
            load_tpch(db, scale_factor=SCALE, seed=SEED)
            dbs[(engine, workers)] = db
    return dbs


class TestTpchDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("query", sorted(TPCH_QUERIES))
    def test_query_matches_serial(self, tpch_serial, tpch_parallel, engine, workers, query):
        sql = tpch_query(query)
        serial_rows = tpch_serial[engine].execute(sql).rows
        parallel_rows = tpch_parallel[(engine, workers)].execute(sql).rows
        assert_rows_match(
            serial_rows, parallel_rows, f"{query}/{engine}/workers={workers}"
        )

    def test_row_layout_matches_too(self):
        # Heap morsels take the page-chunk path; one engine x one worker
        # count is enough to keep module runtime sane.
        serial = Database(engine="vectorized", default_layout="row")
        load_tpch(serial, scale_factor=0.02, seed=SEED)
        par = Database(
            engine="vectorized",
            default_layout="row",
            optimizer_options=parallel_options(2),
        )
        load_tpch(par, scale_factor=0.02, seed=SEED)
        for query in sorted(TPCH_QUERIES):
            sql = tpch_query(query)
            assert_rows_match(
                serial.execute(sql).rows,
                par.execute(sql).rows,
                f"{query}/row-layout",
            )


# -- OLTP-style mix --------------------------------------------------------


def run_oltp_mix(db: Database):
    """A deterministic DML + query mix (the shape of experiment E6's load).

    Interleaves inserts, updates, deletes, and scans so parallel plans run
    against tables whose array caches and scan caches are repeatedly
    invalidated by writes.  Returns every SELECT's rows for comparison.
    """
    db.execute(
        "CREATE TABLE accounts (id INTEGER NOT NULL, balance FLOAT, region TEXT)"
    )
    regions = ("north", "south", "east", "west")
    db.insert_rows(
        "accounts",
        [(i, float(100 + (i * 37) % 900), regions[i % 4]) for i in range(2000)],
    )
    snapshots = []
    for step in range(8):
        base = 2000 + step * 10
        db.insert_rows(
            "accounts",
            [(base + j, float(50 * j), regions[(base + j) % 4]) for j in range(10)],
        )
        db.execute(f"UPDATE accounts SET balance = balance + 1.5 WHERE id % 7 = {step % 7}")
        db.execute(f"DELETE FROM accounts WHERE id % 97 = {step * 13 % 97}")
        snapshots.append(
            db.execute(
                "SELECT region, COUNT(*), SUM(balance), MIN(id), MAX(id) "
                "FROM accounts GROUP BY region ORDER BY region"
            ).rows
        )
        snapshots.append(
            db.execute(
                "SELECT id, balance FROM accounts WHERE balance > 500.0 ORDER BY id"
            ).rows
        )
    return snapshots


class TestOltpMixDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_mix_matches_serial(self, engine, workers):
        serial = Database(engine=engine, default_layout="column")
        par = Database(
            engine=engine,
            default_layout="column",
            optimizer_options=parallel_options(workers),
        )
        serial_snaps = run_oltp_mix(serial)
        parallel_snaps = run_oltp_mix(par)
        assert len(serial_snaps) == len(parallel_snaps)
        for i, (expected, got) in enumerate(zip(serial_snaps, parallel_snaps)):
            assert_rows_match(expected, got, f"oltp/{engine}/w{workers}/snapshot {i}")


# -- int64 overflow and DISTINCT float order -------------------------------

#: Inputs on which an int64 numpy kernel would wrap, reject a literal beyond
#: int64 or round an int to float64; the answer must be the serial volcano
#: engine's exact Python one.
OVERFLOW_QUERIES = [
    "SELECT COUNT(*) FROM t WHERE a * 4611686018427387904 > 0",
    "SELECT a * 9223372036854775807 FROM t WHERE a = 3",
    "SELECT SUM(a * 4611686018427387904) FROM t",
    "SELECT MAX(a * 4611686018427387904) FROM t",
    "SELECT a * 100000000000000000000 FROM t WHERE a = 2",
    # int64 vs float: 2^53 + 1 must not round to 2^53 before comparing.
    "SELECT COUNT(*) FROM t WHERE a + 9007199254740992 > 9007199254740992.0",
]

DISTINCT_FLOAT_QUERIES = [
    "SELECT SUM(DISTINCT v), AVG(DISTINCT v) FROM f",
    "SELECT g, SUM(DISTINCT v), AVG(DISTINCT v) FROM f GROUP BY g ORDER BY g",
]


def edge_db(engine: str, layout: str, workers=None) -> Database:
    options = None if workers is None else parallel_options(workers)
    db = Database(engine=engine, default_layout=layout, optimizer_options=options)
    db.execute("CREATE TABLE t (a INTEGER)")
    db.insert_rows("t", [(i,) for i in range(1, 3001)])
    db.execute("CREATE TABLE f (g INTEGER, v FLOAT)")
    rng = random.Random(SEED)
    db.insert_rows(
        "f",
        [(i % 5, rng.random() * 10.0 ** rng.randint(-9, 17)) for i in range(4000)],
    )
    return db


@pytest.fixture(scope="module")
def edge_reference():
    return edge_db("volcano", "row")


class TestEdgeDifferential:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("layout", ("row", "column"))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_int64_overflow_matches_serial(self, edge_reference, engine, layout, workers):
        db = edge_db(engine, layout, workers)
        for sql in OVERFLOW_QUERIES:
            assert db.execute(sql).rows == edge_reference.execute(sql).rows, sql

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("layout", ("row", "column"))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_distinct_float_sums_are_bit_identical(
        self, edge_reference, engine, layout, workers
    ):
        # Exact ==, not assert_rows_match: serial and parallel fold the
        # distinct values in the same first-seen order.
        db = edge_db(engine, layout, workers)
        for sql in DISTINCT_FLOAT_QUERIES:
            assert db.execute(sql).rows == edge_reference.execute(sql).rows, sql


# -- sanitizer -------------------------------------------------------------


class TestParallelSanitizer:
    def test_worker_trace_is_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        recorder = pool_recorder()
        recorder.clear()
        db = Database(
            engine="vectorized",
            default_layout="column",
            optimizer_options=parallel_options(2),
        )
        load_tpch(db, scale_factor=0.02, seed=SEED)
        db.execute(tpch_query("Q1"))
        db.execute(tpch_query("Q6"))
        events = recorder.events()
        assert events, "morsel tasks produced no schedule events under REPRO_SANITIZE"
        reads = [e for e in events if e.op == "read"]
        assert reads and all(e.key[0] == "lineitem" for e in reads)
        report = check_schedule(events, scheme="parallel-pool")
        assert not report.errors(), [f.message for f in report.errors()]

    def test_no_trace_without_sanitize(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        recorder = pool_recorder()
        recorder.clear()
        db = Database(
            engine="vectorized",
            default_layout="column",
            optimizer_options=parallel_options(2),
        )
        db.execute("CREATE TABLE t (v INTEGER)")
        db.insert_rows("t", [(i,) for i in range(500)])
        db.execute("SELECT SUM(v) FROM t")
        assert len(recorder) == 0

"""Compiled-vs-tree-walk and plan-cache smoke benchmark (≈5 s) → BENCH_compile.json.

Two legs:

* **expressions** — the bound filter predicate and aggregate-argument
  expressions of TPC-H Q1/Q6, evaluated over the same lineitem rows by the
  tree-walking reference ``BoundExpr.eval`` and by the compiled closure
  ``evaluator(expr)`` (the engines' only execution path).  Rows failing
  the filter skip the aggregate arguments, as in the query.
* **oltp** — an E6-style repeated point-SELECT workload with the plan
  cache off (``plan_cache_size=0``, text substitution for parameters) and
  on (plan cache + prepared statements, the defaults).

Emits ``BENCH_compile.json`` next to this file so future changes have a
machine-readable perf trajectory.  Run directly::

    PYTHONPATH=src python benchmarks/bench_compare.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_json import write_report  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.exec import physical as phys  # noqa: E402
from repro.exec.compile import evaluator  # noqa: E402
from repro.optimizer.optimizer import Optimizer  # noqa: E402
from repro.sql.parser import parse  # noqa: E402
from repro.workloads.tpch import load_tpch, tpch_query  # noqa: E402

TPCH_SCALE = 0.1
TPCH_QUERIES = ["Q1", "Q6"]
TPCH_ROUNDS = 3
OLTP_ROWS = 5000
OLTP_STATEMENTS = 2000


def best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def filter_and_agg_args(db: Database, sql: str):
    """The bound predicate and aggregate arguments of an
    ``Aggregate(Filter(SeqScan))`` plan, all over the scanned table's rows."""
    logical = db._binder.bind_query(parse(sql))
    _, plan = Optimizer(db.catalog, db.cost_model, db.optimizer_options).optimize(logical)
    while not isinstance(plan, phys.PAggregate):
        plan = plan.child
    assert isinstance(plan.child, phys.PFilter)
    assert isinstance(plan.child.child, phys.PSeqScan)
    args = [spec.arg for spec in plan.aggregates if spec.arg is not None]
    return plan.child.child.table, plan.child.predicate, args


def bench_expressions() -> dict:
    """Best-of-N time to evaluate each query's expressions, both ways."""
    db = Database()
    load_tpch(db, scale_factor=TPCH_SCALE, seed=7)
    out = {}
    for name in TPCH_QUERIES:
        table, predicate, args = filter_and_agg_args(db, tpch_query(name))
        rows = list(db.table(table).scan_rows())

        def run(pred, arg_fns):
            for row in rows:
                if pred(row) is True:
                    for fn in arg_fns:
                        fn(row)

        tree_walk = best_of(lambda: run(predicate.eval, [a.eval for a in args]), TPCH_ROUNDS)
        compiled = best_of(
            lambda: run(evaluator(predicate), [evaluator(a) for a in args]), TPCH_ROUNDS
        )
        out[name] = {
            "rows": len(rows),
            "expressions": 1 + len(args),
            "tree_walk_ms": round(tree_walk * 1e3, 2),
            "compiled_ms": round(compiled * 1e3, 2),
            "speedup": round(tree_walk / compiled, 2),
        }
    return out


def make_oltp_db(plan_cache: bool) -> Database:
    db = Database(plan_cache_size=128 if plan_cache else 0)
    db.execute("CREATE TABLE accounts (id INTEGER NOT NULL, owner TEXT, balance DOUBLE)")
    db.insert_rows(
        "accounts",
        [(i, f"owner-{i % 97}", float(i % 1000)) for i in range(OLTP_ROWS)],
    )
    db.execute("CREATE INDEX idx_accounts_id ON accounts (id)")
    db.analyze()
    return db


def bench_oltp(plan_cache: bool) -> dict:
    """Repeated point-SELECT throughput (statements/second)."""
    db = make_oltp_db(plan_cache)
    out = {}

    # Identical statement text re-executed: the plan-cache sweet spot.
    sql = f"SELECT owner, balance FROM accounts WHERE id = {OLTP_ROWS // 2}"
    t0 = time.perf_counter()
    for _ in range(OLTP_STATEMENTS):
        db.execute(sql)
    out["repeated_statement_tps"] = OLTP_STATEMENTS / (time.perf_counter() - t0)

    # Parameterized workload: prepared statements vs text substitution.
    sql = "SELECT owner, balance FROM accounts WHERE id = ?"
    t0 = time.perf_counter()
    if plan_cache:
        stmt = db.prepare(sql)
        for i in range(OLTP_STATEMENTS):
            stmt.execute(((i * 37) % OLTP_ROWS,))
    else:
        for i in range(OLTP_STATEMENTS):
            db.execute(sql, params=((i * 37) % OLTP_ROWS,))
    out["parameterized_tps"] = OLTP_STATEMENTS / (time.perf_counter() - t0)
    return out


def main() -> int:
    started = time.time()
    report = {
        "scale_factor": TPCH_SCALE,
        "expressions": bench_expressions(),
        "oltp": {},
        "speedups": {},
    }
    for name, entry in report["expressions"].items():
        report["speedups"][f"expr_{name}"] = entry["speedup"]

    uncached = bench_oltp(plan_cache=False)
    cached = bench_oltp(plan_cache=True)
    for key in ("repeated_statement_tps", "parameterized_tps"):
        speedup = cached[key] / uncached[key]
        report["oltp"][key] = {
            "plan_cache_off": round(uncached[key], 1),
            "plan_cache_on": round(cached[key], 1),
            "speedup": round(speedup, 2),
        }
        report["speedups"][f"oltp_{key}"] = round(speedup, 2)

    report["elapsed_s"] = round(time.time() - started, 1)
    out_path = write_report("compile", report)
    ok = all(s >= 1.5 for k, s in report["speedups"].items() if k.startswith("expr_"))
    ok &= report["speedups"]["oltp_repeated_statement_tps"] >= 2.0
    print(f"\nwrote {out_path}; targets {'MET' if ok else 'NOT MET'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

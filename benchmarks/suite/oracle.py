"""Answer oracle for the OLAP workloads: the same tables in stdlib sqlite3.

The loaded TPC-H tables are copied into an in-memory sqlite database once
at set-up and every (query, parameter set) is answered there, outside the
timed window.  Results are compared as multisets with floats at 1e-6
relative; LIMIT queries are compared on their ordering keys only, in
order, because rows tied on those keys may legitimately differ.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Dict, List, Optional, Sequence, Tuple

REL_TOL = 1e-6

#: Result positions of the ORDER BY keys of the LIMIT queries.
LIMIT_ORDER_KEYS: Dict[str, Tuple[int, ...]] = {
    "Q3": (1, 2),   # revenue DESC, o_orderdate
    "Q10": (2,),    # revenue DESC
    "Q15": (2, 0),  # total_revenue DESC, s_suppkey
}

_JOIN_KEYS = (
    ("customer", "c_custkey"), ("orders", "o_orderkey"), ("orders", "o_custkey"),
    ("lineitem", "l_orderkey"), ("supplier", "s_suppkey"), ("nation", "n_nationkey"),
)


def build_sqlite(db) -> sqlite3.Connection:
    """Copy every table of ``db`` into a fresh in-memory sqlite."""
    conn = sqlite3.connect(":memory:")
    for name in db.catalog.table_names():
        result = db.execute(f"SELECT * FROM {name}")
        conn.execute(f"CREATE TABLE {name} ({', '.join(result.columns)})")
        marks = ", ".join("?" * len(result.columns))
        conn.executemany(f"INSERT INTO {name} VALUES ({marks})", result.rows)
    for table, column in _JOIN_KEYS:
        conn.execute(f"CREATE INDEX {table}_{column} ON {table} ({column})")
    conn.commit()
    return conn


def _is_number(cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def _canonical(rows: Sequence[Sequence]) -> List[tuple]:
    # Sort on the text cells (group keys) first, then numerically, so two
    # float sums that differ in the last bits cannot reorder groups and an
    # int on one side sorts like the equal float on the other.
    def key(row):
        return (
            tuple(repr(c) for c in row if not _is_number(c)),
            tuple(float(c) for c in row if _is_number(c)),
        )

    return sorted((tuple(row) for row in rows), key=key)


def _cell_equal(got, want) -> bool:
    if _is_number(got) and _is_number(want):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-9)
    return got == want


def rows_match(query: str, got: Sequence[Sequence], want: Sequence[Sequence]) -> Optional[str]:
    """``None`` when ``got`` answers ``query`` as ``want`` does, else why not."""
    if len(got) != len(want):
        return f"{len(got)} rows, oracle has {len(want)}"
    keys = LIMIT_ORDER_KEYS.get(query)
    if keys is not None:
        got = [tuple(row[k] for k in keys) for row in got]
        want = [tuple(row[k] for k in keys) for row in want]
    else:
        got, want = _canonical(got), _canonical(want)
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row) or not all(map(_cell_equal, g_row, w_row)):
            return f"row {i}: {g_row!r} != oracle {w_row!r}"
    return None

"""Seeded statement streams: every input of every workload derives from --seed.

A stream yields ``(kind, sql, params, expected)`` tuples — ``expected`` is
the value a SELECT must return or the rowcount a write must report — and
keeps the *model* the final table is compared with.  Nothing here touches
``repro``: the program under test only ever receives SQL text and
parameter values.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, Iterator, List, Tuple

#: OLTP fixture: kv(id INTEGER, val INTEGER) + index on id, ANALYZEd.
KV_ROWS = 20_000
KV_DDL = (
    "CREATE TABLE kv (id INTEGER, val INTEGER)",
    "CREATE INDEX kv_id ON kv (id)",
)

SELECT_SQL = "SELECT val FROM kv WHERE id = ?"
UPDATE_SQL = "UPDATE kv SET val = ? WHERE id = ?"
DELETE_SQL = "DELETE FROM kv WHERE id = ?"
INSERT_ROWS = 10
INSERT_SQL = "INSERT INTO kv VALUES " + ", ".join(["(?, ?)"] * INSERT_ROWS)
TOTALS_SQL = "SELECT SUM(val), COUNT(*) FROM kv"

WRITE_SHARE = 0.10  # the 90/10 mixes
VAL_RANGE = 1 << 31

Statement = Tuple[str, str, tuple, int]


def _rng(seed: int, *scope) -> random.Random:
    # str seeds hash through sha512 inside random.seed: stable across
    # processes and python builds, unlike hash()-based seeding.
    return random.Random(":".join(str(part) for part in (seed, *scope)))


def kv_rows(seed: int, rows: int = KV_ROWS) -> List[Tuple[int, int]]:
    """The initial table contents (also the initial model)."""
    rng = _rng(seed, "kv")
    return [(key, rng.randrange(VAL_RANGE)) for key in range(rows)]


class MixStream:
    """90% point SELECT / 10% point UPDATE over one residue class ``id % C``.

    Each connection owns one stream and touches only its own keys, so its
    private shadow dict predicts every answer no matter how connections
    interleave (rows >> clients: contention is not what is measured).
    """

    def __init__(self, seed: int, conn: int, conns: int, initial: Dict[int, int]):
        self._rng = _rng(seed, "mix", conn)
        self._conn, self._conns = conn, conns
        self._slots = len(initial) // conns
        self.shadow = {k: v for k, v in initial.items() if k % conns == conn}

    def __iter__(self) -> Iterator[Statement]:
        return self

    def __next__(self) -> Statement:
        rng = self._rng
        key = rng.randrange(self._slots) * self._conns + self._conn
        if rng.random() < WRITE_SHARE:
            val = rng.randrange(VAL_RANGE)
            self.shadow[key] = val
            return ("update", UPDATE_SQL, (val, key), 1)
        return ("select", SELECT_SQL, (key,), self.shadow[key])


class RoundRobin:
    """One caller taking turns over the per-connection streams.

    The embedded workloads run the very statement streams the wire
    workloads send, from a single thread: in one process the GIL and
    ``Database._lock`` serialise callers anyway, so a second thread would
    add scheduler noise, not load.
    """

    def __init__(self, mix: List[MixStream]):
        self._mix, self._turn = mix, 0

    def __iter__(self) -> Iterator[Statement]:
        return self

    def __next__(self) -> Statement:
        stream = self._mix[self._turn]
        self._turn = (self._turn + 1) % len(self._mix)
        return next(stream)

    def model(self) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for stream in self._mix:
            merged.update(stream.shadow)
        return merged


class WriteStream:
    """100% writes: 30% 10-row INSERT, 50% point UPDATE, 20% point DELETE.

    The shares keep the median statement (an UPDATE) and the 95th
    percentile (an INSERT) well inside their latency modes: with 40% of
    each, p50 sat ten points under the UPDATE/INSERT boundary, where the
    latency curve is steep and run-to-run spread was 10-14%.

    UPDATE and DELETE pick a uniformly random *live* key, so every
    statement affects exactly the rows the model says (no operation can
    fail or miss); the live set is a list + position map for O(1) removal.
    """

    def __init__(self, seed: int, initial: Dict[int, int]):
        self._rng = _rng(seed, "write")
        self.shadow = dict(initial)
        self._live = list(initial)
        self._pos = {key: i for i, key in enumerate(self._live)}
        self._next_id = max(initial) + 1 if initial else 0

    def __iter__(self) -> Iterator[Statement]:
        return self

    def _pick_live(self) -> int:
        return self._live[self._rng.randrange(len(self._live))]

    def __next__(self) -> Statement:
        rng = self._rng
        draw = rng.random()
        if draw < 0.3 or not self._live:
            params: List[int] = []
            for _ in range(INSERT_ROWS):
                key, val = self._next_id, rng.randrange(VAL_RANGE)
                self._next_id += 1
                self.shadow[key] = val
                self._pos[key] = len(self._live)
                self._live.append(key)
                params += (key, val)
            return ("insert", INSERT_SQL, tuple(params), INSERT_ROWS)
        key = self._pick_live()
        if draw < 0.8:
            val = rng.randrange(VAL_RANGE)
            self.shadow[key] = val
            return ("update", UPDATE_SQL, (val, key), 1)
        last = self._live.pop()
        slot = self._pos.pop(key)
        if last != key:
            self._live[slot] = last
            self._pos[last] = slot
        del self.shadow[key]
        return ("delete", DELETE_SQL, (key,), 1)

    def model(self) -> Dict[int, int]:
        return self.shadow


# ---------------------------------------------------------------------------
# OLAP: the eight TPC-H-shaped queries with parameters rotated per pass
# ---------------------------------------------------------------------------

OLAP_QUERIES = ("Q1", "Q3", "Q5", "Q6", "Q10", "Q12", "Q15", "QSORT")

#: Parameter sets per query.  8 x 20 = 160 distinct texts visited
#: cyclically against the 128-entry LRU plan cache: a text always returns
#: after 159 others, so it is always already evicted (no plan-cache hit,
#: ever), while the oracle only has to answer 160 queries at set-up.
OLAP_ROTATIONS = 20

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")


def olap_rotations(seed: int, rotations: int = OLAP_ROTATIONS) -> List[List[Tuple[str, dict]]]:
    """``rotations`` passes, each ``[(query name, keyword params), ...]``.

    Every query's leading integer parameter is drawn without replacement,
    so no two passes share a statement text.
    """
    rng = _rng(seed, "olap")
    dates = {
        name: rng.sample(range(lo, hi), rotations)
        for name, lo, hi in (
            ("Q1", 60, 121), ("Q3", 1000, 1300), ("Q5", 0, 1800), ("Q6", 0, 1800),
            ("Q10", 0, 2000), ("Q12", 0, 1800), ("Q15", 0, 2300), ("QSORT", 0, 1800),
        )
    }
    passes = []
    for i in range(rotations):
        passes.append([
            ("Q1", {"delta_days": dates["Q1"][i]}),
            ("Q3", {"segment": rng.choice(_SEGMENTS), "date": dates["Q3"][i]}),
            ("Q5", {"region": rng.choice(_REGIONS), "date": dates["Q5"][i]}),
            ("Q6", {"date": dates["Q6"][i],
                    "discount": rng.randrange(2, 10) / 100,
                    "quantity": rng.randrange(24, 26)}),
            ("Q10", {"date": dates["Q10"][i]}),
            ("Q12", {"date": dates["Q12"][i]}),
            ("Q15", {"date": dates["Q15"][i]}),
            ("QSORT", {"date": dates["QSORT"][i]}),
        ])
    return passes


def stream_hash(statements, count: int) -> str:
    """sha256 over the first ``count`` statements (the determinism check)."""
    digest = hashlib.sha256()
    for statement in itertools.islice(statements, count):
        digest.update(repr(statement).encode("utf-8"))
    return digest.hexdigest()

"""Spans recorded by the suite's own driver, and the decomposed replays.

Layers are measured from outside: the driver times calls into each
layer's public functions.  During a traced window only one span per
statement is appended (cheap, so ``trace_overhead_ratio`` stays near 1).
After the window, every sampled statement is *replayed decomposed* —
parse, bind, optimize, execute, codec, WAL — and each replayed step
becomes a child span of the statement's real in-window span.  A span's
self time is its duration minus its children's, so whatever the replays
do not explain stays visible under a residual's own name.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from harness import now

Span = Tuple[str, float, float, Optional[int], Optional[int]]


class Tracer:
    """In-memory spans ``(name, start, end, parent, request_id)``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Statements kept for replay: ``(span id, kind, sql, params, ...)``.
        self.samples: List[tuple] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request_id: Optional[int] = None) -> int:
        self.spans.append((name, start, end, parent, request_id))
        return len(self.spans) - 1

    def timed(self, name: str, parent: int, fn, *args):
        """Run ``fn(*args)`` as a child span of ``parent``; returns its value."""
        request_id = self.spans[parent][4]
        start = now()
        value = fn(*args)
        self.add(name, start, now(), parent, request_id)
        return value

    def children_us(self, parents: Iterable[int]) -> Dict[int, Dict[str, float]]:
        """Per parent: child durations (microseconds) summed by span name."""
        wanted = set(parents)
        out: Dict[int, Dict[str, float]] = {p: defaultdict(float) for p in wanted}
        for name, start, end, parent, _ in self.spans:
            if parent in wanted:
                out[parent][name] += (end - start) * 1e6
        return out

    def duration_us(self, span_id: int) -> float:
        _, start, end, _, _ = self.spans[span_id]
        return (end - start) * 1e6

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request_id"],
                 "spans": self.spans, **extra},
                handle,
            )


def layer_table(tracer: Tracer, parents: Sequence[int], residual: str) -> Dict[str, float]:
    """Mean microseconds per layer over the given sampled statement spans.

    Every span contributes its children by name and its own self time
    under ``residual``.  Means, because only means add up: the columns sum
    to the spans' mean latency exactly, which the caller keeps close to
    the median by passing spans from the middle of the distribution.
    """
    per_parent = tracer.children_us(parents)
    columns: Dict[str, List[float]] = defaultdict(list)
    for parent, children in per_parent.items():
        for name, micros in children.items():
            columns[name].append(micros)
        columns[residual].append(tracer.duration_us(parent) - sum(children.values()))
    return {name: statistics.fmean(values) for name, values in columns.items()}


# ---------------------------------------------------------------------------
# Decomposed replays (public calls only)
# ---------------------------------------------------------------------------


def replay_select(tracer: Tracer, parent: int, db, text: str, engine: str) -> None:
    """parse -> bind -> optimize -> drain, each a child span of ``parent``."""
    from repro.exec.vectorized import execute_vectorized
    from repro.exec.volcano import execute_volcano
    from repro.optimizer.optimizer import Optimizer
    from repro.plan.binder import Binder
    from repro.sql.parser import parse

    statement = tracer.timed("sql.parse", parent, parse, text)
    logical = tracer.timed("plan.bind", parent, Binder(db.catalog).bind_query, statement)
    optimizer = Optimizer(db.catalog, db.cost_model, db.optimizer_options)
    _, physical = tracer.timed("optimizer.optimize", parent, optimizer.optimize, logical)
    run = execute_vectorized if engine == "vectorized" else execute_volcano
    tracer.timed("exec.run", parent, lambda: list(run(physical, db.catalog)))


def replay_codec(tracer: Tracer, parent: int, sql: str, params: tuple, result) -> None:
    """Both directions of the wire codec on one real request and its result."""
    from repro.net import protocol as proto

    def client_encode() -> bytes:
        rewritten, values = proto.normalize_params(sql, params)
        return proto.encode_message(proto.QUERY, [rewritten, values])

    def decode(data: bytes, payload_decoder) -> list:
        decoder = proto.FrameDecoder()
        decoder.feed(data)
        return [payload_decoder(kind, payload) for kind, payload in decoder.frames()]

    def server_encode() -> bytes:
        return b"".join(proto.iter_result_frames(
            result.columns, result.rows, result.rowcount, columnar=True))

    def client_payload(kind: int, payload: bytes):
        if kind == proto.RESULT_BATCH_COL:
            return proto.decode_columnar_batch(payload)
        return proto.decode_payload(payload) if payload else None

    request = tracer.timed("net.codec", parent, client_encode)
    tracer.timed("net.codec", parent, decode, request,
                 lambda kind, payload: proto.decode_payload(payload))
    response = tracer.timed("net.codec", parent, server_encode)
    tracer.timed("net.codec", parent, decode, response, client_payload)


def replay_wal(tracer: Tracer, parent: int, wal, kind: str, params: tuple) -> None:
    """The WAL records one autocommit DML statement writes, on a scratch log."""
    from repro.storage.wal import LogRecordType

    if kind == "insert":
        rows = [(params[i], params[i + 1]) for i in range(0, len(params), 2)]
        records = [(LogRecordType.INSERT, None, row) for row in rows]
    elif kind == "update":
        val, key = params
        records = [(LogRecordType.UPDATE, (key, 0), (key, val))]
    else:
        records = [(LogRecordType.DELETE, (params[0], 0), None)]

    def append() -> None:
        wal.append(1, LogRecordType.BEGIN)
        for slot, (type_, before, after) in enumerate(records):
            wal.append(1, type_, table="kv", rid=(0, slot), before=before, after=after)
        wal.append(1, LogRecordType.COMMIT)

    tracer.timed("storage.wal_append", parent, append)
    tracer.timed("storage.wal_flush", parent, wal.flush, True)


def index_probe(db, keys: Sequence[int]) -> Tuple[float, int]:
    """Median microseconds of ``BTree.search`` on kv_id, and the tree height."""
    tree = db.table("kv").index_on("id").structure
    micros = []
    for key in keys:
        start = now()
        tree.search(key)
        micros.append((now() - start) * 1e6)
    return (statistics.median(micros) if micros else 0.0), tree.height()

"""The two OLAP workloads: passes over eight TPC-H-shaped queries.

One in-memory database per run, loaded by ``load_tpch`` from the seed; a
*pass* runs Q1, Q3, Q5, Q6, Q10, Q12, Q15 and QSORT once each, with the
parameters of that pass's rotation.  ``olap_tpch_row`` runs them on the
Volcano engine over row storage with a buffer pool smaller than the data;
``olap_tpch_col`` on the vectorized engine over column storage with
``workers = C``.  Answers are checked against sqlite after the windows.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import layers
import oracle
import streams
import tracing
from harness import (
    ABBA,
    Config,
    Outcome,
    Recorder,
    median_setup,
    now,
    summarize,
)
from stats import median

WARMUP_PASSES = 2
#: Passes replayed decomposed after a traced run (each costs about a pass).
REPLAY_PASSES = 6


def run_olap(cfg: Config, name: str, engine: str, layout: str, workers: int) -> Outcome:
    from repro.core.database import Database
    from repro.workloads.tpch import load_tpch, tpch_query

    outcome = Outcome(name)

    def build(attempt: int):
        db = Database(engine=engine, default_layout=layout,
                      buffer_capacity=cfg.buffer_pages, workers=workers)
        load_tpch(db, scale_factor=cfg.scale_factor, seed=cfg.seed)
        return db

    setup_s, db = median_setup(build, lambda old: old.close(), cfg.setup_repeats)
    try:
        rotations = streams.olap_rotations(cfg.seed)
        texts = [[tpch_query(query, **params) for query, params in rotation]
                 for rotation in rotations]
        sqlite = oracle.build_sqlite(db)
        try:
            answers = [[sqlite.execute(text).fetchall() for text in rotation]
                       for rotation in texts]
        finally:
            sqlite.close()

        plain, traced = Recorder(), Recorder()
        tracer = tracing.Tracer() if cfg.trace else None
        executed: List[Tuple[Recorder, int, int, list]] = []
        turn = 0

        def run_pass(rec: Optional[Recorder], trc: Optional[tracing.Tracer]) -> None:
            nonlocal turn
            rotation = turn % len(texts)
            turn += 1
            pass_started = now()
            pass_span = None if trc is None else trc.add("pass", pass_started, pass_started)
            for position, text in enumerate(texts[rotation]):
                started = now()
                rows = db.execute(text).rows
                ended = now()
                if rec is None:
                    continue
                rec.latencies.append(ended - started)
                executed.append((rec, rotation, position, rows))
                if trc is not None:
                    span = trc.add("execute", started, ended, pass_span, len(trc.spans))
                    trc.samples.append((span, streams.OLAP_QUERIES[position], text, (), pass_span))
            if rec is not None:
                pass_ended = now()
                rec.passes.append(pass_ended - pass_started)
                if trc is not None:
                    trc.spans[pass_span] = ("pass", pass_started, pass_ended, None, pass_span)

        for _ in range(WARMUP_PASSES):
            run_pass(None, None)
        db.pool.reset_stats()
        # Tracing alternates per pass, A-B-B-A, for the reason Config.phases gives.
        window_started = now()
        while now() - window_started < cfg.seconds:
            is_traced = cfg.trace and ABBA[(len(plain.passes) + len(traced.passes)) % 4]
            rec = traced if is_traced else plain
            pass_started = now()
            run_pass(rec, tracer if is_traced else None)
            pass_seconds = now() - pass_started
            rec.elapsed += pass_seconds
            rec.rates.append(len(streams.OLAP_QUERIES) / pass_seconds)

        for rec, rotation, position, rows in executed:
            query = streams.OLAP_QUERIES[position]
            outcome.attempted += 1
            why = oracle.rows_match(query, rows, answers[rotation][position])
            if why is None:
                rec.ok += 1
            else:
                outcome.fail(f"{query} {rotations[rotation][position][1]!r}: {why}")

        summarize(cfg, outcome, setup_s, plain)
        outcome.detail["lineitem_rows"] = db.table("lineitem").row_count
        if cfg.trace:
            outcome.per_layer = layers.blank()
            outcome.per_layer.update({
                "storage.buffer_hit_rate": (db.pool.stats.hit_rate(), "ratio"),
                "storage.evictions": (float(db.pool.stats.evictions), "count"),
            })
            _replay_passes(cfg, outcome, tracer, db, engine, plain, traced)
    finally:
        db.close()
    return outcome


def _replay_passes(cfg: Config, outcome: Outcome, tracer: tracing.Tracer, db, engine: str,
                   plain: Recorder, traced: Recorder) -> None:
    """One pass = sum over its eight statements of parse + bind + optimize
    + ``core.self``, plus each query class's own ``exec.run.<Q>``."""
    by_pass: Dict[int, List[tuple]] = defaultdict(list)
    for sample in tracer.samples:
        by_pass[sample[4]].append(sample)
    # Like the OLTP tables, this one describes the *median* pass: replay
    # the passes that took closest to the traced median.
    middle = median(traced.passes) * 1e6
    chosen = sorted(by_pass, key=lambda p: abs(tracer.duration_us(p) - middle))[:REPLAY_PASSES]

    columns: Dict[str, List[float]] = defaultdict(list)
    for pass_span in chosen:
        samples = by_pass[pass_span]
        for span, _, text, _, _ in samples:
            tracing.replay_select(tracer, span, db, text, engine)
        children = tracer.children_us(sample[0] for sample in samples)
        row: Dict[str, float] = defaultdict(float)
        for span, query, _, _, _ in samples:
            parts = children[span]
            for name in ("sql.parse", "plan.bind", "optimizer.optimize"):
                row[name] += parts[name]
            row[f"exec.run.{query}"] = parts["exec.run"]
            row["core.self"] += tracer.duration_us(span) - sum(parts.values())
        for name, micros in row.items():
            columns[name].append(micros)
    table = {name: statistics.fmean(values) for name, values in columns.items()}

    layers.finish(cfg, outcome, tracer, table, middle / 1e6, plain, traced)
    metrics = outcome.per_layer
    for query in streams.OLAP_QUERIES:
        metrics[f"exec.run_us.{query}"] = metrics.pop(f"exec.run.{query}_us")
    run_us = sum(table[f"exec.run.{query}"] for query in streams.OLAP_QUERIES)
    metrics["exec.run_us"] = (run_us, "us")
    # Every one of the eight queries scans lineitem exactly once.
    scanned = len(streams.OLAP_QUERIES) * outcome.detail["lineitem_rows"]
    metrics["exec.rows_per_s"] = (scanned / (run_us / 1e6), "1/s")

"""Per-layer metrics: their names and units, and how the traced run fills them.

A layer is a module under ``src/repro``.  Every workload reports every
per-layer metric; a layer the workload bypasses reports 0, which is the
separation between workloads the README's table predicts.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Tuple

import streams
import tracing
from harness import OUT, Config, Outcome, Recorder
from stats import median, percentile

#: Latency quantiles between which a sampled statement counts as "the
#: median statement" for the per-layer table.
MEDIAN_BAND = (0.40, 0.60)

UNITS: Dict[str, str] = {
    "net.codec_us": "us", "net.wait_us": "us",
    "net.throttle_ratio": "ratio", "net.protocol_errors": "count",
    "sql.parse_us": "us", "plan.bind_us": "us", "optimizer.optimize_us": "us",
    "core.self_us": "us", "core.plan_cache_hit_rate": "ratio",
    "exec.run_us": "us", "exec.rows_per_s": "1/s",
    **{f"exec.run_us.{query}": "us" for query in streams.OLAP_QUERIES},
    "index.lookup_us": "us", "index.height": "count",
    "storage.wal_append_us": "us", "storage.wal_flush_us": "us",
    "storage.wal_bytes_per_user_byte": "B/B", "storage.file_bytes_per_user_byte": "B/B",
    "storage.checkpoints": "count", "storage.buffer_hit_rate": "ratio",
    "storage.evictions": "count", "storage.recovery_s": "s",
    "trace.p50_ms": "ms", "trace.table_sum_ms": "ms", "trace_overhead_ratio": "ratio",
}


def blank() -> Dict[str, Tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in UNITS.items()}


def finish(cfg: Config, outcome: Outcome, tracer: tracing.Tracer, table: Dict[str, float],
           traced_p50_s: float, plain: Recorder, traced: Recorder) -> None:
    """Fold a layer table (span name -> mean us) into the per-layer
    metrics, add the sum check and the tracing overhead, write the spans."""
    layers = outcome.per_layer
    for span_name, micros in table.items():
        layers[span_name + "_us"] = (micros, "us")
    layers["trace.p50_ms"] = (traced_p50_s * 1e3, "ms")
    layers["trace.table_sum_ms"] = (sum(table.values()) / 1e3, "ms")
    # Median over the alternated stretches, not the pooled rate: a
    # checkpoint stall lands in one stretch, traced or not, by chance.
    layers["trace_overhead_ratio"] = (
        statistics.median(traced.rates) / statistics.median(plain.rates), "ratio")
    outcome.detail["layer_table_us"] = dict(sorted(table.items(), key=lambda kv: -kv[1]))
    path = os.path.join(OUT, f"trace-{outcome.workload}.json")
    tracer.write(path, {"workload": outcome.workload, "meta": cfg.metadata()})
    outcome.detail["trace_file"] = os.path.relpath(path, os.path.dirname(OUT))


def replay_oltp(cfg: Config, outcome: Outcome, tracer: tracing.Tracer, db,
                plain: Recorder, traced: Recorder, wire: bool) -> None:
    """Decompose the sampled statements of an OLTP workload.

    The median statement of a 90/10 mix is a read, so the table that must
    add up to p50 is built from the sampled reads:

    * wire: codec replay + prepared embedded execute + ``net.wait`` (the
      residual: socket, batch wait, executor hop, lock wait);
    * embedded: parse + bind + optimize + exec + ``core.self`` (the
      residual: parameter substitution, cache probes, result assembly).

    Sampled writes get their statement's WAL records appended and fsynced
    on a scratch log; in ``embedded_write`` (no reads) they are the table.
    """
    from repro.sql.params import substitute_params
    from repro.sql.parser import parse
    from repro.storage.wal import WriteAheadLog

    select = db.prepare(streams.SELECT_SQL) if wire else None
    scratch = WriteAheadLog(os.path.join(cfg.workdir, "scratch.wal"))
    reads: List[int] = []
    writes: List[int] = []
    keys: List[int] = []
    try:
        for span, kind, sql, params, result, cache_hit in tracer.samples:
            if kind != "insert":
                keys.append(params[-1])
            if kind != "select":
                writes.append(span)
                if not wire:
                    tracer.timed("sql.parse", span, parse, substitute_params(sql, list(params)))
                tracing.replay_wal(tracer, span, scratch, kind, params)
            elif wire:
                reads.append(span)
                tracing.replay_codec(tracer, span, sql, params, result)
                tracer.timed("exec.run", span, select.execute, params)
            elif not cache_hit:  # a plan-cache hit never parsed or planned
                reads.append(span)
                tracing.replay_select(
                    tracer, span, db, substitute_params(sql, list(params)), "volcano")
    finally:
        scratch.close()
    residual = "net.wait" if wire else "core.self"
    # The table describes the *median* statement: only samples from the
    # middle of the traced latency distribution feed it, so a mix of
    # statement kinds (or a read that hit a stall) cannot skew a column
    # and the columns add up to p50.
    ordered = sorted(traced.latencies)
    low, high = (percentile(ordered, q, 0) * 1e6 for q in MEDIAN_BAND)
    middle = [span for span in (reads or writes) if low <= tracer.duration_us(span) <= high]
    table = tracing.layer_table(tracer, middle, residual)
    finish(cfg, outcome, tracer, table, median(traced.latencies), plain, traced)
    layers = outcome.per_layer
    if reads:
        wal = tracing.layer_table(tracer, writes, residual)
        for name in ("storage.wal_append", "storage.wal_flush"):
            layers[name + "_us"] = (wal.get(name, 0.0), "us")
        layers["exec.rows_per_s"] = (1e6 / table["exec.run"], "1/s")
    lookup_us, height = tracing.index_probe(db, keys)
    layers["index.lookup_us"] = (lookup_us, "us")
    layers["index.height"] = (float(height), "count")

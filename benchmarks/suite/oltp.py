"""The four OLTP-shaped workloads over the kv fixture.

``wire_oltp_serial`` / ``wire_oltp_pipelined`` drive a separate
``python -m repro serve`` process through the asyncio client;
``embedded_oltp`` / ``embedded_write`` call ``Database.execute`` in
process.  Every answer is checked against the stream's model, and after
the windows the database is crashed (SIGKILL, or its files copied without
``close()``), reopened, and compared row by row with the model.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

import layers
import streams
import tracing
from harness import (
    ABBA,
    PIPELINE_WINDOW,
    SAMPLE_EVERY,
    Config,
    Outcome,
    Recorder,
    median_setup,
    now,
    server_env,
    summarize,
)

USER_BYTES_PER_VALUE = 8  # every kv cell is a 64-bit integer


# ---------------------------------------------------------------------------
# Fixture
# ---------------------------------------------------------------------------


def build_kv(path: str, rows: List[Tuple[int, int]]):
    """create / load / index / ANALYZE a file-backed kv table."""
    from repro.core.database import Database

    db = Database(path=path)  # file-backed default: durability="fsync"
    db.execute(streams.KV_DDL[0])
    db.insert_rows("kv", rows)
    db.execute(streams.KV_DDL[1])
    db.analyze()
    return db


class Server:
    """One ``python -m repro serve`` subprocess with default flags."""

    def __init__(self, db_path: str, stats_path: str):
        self.db_path, self.stats_path = db_path, stats_path
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", db_path,
             "--port", "0", "--stats-file", stats_path],
            env=server_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if not match:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def kill(self) -> None:
        """SIGKILL: user-space buffers are lost, the OS page cache is not."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()

    def terminate(self) -> Dict[str, int]:
        """Graceful stop; returns the ``--stats-file`` counters."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        self.kill()
        with open(self.stats_path, encoding="utf-8") as handle:
            return json.load(handle)


def crash_copy(db_path: str, directory: str) -> str:
    """Copy db + WAL + sidecar as they are on disk now, without close()."""
    os.makedirs(directory, exist_ok=True)
    target = os.path.join(directory, os.path.basename(db_path))
    for suffix in ("", ".wal", ".meta.json"):
        if os.path.exists(db_path + suffix):
            shutil.copyfile(db_path + suffix, target + suffix)
    return target


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check_statement(stmt: streams.Statement, result) -> Optional[str]:
    """Why ``result`` is wrong for this statement, or ``None``."""
    kind, _, _, expected = stmt
    if kind == "select":
        rows = result.rows
        if len(rows) != 1 or rows[0][0] != expected:
            return f"got {rows!r}, model has {expected!r}"
    elif result.rowcount != expected:
        return f"rowcount {result.rowcount}, expected {expected}"
    return None


def check_totals(outcome: Outcome, rows, model: Dict[int, int]) -> None:
    outcome.attempted += 1
    want = (sum(model.values()), len(model))
    if len(rows) != 1 or tuple(rows[0]) != want:
        outcome.fail(f"{streams.TOTALS_SQL}: got {rows!r}, model has {want!r}")


def check_rows(outcome: Outcome, db, model: Dict[int, int], what: str) -> None:
    """Every stored row equals the model: a difference is an acknowledged
    write that was lost, a half-applied statement or a resurrected delete."""
    outcome.attempted += 1
    stored = dict(db.execute("SELECT id, val FROM kv").rows)
    for key in sorted(model.keys() | stored.keys()):
        if model.get(key) != stored.get(key):
            outcome.fail(f"{what}: id {key} stored {stored.get(key)!r}, "
                         f"acknowledged {model.get(key)!r}")


def check_recovery(outcome: Outcome, db_path: str, model: Dict[int, int]):
    """Reopen a crashed database, time it, compare every row with the model."""
    from repro.core.database import Database

    started = now()
    db = Database(path=db_path)
    recovery_s = now() - started
    if db.recovery_stats is None:
        outcome.fail("reopen after crash did not run recovery")
    check_rows(outcome, db, model, "lost write")
    outcome.detail["recovery_s"] = recovery_s
    return db, recovery_s


class Window:
    """Per-phase bookkeeping shared by every OLTP client loop."""

    def __init__(self, cfg: Config, outcome: Outcome, rec: Recorder,
                 tracer: Optional[tracing.Tracer] = None):
        self.outcome, self.rec, self.tracer = outcome, rec, tracer
        self.pass_size = cfg.oltp_pass
        self._count = 0

    def done(self, stmt, started: float, ended: float, result, cache_hit=False) -> None:
        self.outcome.attempted += 1
        why = check_statement(stmt, result)
        if why is not None:
            self.outcome.fail(f"{stmt[1]} {stmt[2]!r}: {why}")
            return
        self.rec.ok += 1
        self.rec.latencies.append(ended - started)
        if self.tracer is not None:
            span = self.tracer.add("execute", started, ended, None, len(self.tracer.spans))
            self._count += 1
            if self._count % SAMPLE_EVERY == 0:
                self.tracer.samples.append((span, *stmt[:3], result, cache_hit))

    def error(self, stmt, exc: BaseException) -> None:
        self.outcome.attempted += 1
        self.outcome.fail(f"{stmt[1]} {stmt[2]!r}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Wire workloads
# ---------------------------------------------------------------------------


async def _serial_client(conn, stream, deadline: float, window: Window) -> None:
    from repro.core.errors import ReproError

    pass_started, in_pass = now(), 0
    while now() < deadline and not conn.closed:
        stmt = next(stream)
        started = now()
        try:
            result = await conn.execute(stmt[1], stmt[2])
        except ReproError as exc:
            window.error(stmt, exc)
            continue
        ended = now()
        window.done(stmt, started, ended, result)
        in_pass += 1
        if in_pass == window.pass_size:
            window.rec.passes.append(ended - pass_started)
            pass_started, in_pass = ended, 0


async def _pipelined_client(conn, stream, deadline: float, window: Window) -> None:
    from repro.core.errors import ReproError

    while now() < deadline and not conn.closed:
        # One pass per pipeline() block, so the block's handle list is
        # dropped at every pass boundary instead of growing all run.
        submitted = []
        pass_started = now()
        async with conn.pipeline(window=PIPELINE_WINDOW) as pipe:
            while len(submitted) < window.pass_size and now() < deadline:
                stmt = next(stream)
                started = now()
                submitted.append((stmt, started, await pipe.execute(stmt[1], stmt[2])))
        for stmt, started, handle in submitted:
            try:
                result = handle.result()
            except ReproError as exc:
                window.error(stmt, exc)
                continue
            window.done(stmt, started, handle.completed_at, result)
        if len(submitted) == window.pass_size:
            window.rec.passes.append(submitted[-1][2].completed_at - pass_started)


async def _drive_wire(cfg: Config, port: int, mix: List[streams.MixStream], pipelined: bool,
                      outcome: Outcome, plain: Recorder, traced: Recorder,
                      tracer: Optional[tracing.Tracer]) -> int:
    from repro.net.client import aconnect

    client = _pipelined_client if pipelined else _serial_client
    conns = [await aconnect(port=port, user=f"suite{i}") for i in range(cfg.conns)]
    try:
        async def phase(seconds: float, rec: Recorder, sink: Outcome, trc) -> None:
            started, before = now(), rec.ok
            await asyncio.gather(*(
                client(conn, stream, started + seconds, Window(cfg, sink, rec, trc))
                for conn, stream in zip(conns, mix)
            ))
            elapsed = now() - started
            rec.elapsed += elapsed
            rec.rates.append((rec.ok - before) / elapsed)

        await phase(cfg.warmup, Recorder(), Outcome("warmup"), None)
        for seconds, is_traced in cfg.phases():
            await phase(seconds, traced if is_traced else plain, outcome,
                        tracer if is_traced else None)
        totals = await conns[0].execute(streams.TOTALS_SQL)
        check_totals(outcome, totals.rows, streams.RoundRobin(mix).model())
        return sum(conn.throttles for conn in conns)
    finally:
        for conn in conns:
            await conn.close()


def run_wire(cfg: Config, name: str, pipelined: bool) -> Outcome:
    from repro.net.client import connect

    outcome = Outcome(name)
    rows = streams.kv_rows(cfg.seed, cfg.kv_rows)

    def build(attempt: int) -> Server:
        directory = os.path.join(cfg.workdir, f"fixture{attempt}")
        os.makedirs(directory)
        path = os.path.join(directory, "kv.db")
        build_kv(path, rows).close()
        server = Server(path, os.path.join(directory, "stats.json"))
        try:
            # Optimizer statistics are not persisted: without this the
            # reopened table is planned as a SeqScan per point query.
            with connect(port=server.port, user="setup") as conn:
                conn.execute("ANALYZE")
        except BaseException:
            server.kill()
            raise
        return server

    setup_s, server = median_setup(build, Server.kill, cfg.setup_repeats)
    initial = dict(rows)
    mix = [streams.MixStream(cfg.seed, i, cfg.conns, initial) for i in range(cfg.conns)]
    plain, traced = Recorder(), Recorder()
    tracer = tracing.Tracer() if cfg.trace else None
    stats: Dict[str, int] = {}
    try:
        throttles = asyncio.run(
            _drive_wire(cfg, server.port, mix, pipelined, outcome, plain, traced, tracer))
        crashed = server.db_path
        if cfg.trace:
            # The stats file is only written on a graceful stop, so the
            # traced run crashes a *copy* taken while the server is idle:
            # the same bytes a SIGKILL at this instant would leave behind.
            crashed = crash_copy(server.db_path, os.path.join(cfg.workdir, "crash"))
            stats = server.terminate()
    finally:
        server.kill()
    db, recovery_s = check_recovery(outcome, crashed, streams.RoundRobin(mix).model())
    try:
        summarize(cfg, outcome, setup_s, plain)
        if cfg.trace:
            db.analyze()
            outcome.per_layer = layers.blank()
            outcome.per_layer.update({
                "net.throttle_ratio": (throttles / (plain.ok + traced.ok), "ratio"),
                "net.protocol_errors": (float(stats["protocol_errors"]), "count"),
                "storage.recovery_s": (recovery_s, "s"),
            })
            layers.replay_oltp(cfg, outcome, tracer, db, plain, traced, wire=True)
    finally:
        db.close()
    return outcome


# ---------------------------------------------------------------------------
# Embedded workloads
# ---------------------------------------------------------------------------


def _embedded_window(db, stream, seconds: float, pick, meter=None) -> None:
    """Run whole passes until ``seconds`` are up; ``pick(i)`` is pass i's Window.

    Whole passes on purpose: in embedded_write one pass is one checkpoint
    interval, so every pass carries exactly one checkpoint and traced and
    untraced passes (alternated A-B-B-A by the caller) stay comparable.
    """
    from repro.core.errors import ReproError

    window_started = now()
    index = 0
    while now() - window_started < seconds:
        window = pick(index)
        index += 1
        pass_started = now()
        for _ in range(window.pass_size):
            stmt = next(stream)
            started = now()
            try:
                result = db.execute(stmt[1], params=stmt[2])
            except ReproError as exc:
                window.error(stmt, exc)
                continue
            window.done(stmt, started, now(), result, db.last_stats.plan_cache_hit)
            if meter is not None:
                meter.after(stmt)
        pass_seconds = now() - pass_started
        window.rec.passes.append(pass_seconds)
        window.rec.rates.append(window.pass_size / pass_seconds)
        window.rec.elapsed += pass_seconds


class WalMeter:
    """WAL bytes and checkpoints, seen from outside through ``os.stat``.

    A checkpoint replaces the log file (new inode), and everything in the
    new file was written by it; otherwise the file only grows by appends.
    """

    def __init__(self, wal_path: str):
        self._path = wal_path
        stat = os.stat(wal_path)
        self._ino, self._size = stat.st_ino, stat.st_size
        self.wal_bytes = self.user_bytes = self.checkpoints = 0

    def after(self, stmt: streams.Statement) -> None:
        if stmt[0] == "select":
            return
        self.user_bytes += USER_BYTES_PER_VALUE * len(stmt[2])
        stat = os.stat(self._path)
        if stat.st_ino != self._ino:
            self.checkpoints += 1
            self.wal_bytes += stat.st_size
        else:
            self.wal_bytes += stat.st_size - self._size
        self._ino, self._size = stat.st_ino, stat.st_size


def run_embedded(cfg: Config, name: str, write_only: bool) -> Outcome:
    outcome = Outcome(name)
    rows = streams.kv_rows(cfg.seed, cfg.kv_rows)

    def build(attempt: int):
        directory = os.path.join(cfg.workdir, f"fixture{attempt}")
        os.makedirs(directory)
        return build_kv(os.path.join(directory, "kv.db"), rows)

    setup_s, db = median_setup(build, lambda old: old.close(), cfg.setup_repeats)
    try:
        initial = dict(rows)
        if write_only:
            stream = streams.WriteStream(cfg.seed, initial)
        else:
            stream = streams.RoundRobin(
                [streams.MixStream(cfg.seed, i, cfg.conns, initial) for i in range(cfg.conns)])
        plain, traced = Recorder(), Recorder()
        tracer = tracing.Tracer() if cfg.trace else None
        meter = WalMeter(db.wal_path) if cfg.trace else None
        warm = Window(cfg, Outcome("warmup"), Recorder())
        _embedded_window(db, stream, cfg.warmup, lambda i: warm)
        cache = db.plan_cache.stats
        cache_before = (cache.hits, cache.misses)
        db.pool.reset_stats()
        plain_window = Window(cfg, outcome, plain)
        traced_window = Window(cfg, outcome, traced, tracer)
        _embedded_window(
            db, stream, cfg.seconds,
            lambda i: traced_window if cfg.trace and ABBA[i % 4] else plain_window, meter)
        model = stream.model()
        check_totals(outcome, db.execute(streams.TOTALS_SQL).rows, model)
        recovery_s = 0.0
        if write_only:
            crashed = crash_copy(db.path, os.path.join(cfg.workdir, "crash"))
            recovered, recovery_s = check_recovery(outcome, crashed, model)
            recovered.close()
        else:
            check_rows(outcome, db, model, "stale row")
        summarize(cfg, outcome, setup_s, plain)
        if cfg.trace:
            hits, misses = cache.hits - cache_before[0], cache.misses - cache_before[1]
            outcome.per_layer = layers.blank()
            outcome.per_layer.update({
                "core.plan_cache_hit_rate": (hits / max(1, hits + misses), "ratio"),
                "storage.buffer_hit_rate": (db.pool.stats.hit_rate(), "ratio"),
                "storage.evictions": (float(db.pool.stats.evictions), "count"),
                "storage.checkpoints": (float(meter.checkpoints), "count"),
                "storage.wal_bytes_per_user_byte":
                    (meter.wal_bytes / max(1, meter.user_bytes), "B/B"),
                "storage.recovery_s": (recovery_s, "s"),
            })
            layers.replay_oltp(cfg, outcome, tracer, db, plain, traced, wire=False)
    finally:
        db.close()
    if cfg.trace:
        # After close() the log is checkpointed and every page is on disk:
        # the space the data occupies at rest.
        stored = sum(os.path.getsize(db.path + suffix) for suffix in ("", ".wal", ".meta.json"))
        live = 2 * USER_BYTES_PER_VALUE * len(model)
        outcome.per_layer["storage.file_bytes_per_user_byte"] = (stored / live, "B/B")
    return outcome

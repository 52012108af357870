"""The Database facade: the library's main entry point.

One object wires together the storage engine, catalog, SQL front end,
optimizer, execution engines, and WAL-backed statement transactions::

    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    print(db.execute("SELECT * FROM t WHERE a = 1").rows)

Design knobs map to the paper's themes:

* ``engine`` — ``"volcano"`` or ``"vectorized"``: two physical engines for
  one logical language (physical data independence, experiment E8);
* ``default_layout`` — ``"row"`` or ``"column"`` storage for new tables;
* ``optimizer_options`` — declarative queries get automatic optimization
  (experiment E9 flips these switches);
* ``buffer_capacity`` / ``buffer_policy`` — the buffer pool whose
  replacement policies the KV-cache simulator reuses (experiment E5).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.catalog import COLUMN_LAYOUT, ROW_LAYOUT, Catalog, TableInfo
from repro.core.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    ReproError,
    TransactionError,
)
from repro.core.plancache import (
    CachedPlan,
    PlanCache,
    PreparedStatement,
    is_plan_cacheable,
    normalize_sql,
)
from repro.core.querycache import QueryCache, referenced_tables
from repro.txn import trace as schedule_trace
from repro.core.result import Result
from repro.core.types import Column, DataType, Row, Schema
from repro.exec.compile import evaluator
from repro.exec.vectorized import execute_vectorized
from repro.exec.volcano import execute_volcano
from repro.optimizer.cost import CostModel
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.plan.binder import Binder
from repro.plan.expressions import ParamVector, is_constant
from repro.sql import ast
from repro.sql.params import count_placeholders, normalize_params, substitute_params
from repro.sql.parser import parse
from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDiskManager, InMemoryDiskManager
from repro.storage.faults import NULL_INJECTOR, BufferedCrashFile, FaultyDiskManager
from repro.storage.recovery import recover_database
from repro.storage.replacement import make_policy
from repro.storage.wal import (
    SYSTEM_TXN,
    LogRecordType,
    WriteAheadLog,
    read_log_file,
)

VOLCANO = "volcano"
VECTORIZED = "vectorized"

#: Durability modes: "none" disables the WAL entirely; "commit" flushes the
#: log to the OS at every commit (survives a process kill); "fsync" also
#: fsyncs (survives power loss).  File-backed databases default to "fsync".
DURABILITY_MODES = ("none", "commit", "fsync")


def _workers_from_env() -> Optional[int]:
    """Worker count requested by the environment, or None to leave options be.

    ``REPRO_WORKERS=N`` pins an exact count; ``REPRO_PARALLEL=1`` enables
    parallel plans with ``max(2, cpu_count)`` workers (the CI matrix leg
    sets both, explicitly).
    """
    count = os.environ.get("REPRO_WORKERS", "")
    if count:
        return int(count)
    if os.environ.get("REPRO_PARALLEL", "") not in ("", "0"):
        return max(2, os.cpu_count() or 1)
    return None


@dataclass
class StatementStats:
    """Timing + plan info for the most recent statement."""

    sql: str = ""
    parse_ms: float = 0.0
    optimize_ms: float = 0.0
    execute_ms: float = 0.0
    total_ms: float = 0.0
    rows: int = 0
    plan_cache_hit: bool = False


class Database:
    """An embedded multi-modal SQL database."""

    def __init__(
        self,
        path: Optional[str] = None,
        buffer_capacity: int = 1024,
        buffer_policy: str = "lru",
        default_layout: str = ROW_LAYOUT,
        engine: str = VOLCANO,
        optimizer_options: Optional[OptimizerOptions] = None,
        cost_model: Optional[CostModel] = None,
        wal_path: Optional[str] = None,
        result_cache_size: int = 0,
        plan_cache_size: int = 128,
        durability: Optional[str] = None,
        checkpoint_interval: int = 512,
        fault_injector=None,
        verify_plans: Optional[bool] = None,
        record_schedule: Optional[bool] = None,
        workers: Optional[int] = None,
    ):
        if engine not in (VOLCANO, VECTORIZED):
            raise ReproError(f"unknown engine {engine!r}")
        if default_layout not in (ROW_LAYOUT, COLUMN_LAYOUT):
            raise ReproError(f"unknown layout {default_layout!r}")
        self.path = path
        self.faults = fault_injector if fault_injector is not None else NULL_INJECTOR
        resolved_wal = wal_path if wal_path is not None else (
            path + ".wal" if path else None
        )
        if durability is None:
            durability = "fsync" if resolved_wal else "commit"
        if durability not in DURABILITY_MODES:
            raise ReproError(f"unknown durability mode {durability!r}")
        self.durability = durability
        self._wal_enabled = durability != "none"
        self.wal_path = resolved_wal if self._wal_enabled else None
        self.checkpoint_interval = checkpoint_interval
        self._commits_since_checkpoint = 0

        # --- open protocol: decide between fast attach and crash recovery.
        # The sidecar records the WAL position of the last clean shutdown;
        # a WAL that grew past it (or a missing/unclean sidecar) means the
        # process died mid-flight and the heap pages cannot be trusted.
        from repro.catalog.persistence import load_catalog, load_metadata

        existing_records = []
        if (
            self.wal_path
            and os.path.exists(self.wal_path)
            and os.path.getsize(self.wal_path) > 0
        ):
            existing_records = read_log_file(self.wal_path)
        meta = load_metadata(path) if path else {}
        last_durable_lsn = existing_records[-1].lsn if existing_records else 0
        clean_attach = (
            bool(meta)
            and meta.get("clean", True)
            and meta.get("shutdown_lsn", last_durable_lsn) == last_durable_lsn
        )
        need_recovery = bool(existing_records) and path is not None and not clean_attach
        if need_recovery:
            # Heap pages may hold torn or uncommitted images; the WAL is the
            # source of truth.  Start the page file over and rebuild.
            open(path, "wb").close()

        disk = FileDiskManager(path) if path else InMemoryDiskManager()
        if fault_injector is not None:
            disk = FaultyDiskManager(disk, self.faults)
        self.disk = disk
        self.pool = BufferPool(
            self.disk, capacity=buffer_capacity, policy=make_policy(buffer_policy)
        )
        self.catalog = Catalog(self.pool)
        if path and not need_recovery:
            load_catalog(self.catalog, path)
        opener = None
        if fault_injector is not None:
            opener = lambda p: BufferedCrashFile(p, self.faults)  # noqa: E731
        self.wal = WriteAheadLog(self.wal_path, opener=opener)
        self.default_layout = default_layout
        self.engine = engine
        self.optimizer_options = (
            optimizer_options if optimizer_options is not None else OptimizerOptions()
        )
        # Intra-query parallelism.  Explicit ``workers=N`` wins; otherwise
        # REPRO_WORKERS=N, then REPRO_PARALLEL=1 (=> 2 workers), then the
        # optimizer options as passed.  ``replace`` keeps a caller-supplied
        # options object unmutated (it may be shared across databases).
        if workers is None:
            workers = _workers_from_env()
        if workers is not None:
            if workers < 0:
                raise ReproError(f"workers must be >= 0, got {workers}")
            self.optimizer_options = replace(self.optimizer_options, workers=workers)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        # Plan-invariant verification: opt-in per Database, with an env
        # default so the whole test suite runs verified (REPRO_VERIFY_PLANS=1
        # in tests/conftest.py).
        if verify_plans is None:
            verify_plans = os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")
        self.verify_plans = verify_plans
        # Concurrency-sanitizer schedule recording: statement transactions
        # log begin/read/write/commit/abort events (reads at table, writes
        # at (table, rid) granularity) for `python -m repro sanitize`.
        # Opt-in per Database, or suite-wide via REPRO_SANITIZE=1.
        if record_schedule is None:
            record_schedule = schedule_trace.sanitize_enabled()
        self.schedule_recorder: Optional[schedule_trace.ScheduleRecorder] = (
            schedule_trace.ScheduleRecorder(scheme="database")
            if record_schedule
            else None
        )
        self.last_stats = StatementStats()
        self.result_cache: Optional[QueryCache] = (
            QueryCache(result_cache_size) if result_cache_size > 0 else None
        )
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(plan_cache_size) if plan_cache_size > 0 else None
        )
        self._binder = Binder(self.catalog, subquery_executor=self._run_subplan)
        self._lock = threading.RLock()
        self._closed = False
        # Never reuse a transaction id that appears in the existing log: a
        # reused id could pair a fresh BEGIN with a stale COMMIT on replay.
        self._txn_id = max((r.txn_id for r in existing_records), default=0)
        self._active_txn: Optional[int] = None
        self._undo_log: List[Tuple[str, str, Any, Optional[Row]]] = []
        self._group_depth = 0
        self._group_dirty = False
        self.recovery_stats: Optional[Dict[str, int]] = None
        if need_recovery:
            self.recovery_stats = self._rebuild_from_records(existing_records)
            # Re-anchor the log: replayed rows live at fresh rids now, so
            # compact to a snapshot before any new record references them.
            self.checkpoint()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: str,
        engine: Optional[str] = None,
        params: Optional[Sequence[Any]] = None,
    ) -> Result:
        """Parse, plan, and run one SQL statement.

        ``params`` binds Python values to placeholders (escaped client-side,
        so string values are always safe).  Three styles, matching the
        network clients: ``?`` / ``$1`` positional with a sequence, or
        ``:name`` with a mapping::

            db.execute("SELECT * FROM t WHERE name = ? AND n < ?", params=("o'brien", 5))
            db.execute("SELECT * FROM t WHERE name = :n", params={"n": "o'brien"})
        """
        with self._lock:
            started = time.perf_counter()
            if params is not None:
                sql, values = normalize_params(sql, params)
                sql = substitute_params(sql, values)
            engine_used = engine or self.engine
            normalized = normalize_sql(sql)
            # Result cache first: only SELECTs are ever stored, so a hit
            # implies the text is a SELECT without parsing it at all.
            cache_key = (normalized, engine_used)
            if self.result_cache is not None:
                cached = self.result_cache.get(cache_key)
                if cached is not None:
                    finished = time.perf_counter()
                    self.last_stats = StatementStats(
                        sql=sql,
                        total_ms=(finished - started) * 1e3,
                        rows=len(cached.rows),
                    )
                    return Result(columns=list(cached.columns), rows=list(cached.rows))
            # Plan cache next: skip parse/bind/optimize, re-run the plan.
            if self.plan_cache is not None:
                entry = self.plan_cache.get(
                    normalized,
                    self.catalog.version,
                    self.catalog.stats_epoch,
                    self._options_key(),
                )
                if entry is not None:
                    if self.schedule_recorder is not None:
                        self._record_schedule_reads(entry.tables)
                    rows = self._run_physical(entry.physical, engine_used)
                    result = Result(
                        columns=list(entry.columns), rows=rows, rowcount=len(rows)
                    )
                    if self.result_cache is not None and entry.tables is not None:
                        self.result_cache.put(
                            cache_key, list(result.columns), list(result.rows),
                            set(entry.tables),
                        )
                    finished = time.perf_counter()
                    self.last_stats = StatementStats(
                        sql=sql,
                        execute_ms=(finished - started) * 1e3,
                        total_ms=(finished - started) * 1e3,
                        rows=len(rows),
                        plan_cache_hit=True,
                    )
                    return result
            statement = parse(sql)
            parsed = time.perf_counter()
            result = self._dispatch(statement, engine_used, normalized)
            if (
                self.result_cache is not None
                and isinstance(statement, (ast.SelectStmt, ast.SetOpStmt))
                and result.plan_text is None
            ):
                tables = referenced_tables(statement)
                if tables is not None:
                    # Store copies: callers may mutate their Result freely.
                    self.result_cache.put(
                        cache_key, list(result.columns), list(result.rows), tables
                    )
            finished = time.perf_counter()
            self.last_stats = StatementStats(
                sql=sql,
                parse_ms=(parsed - started) * 1e3,
                execute_ms=(finished - parsed) * 1e3,
                total_ms=(finished - started) * 1e3,
                rows=len(result.rows) if result.rows else result.rowcount,
            )
            return result

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse, bind, and optimize once; execute many times.

        SELECT statements (without subqueries) get a *bound* plan whose ``?``
        placeholders read from a shared parameter vector — each
        ``stmt.execute(params)`` writes the values and re-runs the cached
        physical plan, skipping parse/bind/optimize/codegen entirely.  Other
        statements fall back to client-side substitution per execution::

            stmt = db.prepare("SELECT * FROM t WHERE a = ? AND b < ?")
            stmt.execute((1, 10.0))
            stmt.execute((2, 99.5))
        """
        with self._lock:
            prep = PreparedStatement(self, sql)
            prep.param_count = count_placeholders(sql)
            prep.statement = parse(sql)
            if is_plan_cacheable(prep.statement):
                prep.param_vector = ParamVector(prep.param_count)
                self._plan_prepared(prep)
                prep.uses_bound_plan = True
            return prep

    def explain(self, sql: str) -> str:
        """The optimized physical plan for a SELECT, as text."""
        result = self.execute(f"EXPLAIN {sql}" if not sql.upper().lstrip().startswith("EXPLAIN") else sql)
        return result.plan_text or ""

    def analyze(self, table: Optional[str] = None) -> None:
        """Recompute optimizer statistics."""
        with self._lock:
            self.catalog.analyze(table)

    def create_table(
        self, name: str, schema: Schema, layout: Optional[str] = None
    ) -> TableInfo:
        """Programmatic CREATE TABLE (the SQL path calls this too)."""
        with self._lock:
            layout = layout or self.default_layout
            table = self.catalog.create_table(name, schema, layout)
            self._log_ddl(
                LogRecordType.CREATE_TABLE,
                table.name,
                (self._schema_payload(table), layout),
            )
            return table

    def insert_rows(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert Python tuples as one statement (SQL INSERT runs through here).

        The whole batch commits as one transaction: one WAL flush instead
        of one per row."""
        with self._lock:
            table = self.catalog.get_table(table_name)
            count = 0
            with self._statement_scope():
                for row in rows:
                    rid, stored = table.insert(row)
                    self._log_write(table.name, "insert", rid, None, stored)
                    count += 1
            return count

    def table(self, name: str) -> TableInfo:
        return self.catalog.get_table(name)

    def close(self) -> None:
        """Graceful shutdown: roll back any open transaction, flush dirty
        pages, checkpoint the WAL, mark the sidecar clean so the next open
        fast-attaches instead of running recovery, and release every cache
        that pins rows or plans.

        Idempotent: the server opens and closes thousands of sessions, and
        double-close (context manager + explicit call, or error-path
        cleanup racing normal teardown) must be a no-op, not a crash on an
        already-closed WAL file.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self._active_txn is not None:
                    self._rollback()
                self.pool.flush_all()
                if self.path and hasattr(self.disk, "sync"):
                    self.disk.sync()
                if self.path and self._wal_enabled:
                    self.checkpoint()
                if self.path:
                    from repro.catalog.persistence import save_catalog

                    save_catalog(
                        self.catalog,
                        self.path,
                        clean=True,
                        shutdown_lsn=self.wal.last_lsn,
                    )
                self.wal.flush(fsync=self.durability == "fsync")
            finally:
                # A failed step (e.g. an unpersistable column table) must not leak handles.
                self.wal.close()
                self.disk.close()
                # Release cached plans/results/decoded rows: cached physical
                # plans pin index state and row snapshots, and a long-lived
                # process that opens thousands of Databases (the server's
                # open/close-per-session tests do exactly this) must not
                # accumulate them after close.
                if self.plan_cache is not None:
                    self.plan_cache.invalidate_all()
                if self.result_cache is not None:
                    self.result_cache.clear()
                for name in self.catalog.table_names():
                    self.catalog.get_table(name).release_caches()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self, statement: ast.Statement, engine: str, normalized: Optional[str] = None
    ) -> Result:
        if isinstance(statement, (ast.SelectStmt, ast.SetOpStmt)):
            return self._execute_select(statement, engine, normalized)
        if isinstance(statement, ast.ExplainStmt):
            return self._execute_explain(statement)
        if isinstance(statement, ast.CreateTableStmt):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateIndexStmt):
            info = self.catalog.create_index(
                statement.name,
                statement.table,
                statement.column,
                kind=statement.using,
                unique=statement.unique,
            )
            self._log_ddl(
                LogRecordType.CREATE_INDEX,
                info.table,
                (info.name, info.column, info.kind, int(info.unique)),
            )
            return Result()
        if isinstance(statement, ast.DropTableStmt):
            self.catalog.drop_table(statement.name)
            self._log_ddl(LogRecordType.DROP_TABLE, statement.name, None)
            if self.result_cache is not None:
                self.result_cache.clear()
            if self.plan_cache is not None:
                # The version bump already forces misses; dropping eagerly
                # also releases plans pinning the dead table's structures.
                self.plan_cache.invalidate_all()
            return Result()
        if isinstance(statement, ast.InsertStmt):
            return self._execute_insert(statement)
        if isinstance(statement, ast.UpdateStmt):
            return self._execute_update(statement)
        if isinstance(statement, ast.DeleteStmt):
            return self._execute_delete(statement)
        if isinstance(statement, ast.AnalyzeStmt):
            self.catalog.analyze(statement.table)
            return Result()
        if isinstance(statement, ast.BeginStmt):
            self._begin()
            return Result()
        if isinstance(statement, ast.CommitStmt):
            self._commit()
            return Result()
        if isinstance(statement, ast.RollbackStmt):
            self._rollback()
            return Result()
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    # -- SELECT ------------------------------------------------------------

    def _run_subplan(self, logical_plan) -> List[Row]:
        """Execute an uncorrelated subquery's logical plan (bind-time fold)."""
        optimizer = Optimizer(
            self.catalog, self.cost_model, self.optimizer_options, verify=self.verify_plans
        )
        __, physical = optimizer.optimize(logical_plan)
        return list(execute_volcano(physical, self.catalog))

    def _execute_select(
        self, statement: ast.Statement, engine: str, normalized: Optional[str] = None
    ) -> Result:
        if self.schedule_recorder is not None:
            self._record_schedule_reads(referenced_tables(statement))
        logical_plan = self._binder.bind_query(statement)
        optimizer = Optimizer(
            self.catalog, self.cost_model, self.optimizer_options, verify=self.verify_plans
        )
        t0 = time.perf_counter()
        _, physical = optimizer.optimize(logical_plan)
        t1 = time.perf_counter()
        rows = self._run_physical(physical, engine)
        self.last_stats.optimize_ms = (t1 - t0) * 1e3
        schema = physical.schema
        columns = [c.name for c in schema.columns]
        if (
            self.plan_cache is not None
            and normalized is not None
            and is_plan_cacheable(statement)
        ):
            tables = referenced_tables(statement)
            self.plan_cache.put(
                normalized,
                CachedPlan(
                    physical=physical,
                    columns=columns,
                    tables=frozenset(tables) if tables is not None else None,
                    catalog_version=self.catalog.version,
                    stats_epoch=self.catalog.stats_epoch,
                    options_key=self._options_key(),
                ),
            )
        return Result(columns=columns, rows=rows, rowcount=len(rows))

    def _run_physical(self, physical, engine: str) -> List[Row]:
        if engine == VECTORIZED:
            return list(execute_vectorized(physical, self.catalog))
        return list(execute_volcano(physical, self.catalog))

    def _options_key(self) -> Tuple:
        return astuple(self.optimizer_options)

    # -- prepared statements ----------------------------------------------

    def _plan_prepared(self, prep: PreparedStatement) -> None:
        """(Re)bind and (re)optimize a prepared SELECT's physical plan."""
        logical_plan = self._binder.bind_prepared(prep.statement, prep.param_vector)
        optimizer = Optimizer(
            self.catalog, self.cost_model, self.optimizer_options, verify=self.verify_plans
        )
        _, physical = optimizer.optimize(logical_plan)
        prep.physical = physical
        prep.columns = [c.name for c in physical.schema.columns]
        prep.catalog_version = self.catalog.version
        prep.stats_epoch = self.catalog.stats_epoch
        prep.options_key = self._options_key()
        prep.replans += 1

    def _execute_prepared(
        self,
        prep: PreparedStatement,
        params: Sequence[Any],
        engine: Optional[str],
    ) -> Result:
        with self._lock:
            engine_used = engine or self.engine
            if not prep.uses_bound_plan:
                # DML / subquery statements: substitute and take the normal
                # path (which still hits the textual plan cache for SELECTs).
                result = self.execute(substitute_params(prep.sql, list(params)), engine=engine_used)
                prep.executions += 1
                return result
            started = time.perf_counter()
            if (
                prep.catalog_version != self.catalog.version
                or prep.stats_epoch != self.catalog.stats_epoch
                or prep.options_key != self._options_key()
            ):
                # Schema, stats, or optimizer options changed underneath us.
                self._plan_prepared(prep)
            prep.param_vector.bind(list(params))
            rows = self._run_physical(prep.physical, engine_used)
            prep.executions += 1
            finished = time.perf_counter()
            self.last_stats = StatementStats(
                sql=prep.sql,
                execute_ms=(finished - started) * 1e3,
                total_ms=(finished - started) * 1e3,
                rows=len(rows),
                plan_cache_hit=True,
            )
            return Result(columns=list(prep.columns), rows=rows, rowcount=len(rows))

    def _execute_explain(self, statement: ast.ExplainStmt) -> Result:
        inner = statement.statement
        if not isinstance(inner, (ast.SelectStmt, ast.SetOpStmt)):
            raise ExecutionError("EXPLAIN supports SELECT statements")
        logical_plan = self._binder.bind_query(inner)
        optimizer = Optimizer(
            self.catalog, self.cost_model, self.optimizer_options, verify=self.verify_plans
        )
        optimized, physical = optimizer.optimize(logical_plan)
        text = (
            "== logical plan ==\n"
            + optimized.pretty()
            + "\n== physical plan ==\n"
            + physical.pretty()
        )
        return Result(columns=["plan"], rows=[(line,) for line in text.splitlines()], plan_text=text)

    # -- DDL ---------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTableStmt) -> Result:
        columns = []
        for col_def in statement.columns:
            dtype = DataType.parse(col_def.type_name)
            width = col_def.vector_width if dtype is DataType.VECTOR else 0
            columns.append(
                Column(col_def.name, dtype, nullable=not col_def.not_null, vector_width=width)
            )
        self.create_table(statement.name, Schema(columns))
        return Result()

    # -- DML ---------------------------------------------------------------

    def _execute_insert(self, statement: ast.InsertStmt) -> Result:
        rows = self._binder.bind_insert_rows(statement)
        return Result(rowcount=self.insert_rows(statement.table, rows))

    @staticmethod
    def _equality_candidates(table: TableInfo, where: ast.Expr):
        """``(column, literal)`` pairs usable for an index point lookup.

        Walks the top-level AND chain of a WHERE clause collecting
        ``col = literal`` (either side) conjuncts whose literal type can
        be probed into an index without changing comparison semantics
        (exact int/float/str — bools and NULLs fall back to the scan).
        """
        pairs = []
        stack = [where]
        while stack:
            node = stack.pop()
            if not isinstance(node, ast.BinaryOp):
                continue
            if node.op == "AND":
                stack.append(node.left)
                stack.append(node.right)
                continue
            if node.op != "=":
                continue
            for col_side, lit_side in (
                (node.left, node.right),
                (node.right, node.left),
            ):
                if (
                    isinstance(col_side, ast.ColumnRef)
                    and (col_side.table is None or col_side.table == table.name)
                    and isinstance(lit_side, ast.Literal)
                    and type(lit_side.value) in (int, float, str)
                ):
                    pairs.append((col_side.name, lit_side.value))
                    break
        return pairs

    def _index_eq_rids(self, table: TableInfo, where: Optional[ast.Expr]):
        """Candidate rids for a point predicate, or None for no usable index."""
        if where is None or not table.indexes:
            return None
        for column, value in self._equality_candidates(table, where):
            info = table.index_on(column)
            if info is None:
                continue
            try:
                return info.structure.search(value)
            except Exception:
                # Incomparable key (e.g. str probe into an int btree): the
                # scan path defines the semantics, so let it answer.
                return None
        return None

    def _matching_rids(self, table: TableInfo, where: Optional[ast.Expr]):
        predicate = None
        if where is not None:
            predicate = evaluator(self._binder.bind_expr(where, table.schema))
            rids = self._index_eq_rids(table, where)
            if rids is not None:
                # Index candidates only narrow the scan; the full predicate
                # still decides.  Materialize before yielding — the caller
                # mutates the very index being read.
                matches = []
                for rid in rids:
                    row = table.get(rid)
                    if row is not None and predicate(row) is True:
                        matches.append((rid, row))
                yield from matches
                return
        for rid, row in list(table.scan()):
            if predicate is None or predicate(row) is True:
                yield rid, row

    def _execute_update(self, statement: ast.UpdateStmt) -> Result:
        table = self.catalog.get_table(statement.table)
        assignments = []
        for column_name, value_ast in statement.assignments:
            idx = table.schema.index_of(column_name)
            bound = self._binder.bind_expr(value_ast, table.schema)
            assignments.append((idx, evaluator(bound)))
        count = 0
        with self._statement_scope():
            for rid, row in self._matching_rids(table, statement.where):
                new_row = list(row)
                for idx, value_fn in assignments:
                    new_row[idx] = value_fn(row)
                new_rid, stored = table.update(rid, tuple(new_row))
                self._log_write(table.name, "update", (rid, new_rid), row, stored)
                count += 1
        return Result(rowcount=count)

    def _execute_delete(self, statement: ast.DeleteStmt) -> Result:
        table = self.catalog.get_table(statement.table)
        count = 0
        with self._statement_scope():
            for rid, row in self._matching_rids(table, statement.where):
                table.delete(rid)
                self._log_write(table.name, "delete", rid, row)
                count += 1
        return Result(rowcount=count)

    # ------------------------------------------------------------------
    # Transactions (statement-level; logical undo via before-images)
    # ------------------------------------------------------------------

    def in_transaction(self) -> bool:
        return self._active_txn is not None

    @contextmanager
    def _statement_scope(self):
        """Make one DML statement transactional.

        Inside an explicit BEGIN...COMMIT the statement just joins the open
        transaction.  Otherwise it gets an implicit transaction of its own:
        committed (and made durable) when the statement completes, rolled
        back if it raises — so a multi-row INSERT that fails half-way leaves
        nothing behind, matching SQLite's statement atomicity.  A simulated
        :class:`~repro.storage.faults.CrashPoint` is a BaseException and
        deliberately bypasses the rollback: after a power cut nothing runs.
        """
        if self._active_txn is not None:
            yield
            return
        self._begin()
        try:
            yield
        except Exception:
            self._rollback()
            raise
        else:
            self._commit()

    def _record_schedule(self, op: str, key=None) -> None:
        """Log one sanitizer event for the active statement transaction.

        Reads are recorded at table granularity, writes at ``(table, rid)``;
        autocommit reads outside any transaction are not recorded — only
        transactional history feeds the serializability checker.
        """
        if self.schedule_recorder is not None and self._active_txn is not None:
            self.schedule_recorder.record(self._active_txn, op, key=key)

    def _record_schedule_reads(self, tables) -> None:
        if (
            self.schedule_recorder is not None
            and self._active_txn is not None
            and tables
        ):
            for table in sorted(tables):
                self.schedule_recorder.record(
                    self._active_txn, schedule_trace.READ, key=table
                )

    def _begin(self) -> None:
        if self._active_txn is not None:
            raise TransactionError("a transaction is already active")
        self._txn_id += 1
        self._active_txn = self._txn_id
        self._undo_log = []
        self._record_schedule(schedule_trace.BEGIN)
        if self._wal_enabled:
            self.wal.append(self._active_txn, LogRecordType.BEGIN)

    def _commit(self) -> None:
        if self._active_txn is None:
            raise TransactionError("no active transaction")
        self._record_schedule(schedule_trace.COMMIT)
        if self._wal_enabled:
            self.wal.append(self._active_txn, LogRecordType.COMMIT)
            self.faults.hit("commit.appended")
            self._durable_flush()
            self.faults.hit("commit.flushed")
        self._active_txn = None
        self._undo_log = []
        self._commits_since_checkpoint += 1
        if (
            self.checkpoint_interval
            and self.wal.path
            and self._commits_since_checkpoint >= self.checkpoint_interval
        ):
            self.checkpoint()

    def _rollback(self) -> None:
        if self._active_txn is None:
            raise TransactionError("no active transaction")
        self._record_schedule(schedule_trace.ABORT)
        # Logical undo.  Rows can move (delete+reinsert, oversized update),
        # so track where each original rid lives now while unwinding.
        remap: Dict[Any, Any] = {}
        affected = {entry[0] for entry in self._undo_log}
        if self.result_cache is not None:
            self.result_cache.invalidate_tables(affected)
        if self.plan_cache is not None and affected:
            # Rolled-back data may be live inside cached physical plans
            # (decoded-row snapshots, pinned index state): rebuild them.
            self.plan_cache.invalidate_tables(affected)
        for table_name, op, rid, before in reversed(self._undo_log):
            table = self.catalog.get_table(table_name)
            if op == "insert":
                table.delete(remap.get(rid, rid))
            elif op == "delete":
                remap[rid] = table.insert(before)[0]
            elif op == "update":
                old_rid, new_rid = rid
                target = remap.get(new_rid, new_rid)
                restored, _ = table.update(target, before)
                if restored != old_rid:
                    remap[old_rid] = restored
        if self._wal_enabled:
            self.wal.append(self._active_txn, LogRecordType.ABORT)
        self._active_txn = None
        self._undo_log = []

    def _durable_flush(self) -> None:
        if not self._wal_enabled:
            return
        if self._group_depth:
            # Inside group_commit(): the flush is owed, not skipped — the
            # scope exit pays it once for every commit in the group.
            self._group_dirty = True
            return
        self.wal.flush(fsync=self.durability == "fsync")

    @contextmanager
    def group_commit(self):
        """Share one WAL flush across consecutive autocommit statements.

        Inside the scope each statement still commits logically (WAL
        records appended, undo log cleared) but the per-commit durability
        flush is deferred; the scope exit performs a single
        flush/fsync covering every commit in the group — N small writes,
        one disk round-trip.  Callers must not acknowledge any statement
        in the group to their own clients until the scope has exited
        (the network server sends batch responses only after it closes).

        Holds the database lock for the duration, so the group executes
        atomically with respect to other threads.  Reentrant: nested
        scopes join the outermost one.
        """
        with self._lock:
            self._group_depth += 1
            try:
                yield
            finally:
                self._group_depth -= 1
                if self._group_depth == 0 and self._group_dirty:
                    self._group_dirty = False
                    self.wal.flush(fsync=self.durability == "fsync")

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Compact the WAL to a snapshot of the current committed state.

        The replacement log carries the schema (CREATE TABLE / CREATE INDEX
        records), every live row as one committed snapshot transaction keyed
        by its *current* rid, and a CHECKPOINT marker.  Compaction is atomic
        (write temp + fsync + rename), so a crash at any point leaves either
        the old or the new log — recovery works from both.  Runs
        automatically every ``checkpoint_interval`` commits and on close.
        """
        with self._lock:
            if not self._wal_enabled:
                return
            if self._active_txn is not None:
                raise TransactionError("cannot checkpoint inside a transaction")
            self.faults.hit("checkpoint.begin")
            specs: List[Tuple] = []
            names = self.catalog.table_names()
            for name in names:
                table = self.catalog.get_table(name)
                specs.append(
                    (
                        SYSTEM_TXN,
                        LogRecordType.CREATE_TABLE,
                        table.name,
                        None,
                        None,
                        (self._schema_payload(table), table.layout),
                    )
                )
                for info in table.indexes.values():
                    specs.append(
                        (
                            SYSTEM_TXN,
                            LogRecordType.CREATE_INDEX,
                            table.name,
                            None,
                            None,
                            (info.name, info.column, info.kind, int(info.unique)),
                        )
                    )
            self._txn_id += 1
            snapshot_txn = self._txn_id
            specs.append((snapshot_txn, LogRecordType.BEGIN, "", None, None, None))
            for name in names:
                table = self.catalog.get_table(name)
                for rid, row in table.scan():
                    specs.append(
                        (
                            snapshot_txn,
                            LogRecordType.INSERT,
                            table.name,
                            self._wal_rid(rid),
                            None,
                            tuple(row),
                        )
                    )
            specs.append((snapshot_txn, LogRecordType.COMMIT, "", None, None, None))
            specs.append((SYSTEM_TXN, LogRecordType.CHECKPOINT, "", None, None, None))
            injector = self.faults if self.faults is not NULL_INJECTOR else None
            self.wal.compact(specs, injector=injector)
            self._commits_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def _rebuild_from_records(self, records) -> Dict[str, int]:
        """Rebuild schema + committed rows from the log (open-time recovery).

        Direct catalog/heap calls on purpose: the operations being replayed
        are already in the log, so nothing here may append to it.
        """
        from repro.catalog.persistence import _schema_from_json

        state = recover_database(records)
        restored: Dict[str, int] = {}
        for spec in state.tables.values():
            schema = _schema_from_json(json.loads(spec.schema_json))
            table = self.catalog.create_table(spec.name, schema, layout=spec.layout)
            table.insert_many([spec.rows[rid] for rid in sorted(spec.rows)])
            for index_name, column, kind, unique in spec.indexes:
                self.catalog.create_index(
                    index_name, spec.name, column, kind=kind, unique=unique
                )
            restored[spec.name] = len(spec.rows)
        self._txn_id = max(self._txn_id, state.max_txn_id)
        return restored

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def restore_from_wal(self, wal_file: str) -> Dict[str, int]:
        """Rebuild table contents from a persisted WAL after a crash.

        The catalog (DDL) must already exist — re-run the CREATE statements
        first, as classic logical-logging systems replay against a schema.
        Only committed transactions' effects are restored; in-flight and
        aborted work is discarded.  Returns rows restored per table.
        """
        from repro.storage.recovery import replay
        from repro.storage.wal import read_log_file

        state = replay(read_log_file(wal_file))
        restored: Dict[str, int] = {}
        for table_name, images in state.tables.items():
            if not self.catalog.has_table(table_name):
                raise CatalogError(
                    f"WAL references table {table_name!r}; recreate its schema "
                    "before calling restore_from_wal"
                )
            rows = [images[rid] for rid in sorted(images)]
            self.catalog.get_table(table_name).insert_many(rows)
            restored[table_name] = len(rows)
        # Replay rewrote table contents underneath any cached results/plans.
        if restored:
            if self.result_cache is not None:
                self.result_cache.invalidate_tables(restored)
            if self.plan_cache is not None:
                self.plan_cache.invalidate_tables(restored)
        return restored

    def _log_write(
        self, table_name: str, op: str, rid: Any, before: Optional[Row], after: Optional[Row] = None
    ) -> None:
        """Record one row write: undo entry + WAL redo record(s).

        An insert or update logs ``after``, the tuple :meth:`TableInfo.insert`
        or :meth:`TableInfo.update` stored.
        Every DML path runs inside :meth:`_statement_scope`, so a
        transaction is always active here.  The WAL side is logical redo
        keyed by rid; an update that *moved* its row (grew past the old
        slot) logs DELETE(old rid) + INSERT(new rid) — a single UPDATE
        record would leave the old rid's image alive during replay and
        recovery would resurrect the row twice.
        """
        if self._active_txn is None:
            raise TransactionError("row writes require an active transaction")
        if self.schedule_recorder is not None:
            write_rid = rid[1] if op == "update" else rid
            self._record_schedule(
                schedule_trace.WRITE, key=(table_name, self._wal_rid(write_rid))
            )
        if self.result_cache is not None:
            self.result_cache.invalidate_tables([table_name])
        self._undo_log.append((table_name, op, rid, before))
        if not self._wal_enabled:
            return
        txn = self._active_txn
        if op == "insert":
            self.wal.append(
                txn,
                LogRecordType.INSERT,
                table=table_name,
                rid=self._wal_rid(rid),
                after=after,
            )
        elif op == "delete":
            self.wal.append(
                txn,
                LogRecordType.DELETE,
                table=table_name,
                rid=self._wal_rid(rid),
                before=before,
            )
        else:  # update: rid is (old_rid, new_rid)
            old_rid, new_rid = rid
            if self._wal_rid(old_rid) == self._wal_rid(new_rid):
                self.wal.append(
                    txn,
                    LogRecordType.UPDATE,
                    table=table_name,
                    rid=self._wal_rid(new_rid),
                    before=before,
                    after=after,
                )
            else:
                self.wal.append(
                    txn,
                    LogRecordType.DELETE,
                    table=table_name,
                    rid=self._wal_rid(old_rid),
                    before=before,
                )
                self.wal.append(
                    txn,
                    LogRecordType.INSERT,
                    table=table_name,
                    rid=self._wal_rid(new_rid),
                    after=after,
                )
        self.faults.hit("dml.logged")

    def _log_ddl(self, type_: LogRecordType, table: str, args) -> None:
        """Append an autocommitted DDL record and make it durable.

        DDL records carry :data:`SYSTEM_TXN` and are replayed by recovery
        in LSN order regardless of commit status — by the time the record
        is appended, the catalog change has already taken effect.
        """
        if not self._wal_enabled:
            return
        self.wal.append(SYSTEM_TXN, type_, table=table, after=args)
        self._durable_flush()
        self.faults.hit("ddl.logged")

    @staticmethod
    def _wal_rid(rid: Any) -> Tuple[int, int]:
        return tuple(rid) if isinstance(rid, tuple) else (int(rid), 0)

    def _schema_payload(self, table) -> str:
        from repro.catalog.persistence import _schema_to_json

        return json.dumps(
            _schema_to_json(
                Schema([c.with_table(None) for c in table.schema.columns])
            )
        )

"""Morsel-driven parallel execution.

The exchange operators in :mod:`repro.exec.physical` (``PParallelScan``,
``PTwoPhaseAggregate``, ``PPartitionedHashJoin``, ``PParallelSort``) are
executed here, on a shared worker pool, and both engines consume the
results: the vectorized engine takes column-major batches, the volcano
engine pivots them to rows.

Design (after Leis et al.'s morsel-driven parallelism, scaled down):

* **Morsels.** Storage hands out fixed-size row-range partitions —
  ``TableInfo.morsels()`` dispatches to row-range slices on column tables
  and page chunks on heaps.  Each morsel task runs scan + filter + project
  (and, fused, partial aggregation or hash-join probe) for one morsel.

* **Ordered gather.** Tasks are submitted for every morsel up front and
  results are collected *in morsel order*.  Since serial scans visit rows
  in exactly the concatenation of morsels, a parallel plan reproduces the
  serial plan's row order — a stronger guarantee than the multiset equality
  the differential suite checks, and the reason first-seen group order and
  hash-join output order survive parallelization.

* **Kernels.** Predicates/projections over clean (null-free, delete-free)
  numeric columns run as numpy ufuncs over zero-copy array slices; numpy
  releases the GIL inside those loops, so threads genuinely overlap.  On
  NULLs, text, or exotic expressions the task falls back to the same
  per-row evaluation the serial vectorized engine uses — correctness never
  depends on the fast path.

* **Workers.** ``workers <= 1`` executes tasks inline on the caller (the
  overhead-measurement configuration); otherwise tasks run on a cached
  ``ThreadPoolExecutor`` per worker count.

* **Sanitizer.** Under ``REPRO_SANITIZE=1`` every morsel task logs
  BEGIN / READ(table, morsel) / COMMIT to a pool-owned
  :class:`~repro.txn.trace.ScheduleRecorder`, so the PR-4 serializability
  checker can audit worker interleavings (read-only tasks: trivially
  serializable, no lock inversions).  Join build-side tasks trace under
  the synthetic labels ``@join-build`` (chunk partitioning) and
  ``@join-partition`` (partition finalize); sort tasks trace against the
  table they scan.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.catalog import Catalog
from repro.exec import physical as phys
from repro.exec.compile import evaluator
from repro.exec.stablehash import stable_hash, stable_partitions
from repro.exec.vector_eval import eval_batch, normalize_mask
from repro.plan.expressions import (
    AggSpec,
    BoundBinary,
    BoundColumn,
    BoundExpr,
    BoundLiteral,
    BoundUnary,
)
from repro.txn.trace import (
    ABORT,
    BEGIN,
    COMMIT,
    READ,
    ScheduleRecorder,
    sanitize_enabled,
)

Batch = List[List[Any]]  # column-major, same convention as vector_eval

_NUMPY_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply}
_NUMPY_CMP = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


# -- worker pool ----------------------------------------------------------------

_THREAD_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()

#: Pool-owned schedule recorder; morsel tasks append here under
#: ``REPRO_SANITIZE=1``.  Tests drain it with ``pool_recorder().clear()``.
_RECORDER = ScheduleRecorder("parallel-pool")
_TASK_IDS = itertools.count(1)


def pool_recorder() -> ScheduleRecorder:
    return _RECORDER


def _thread_pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _THREAD_POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-morsel-{workers}"
            )
            _THREAD_POOLS[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Tear down cached thread pools (test hygiene; pools rebuild lazily)."""
    with _POOLS_LOCK:
        pools = list(_THREAD_POOLS.values())
        _THREAD_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def map_ordered(tasks: Sequence[Callable[[], Any]], workers: int) -> List[Any]:
    """Run tasks on the pool; return results in task (= morsel) order."""
    if workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    pool = _thread_pool(workers)
    futures = [pool.submit(task) for task in tasks]
    return [future.result() for future in futures]


def _traced(task: Callable[[], Any], table: str, morsel: int) -> Callable[[], Any]:
    """Wrap a morsel task with BEGIN/READ/COMMIT schedule events."""
    if not sanitize_enabled():
        return task
    buffer = _RECORDER.buffer

    def traced() -> Any:
        tid = next(_TASK_IDS)
        buffer.append((tid, BEGIN, None, None))
        buffer.append((tid, READ, (table, morsel), None))
        try:
            out = task()
        except BaseException:
            buffer.append((tid, ABORT, None, None))
            raise
        buffer.append((tid, COMMIT, None, None))
        return out

    return traced


# -- numpy kernels ---------------------------------------------------------------


def _numpy_operand(expr: BoundExpr, columns: Batch) -> Any:
    """``expr`` as a numpy array/scalar over clean columns, or None.

    Only sound over morsel batches whose numpy columns are null-free (the
    clean-array contract): comparisons and arithmetic then have no NULL
    three-valued logic to honor.  Returns a scalar for literals so ufuncs
    broadcast.
    """
    if isinstance(expr, BoundColumn):
        col = columns[expr.index]
        return col if isinstance(col, np.ndarray) else None
    if isinstance(expr, BoundLiteral):
        value = expr.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return value
    if isinstance(expr, BoundUnary) and expr.op == "-":
        operand = _numpy_operand(expr.operand, columns)
        return None if operand is None else np.negative(operand)
    if isinstance(expr, BoundBinary) and expr.op in _NUMPY_ARITH:
        left = _numpy_operand(expr.left, columns)
        if left is None:
            return None
        right = _numpy_operand(expr.right, columns)
        if right is None:
            return None
        return _NUMPY_ARITH[expr.op](left, right)
    return None


def _numpy_mask(pred: BoundExpr, columns: Batch) -> Optional[np.ndarray]:
    """Boolean selection mask via numpy, or None to fall back to eval_batch."""
    if isinstance(pred, BoundBinary):
        if pred.op == "AND":
            left = _numpy_mask(pred.left, columns)
            if left is None:
                return None
            right = _numpy_mask(pred.right, columns)
            if right is None:
                return None
            return left & right
        if pred.op == "OR":
            left = _numpy_mask(pred.left, columns)
            if left is None:
                return None
            right = _numpy_mask(pred.right, columns)
            if right is None:
                return None
            return left | right
        if pred.op in _NUMPY_CMP:
            left = _numpy_operand(pred.left, columns)
            if left is None:
                return None
            right = _numpy_operand(pred.right, columns)
            if right is None:
                return None
            if np.isscalar(left) and np.isscalar(right):
                return None  # constant predicate: let the general path decide
            return _NUMPY_CMP[pred.op](left, right)
    return None


def _compress(columns: Batch, n: int, keep: Sequence[int]) -> Tuple[Batch, int]:
    """Keep only the rows at positions ``keep`` (already in order)."""
    if len(keep) == n:
        return columns, n
    idx = np.asarray(keep, dtype=np.intp)
    out: Batch = []
    for col in columns:
        if isinstance(col, np.ndarray):
            out.append(col[idx])
        else:
            out.append([col[i] for i in keep])
    return out, len(keep)


def _apply_filter(
    predicate: Optional[BoundExpr], columns: Batch, n: int
) -> Tuple[Batch, int]:
    if predicate is None or n == 0:
        return columns, n
    mask = _numpy_mask(predicate, columns)
    if mask is not None:
        if mask.all():
            return columns, n
        keep = np.flatnonzero(mask)
        out: Batch = []
        for col in columns:
            if isinstance(col, np.ndarray):
                out.append(col[keep])
            else:
                out.append([col[i] for i in keep])
        return out, len(keep)
    values = normalize_mask(eval_batch(predicate, columns, n))
    keep_list = [i for i, v in enumerate(values) if v is True]
    return _compress(columns, n, keep_list)


def _apply_project(
    exprs: Optional[Tuple[BoundExpr, ...]], columns: Batch, n: int
) -> Batch:
    if exprs is None:
        return columns
    out: Batch = []
    for expr in exprs:
        arr = _numpy_operand(expr, columns)
        if arr is not None and not np.isscalar(arr):
            out.append(arr)
        else:
            out.append(eval_batch(expr, columns, n))
    return out


def _to_lists(columns: Batch, width: int, n: int) -> Batch:
    """Engine boundary: numpy views become plain lists of Python scalars."""
    if n == 0:
        return [[] for _ in range(width)]
    out: Batch = []
    for col in columns:
        if isinstance(col, np.ndarray):
            out.append(col.tolist())
        elif isinstance(col, list):
            out.append(col)
        else:
            out.append(list(col))
    return out


# -- parallel scan ----------------------------------------------------------------


def _scan_tasks(
    node: phys.PParallelScan, catalog: Catalog
) -> List[Callable[[], Tuple[Batch, int]]]:
    """One fused scan+filter+project task per morsel, sanitizer-traced."""
    source = catalog.get_table(node.table).morsels(node.morsel_size)
    predicate, exprs = node.predicate, node.exprs

    def make(spec: Any) -> Callable[[], Tuple[Batch, int]]:
        def task() -> Tuple[Batch, int]:
            columns, n = source.read(spec)
            columns, n = _apply_filter(predicate, columns, n)
            return _apply_project(exprs, columns, n), n

        return task

    return [
        _traced(make(spec), node.table, i) for i, spec in enumerate(source.specs)
    ]


def scan_batches(
    node: phys.PParallelScan, catalog: Catalog
) -> Iterator[Tuple[Batch, int]]:
    """Execute a parallel scan; yield column-major batches in morsel order."""
    width = len(node.schema)
    for columns, n in map_ordered(_scan_tasks(node, catalog), node.workers):
        if n:
            yield _to_lists(columns, width, n), n


def scan_rows(node: phys.PParallelScan, catalog: Catalog) -> Iterator[Tuple]:
    """Row-at-a-time view of a parallel scan (volcano consumption)."""
    for columns, n in scan_batches(node, catalog):
        for row in zip(*columns):
            yield row


# -- two-phase aggregation ---------------------------------------------------------

#: Partial state per (group, aggregate): [count, total, extreme, distinct_set].
#: Mirrors volcano's ``_Accumulator`` fields so finalization semantics match.


def _new_state(spec: AggSpec) -> List[Any]:
    return [0, None, None, set() if spec.distinct else None]


def _state_add(state: List[Any], spec: AggSpec, value: Any) -> None:
    if value is None:
        return
    if state[3] is not None:
        if value in state[3]:
            return
        state[3].add(value)
    state[0] += 1
    func = spec.func
    if func in ("SUM", "AVG"):
        state[1] = value if state[1] is None else state[1] + value
    elif func == "MIN":
        if state[2] is None or value < state[2]:
            state[2] = value
    elif func == "MAX":
        if state[2] is None or value > state[2]:
            state[2] = value


def _merge_state(into: List[Any], other: List[Any], spec: AggSpec) -> None:
    if into[3] is not None:
        # DISTINCT: the value set *is* the state; rebuild counts on finalize.
        into[3] |= other[3]
        return
    into[0] += other[0]
    if other[1] is not None:
        into[1] = other[1] if into[1] is None else into[1] + other[1]
    if other[2] is not None:
        func = spec.func
        if into[2] is None:
            into[2] = other[2]
        elif func == "MIN" and other[2] < into[2]:
            into[2] = other[2]
        elif func == "MAX" and other[2] > into[2]:
            into[2] = other[2]


def _finalize_state(state: List[Any], spec: AggSpec) -> Any:
    count, total, extreme, distinct = state
    if distinct is not None:
        count = len(distinct)
        if spec.func in ("SUM", "AVG"):
            total = None
            for value in distinct:
                total = value if total is None else total + value
        elif spec.func in ("MIN", "MAX"):
            if distinct:
                extreme = min(distinct) if spec.func == "MIN" else max(distinct)
    func = spec.func
    if func == "COUNT":
        return count
    if func == "SUM":
        return total
    if func == "AVG":
        return total / count if count else None
    return extreme


def _numpy_partial(
    spec: AggSpec,
    arr: np.ndarray,
    gids: Optional[np.ndarray],
    n_groups: int,
) -> Optional[List[List[Any]]]:
    """Per-group partial states for one aggregate via numpy, or None.

    Only for non-DISTINCT aggregates over a clean numeric array (no NULLs),
    so every row contributes: count is the group size, SUM/AVG reduce with
    exact dtype-preserving kernels (``np.add.at`` for int64 — ``bincount``
    would round-trip through float64 and lose >2^53 precision) and
    MIN/MAX start from identities of the array's own dtype.  An int64 SUM
    that could reach 2^63 (``n·max|v|``) would wrap, so it returns None and
    the caller sums Python ints instead.
    """
    if spec.distinct:
        return None
    func = spec.func
    if func in ("SUM", "AVG") and arr.dtype.kind == "i" and arr.size:
        if max(-int(arr.min()), int(arr.max())) * arr.size >= 1 << 63:
            return None
    if gids is None:  # single (global) group
        count = int(arr.size)
        state: List[Any] = [count, None, None, None]
        if func in ("SUM", "AVG") and count:
            state[1] = arr.sum().item()
        elif func == "MIN" and count:
            state[2] = arr.min().item()
        elif func == "MAX" and count:
            state[2] = arr.max().item()
        return [state]
    counts = np.bincount(gids, minlength=n_groups)
    states = [[int(c), None, None, None] for c in counts]
    if func in ("SUM", "AVG"):
        if arr.dtype.kind == "i":
            totals = np.zeros(n_groups, dtype=np.int64)
            np.add.at(totals, gids, arr)
        else:
            totals = np.bincount(gids, weights=arr, minlength=n_groups)
        for g, state in enumerate(states):
            if state[0]:
                state[1] = totals[g].item()
    elif func in ("MIN", "MAX"):
        if arr.dtype.kind == "i":
            limits = np.iinfo(arr.dtype)
            identity = limits.max if func == "MIN" else limits.min
            extremes = np.full(n_groups, identity, dtype=arr.dtype)
        else:
            extremes = np.full(n_groups, np.inf if func == "MIN" else -np.inf)
        (np.minimum if func == "MIN" else np.maximum).at(extremes, gids, arr)
        for g, state in enumerate(states):
            if state[0]:
                state[2] = extremes[g].item()
    return states


def _partial_aggregate(
    columns: Batch,
    n: int,
    group_exprs: Tuple[BoundExpr, ...],
    aggregates: Tuple[AggSpec, ...],
) -> Tuple[List[Tuple], Dict[Tuple, List[List[Any]]]]:
    """Phase one: aggregate one morsel into per-group partial states.

    Returns ``(group_order, key -> [state per aggregate])`` where
    ``group_order`` lists keys in first-seen row order within the morsel.
    """
    order: List[Tuple] = []
    partials: Dict[Tuple, List[List[Any]]] = {}
    if n == 0:
        return order, partials

    gids: Optional[np.ndarray] = None
    if group_exprs:
        key_cols = []
        for expr in group_exprs:
            values = eval_batch(expr, columns, n)
            if isinstance(values, np.ndarray):
                values = values.tolist()
            key_cols.append(values)
        gid_of: Dict[Tuple, int] = {}
        gids = np.empty(n, dtype=np.intp)
        for i, key in enumerate(zip(*key_cols)):
            gid = gid_of.get(key)
            if gid is None:
                gid = len(order)
                gid_of[key] = gid
                order.append(key)
                partials[key] = [_new_state(spec) for spec in aggregates]
            gids[i] = gid
    else:
        order.append(())
        partials[()] = [_new_state(spec) for spec in aggregates]

    n_groups = len(order)
    for a, spec in enumerate(aggregates):
        if spec.arg is None:  # COUNT(*): every row counts
            if gids is None:
                partials[()][a][0] = n
            else:
                for g, c in enumerate(np.bincount(gids, minlength=n_groups)):
                    partials[order[g]][a][0] = int(c)
            continue
        arr = _numpy_operand(spec.arg, columns)
        if arr is not None and not np.isscalar(arr):
            states = _numpy_partial(spec, arr, gids, n_groups)
            if states is not None:
                for g, state in enumerate(states):
                    partials[order[g]][a] = state
                continue
            values = arr.tolist()
        else:
            values = eval_batch(spec.arg, columns, n)
            if isinstance(values, np.ndarray):
                values = values.tolist()
        if gids is None:
            state = partials[()][a]
            for value in values:
                _state_add(state, spec, value)
        else:
            for i, value in enumerate(values):
                _state_add(partials[order[gids[i]]][a], spec, value)
    return order, partials


def aggregate_rows(
    node: phys.PTwoPhaseAggregate, catalog: Catalog
) -> List[Tuple]:
    """Execute a two-phase aggregate; returns final rows in serial order."""
    scan = node.child
    group_exprs, aggregates = node.group_exprs, node.aggregates
    source = catalog.get_table(scan.table).morsels(scan.morsel_size)
    predicate, exprs = scan.predicate, scan.exprs

    def make(spec: Any) -> Callable[[], Tuple[List[Tuple], Dict]]:
        def task() -> Tuple[List[Tuple], Dict]:
            columns, n = source.read(spec)
            columns, n = _apply_filter(predicate, columns, n)
            columns = _apply_project(exprs, columns, n)
            return _partial_aggregate(columns, n, group_exprs, aggregates)

        return task

    tasks = [
        _traced(make(spec), scan.table, i) for i, spec in enumerate(source.specs)
    ]
    order: List[Tuple] = []
    merged: Dict[Tuple, List[List[Any]]] = {}
    # Phase two: merge partials in morsel order => serial first-seen order.
    for morsel_order, partials in map_ordered(tasks, node.workers):
        for key in morsel_order:
            states = merged.get(key)
            if states is None:
                merged[key] = partials[key]
                order.append(key)
            else:
                for state, other, spec in zip(states, partials[key], aggregates):
                    _merge_state(state, other, spec)
    if not merged and not group_exprs:
        # Global aggregate over an empty input: one row of identity values.
        return [
            tuple(_finalize_state(_new_state(spec), spec) for spec in aggregates)
        ]
    return [
        key + tuple(
            _finalize_state(state, spec)
            for state, spec in zip(merged[key], aggregates)
        )
        for key in order
    ]


# -- partitioned hash join ----------------------------------------------------------

#: Keys within this signed range vectorize as int64 without overflow.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63)


class _RadixBuild:
    """Build-side result of the single-pass radix partitioning.

    Two shapes, chosen by what the key values turned out to be:

    * **vector mode** (``kind`` is ``"i"`` or ``"f"``): one shared
      read-only pair of numpy arrays.  ``all_keys`` holds every non-NULL
      build key, partition by partition, sorted (stably) within each
      partition; ``all_rids[i]`` is the build-row index of ``all_keys[i]``.
      ``offsets[p] : offsets[p+1]`` is partition ``p``'s slice.  Probes
      binary-search their partition's slice — no per-worker dicts, no
      Python objects on the hot path, and ``searchsorted`` releases the
      GIL.  Stable per-partition sort keeps equal keys in build-input
      order, which is what reproduces serial ``PHashJoin`` output order.

    * **dict mode** (``kind`` is None): per-partition ``key -> [rid]``
      dicts for strings, tuples (multi-column keys), and exotic numerics.
      Rid lists are in build-input order for the same reason.
    """

    __slots__ = ("partitions", "kind", "all_keys", "all_rids", "offsets", "tables")

    def __init__(self, partitions: int, kind: Optional[str]):
        self.partitions = partitions
        self.kind = kind
        self.all_keys: Optional[np.ndarray] = None
        self.all_rids: Optional[np.ndarray] = None
        self.offsets: Optional[np.ndarray] = None
        self.tables: Optional[List[Dict[Any, List[int]]]] = None

    def lookup(self, key: Any) -> Sequence[int]:
        """Build-row indices matching one probe key (scalar fallback path)."""
        if self.tables is not None:
            part = self.tables[stable_hash(key) % self.partitions]
            return part.get(key, ())
        value = key
        if isinstance(value, bool):
            value = int(value)
        if self.kind == "i":
            if isinstance(value, float):
                if value != value or not value.is_integer():
                    return ()
                value = int(value)
            if not isinstance(value, int) or not _INT64_MIN <= value < _INT64_MAX:
                return ()
        else:  # "f"
            if isinstance(value, int):
                as_float = float(value)
                if as_float != value:
                    return ()  # inexact conversion: equals no float at all
                value = as_float
            if not isinstance(value, float):
                return ()
        p = stable_hash(key) % self.partitions
        lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
        seg = self.all_keys[lo:hi]
        left = lo + int(np.searchsorted(seg, value, side="left"))
        right = lo + int(np.searchsorted(seg, value, side="right"))
        return self.all_rids[left:right]


def _merge_kind(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a == "":
        return b
    if b == "" or a == b:
        return a
    return None


def _radix_build(
    right_rows: List[Tuple],
    right_key_fns: List[Callable],
    partitions: int,
    workers: int,
) -> _RadixBuild:
    """Single pass over the build side: chunked parallel radix partitioning.

    Phase one fans build-row chunks out to workers; each chunk task routes
    its rows into per-partition key/rid lists (one hash per row — the old
    implementation re-hashed every row once *per partition*).  Phase two
    concatenates chunk outputs in chunk order, preserving build-input order
    within every partition.  Phase three finalizes partitions in parallel,
    largest first so a skewed partition starts immediately and smaller ones
    pack in behind it (LPT scheduling — the work-stealing analogue for a
    futures pool).
    """
    n_build = len(right_rows)
    single = len(right_key_fns) == 1
    if workers <= 1 or n_build < 4096:
        n_chunks = 1
    else:
        n_chunks = min(workers * 4, max(1, n_build // 2048))
    bounds = [
        (n_build * c // n_chunks, n_build * (c + 1) // n_chunks)
        for c in range(n_chunks)
    ]

    def partition_chunk(start: int, end: int):
        keys: List[List[Any]] = [[] for _ in range(partitions)]
        rids: List[List[int]] = [[] for _ in range(partitions)]
        kind: Optional[str] = "" if single else None
        fn = right_key_fns[0]
        for rid in range(start, end):
            row = right_rows[rid]
            if single:
                key = fn(row)
                if key is None:
                    continue  # SQL equality never matches NULL
            else:
                key = tuple(k(row) for k in right_key_fns)
                if any(v is None for v in key):
                    continue
            p = stable_hash(key) % partitions
            keys[p].append(key)
            rids[p].append(rid)
            if kind is not None:
                if isinstance(key, bool):
                    kind = None
                elif isinstance(key, int):
                    kind = (
                        "i"
                        if kind in ("", "i") and _INT64_MIN <= key < _INT64_MAX
                        else None
                    )
                elif isinstance(key, float):
                    # NaN keys never vectorize: searchsorted would treat
                    # them as orderable and fabricate NaN == NaN matches.
                    kind = "f" if kind in ("", "f") and key == key else None
                else:
                    kind = None
        return keys, rids, kind

    chunk_tasks = [
        _traced(
            lambda s=start, e=end: partition_chunk(s, e), "@join-build", c
        )
        for c, (start, end) in enumerate(bounds)
    ]
    keys_per_part: List[List[Any]] = [[] for _ in range(partitions)]
    rids_per_part: List[List[int]] = [[] for _ in range(partitions)]
    kind: Optional[str] = "" if single else None
    for chunk_keys, chunk_rids, chunk_kind in map_ordered(chunk_tasks, workers):
        for p in range(partitions):
            keys_per_part[p].extend(chunk_keys[p])
            rids_per_part[p].extend(chunk_rids[p])
        if kind is not None:
            kind = _merge_kind(kind, chunk_kind)
    if kind == "":
        kind = None  # no non-NULL keys at all: dict mode handles empty fine

    build = _RadixBuild(partitions, kind)
    by_size = sorted(range(partitions), key=lambda p: -len(keys_per_part[p]))

    if kind is not None:
        dtype = np.int64 if kind == "i" else np.float64

        def finalize_vector(p: int):
            arr = np.asarray(keys_per_part[p], dtype=dtype)
            order = np.argsort(arr, kind="stable")
            return arr[order], np.asarray(rids_per_part[p], dtype=np.intp)[order]

        finalize_tasks = [
            _traced(lambda p=p: (p, finalize_vector(p)), "@join-partition", p)
            for p in by_size
        ]
        finalized = dict(map_ordered(finalize_tasks, workers))
        offsets = np.zeros(partitions + 1, dtype=np.intp)
        for p in range(partitions):
            offsets[p + 1] = offsets[p] + len(keys_per_part[p])
        build.offsets = offsets
        build.all_keys = np.concatenate(
            [finalized[p][0] for p in range(partitions)]
        ) if int(offsets[-1]) else np.empty(0, dtype=dtype)
        build.all_rids = np.concatenate(
            [finalized[p][1] for p in range(partitions)]
        ) if int(offsets[-1]) else np.empty(0, dtype=np.intp)
        return build

    def finalize_dict(p: int):
        table: Dict[Any, List[int]] = {}
        for key, rid in zip(keys_per_part[p], rids_per_part[p]):
            table.setdefault(key, []).append(rid)
        return table

    finalize_tasks = [
        _traced(lambda p=p: (p, finalize_dict(p)), "@join-partition", p)
        for p in by_size
    ]
    finalized = dict(map_ordered(finalize_tasks, workers))
    build.tables = [finalized[p] for p in range(partitions)]
    return build


def _probe_vectorized(
    key_arr: np.ndarray,
    columns: Batch,
    n: int,
    build: _RadixBuild,
    right_rows: List[Tuple],
    is_outer: bool,
    null_pad: Tuple,
    left_width: int,
) -> Optional[List[Tuple]]:
    """Whole-morsel probe against a vector-mode build, or None to fall back.

    One hash kernel routes the morsel's keys to partitions, one pair of
    ``searchsorted`` calls per touched partition finds every match range,
    and the match expansion (which probe row pairs with which build rows)
    is pure index arithmetic — ``repeat``/``cumsum`` — so the entire
    matching phase runs in numpy with the GIL released.
    """
    pids = stable_partitions(key_arr, build.partitions)
    if pids is None:
        return None  # non-finite floats present: scalar path handles them
    all_keys, all_rids, offsets = build.all_keys, build.all_rids, build.offsets
    starts = np.zeros(n, dtype=np.intp)
    counts = np.zeros(n, dtype=np.intp)
    for p in np.unique(pids):
        lo, hi = int(offsets[p]), int(offsets[p + 1])
        mask = pids == p
        if lo == hi:
            continue
        seg = all_keys[lo:hi]
        sub = key_arr[mask]
        starts[mask] = lo + np.searchsorted(seg, sub, side="left")
        counts[mask] = (
            lo + np.searchsorted(seg, sub, side="right")
        ) - starts[mask]

    list_cols = _to_lists(columns, left_width, n)
    left_tuples = list(zip(*list_cols))
    if not is_outer:
        total = int(counts.sum())
        if total == 0:
            return []
        left_idx = np.repeat(np.arange(n), counts)
        base = np.cumsum(counts) - counts
        rpos = np.repeat(starts, counts) + (
            np.arange(total) - np.repeat(base, counts)
        )
        rids = all_rids[rpos]
        return [
            left_tuples[i] + right_rows[r]
            for i, r in zip(left_idx.tolist(), rids.tolist())
        ]
    out_counts = np.maximum(counts, 1)
    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(n), out_counts)
    base = np.cumsum(out_counts) - out_counts
    pos = np.arange(total) - np.repeat(base, out_counts)
    is_match = pos < np.repeat(counts, out_counts)
    rpos = np.repeat(starts, out_counts) + pos
    rids = np.zeros(total, dtype=np.intp)
    rids[is_match] = all_rids[rpos[is_match]]
    out: List[Tuple] = []
    for i, r, m in zip(left_idx.tolist(), rids.tolist(), is_match.tolist()):
        out.append(left_tuples[i] + (right_rows[r] if m else null_pad))
    return out


def join_rows(
    node: phys.PPartitionedHashJoin,
    catalog: Catalog,
    right_rows: List[Tuple],
) -> List[Tuple]:
    """Radix-partitioned parallel build + morsel-parallel probe, in serial order.

    ``right_rows`` is the materialized build side, produced by whichever
    engine is driving (keeps this module engine-agnostic and import-cycle
    free).  Partition routing uses :mod:`repro.exec.stablehash`, never the
    ``PYTHONHASHSEED``-randomized builtin, so assignments reproduce across
    runs and processes.
    """
    partitions = max(1, node.partitions)
    right_key_fns = [evaluator(k) for k in node.right_keys]
    build = _radix_build(right_rows, right_key_fns, partitions, node.workers)

    scan = node.left
    source = catalog.get_table(scan.table).morsels(scan.morsel_size)
    predicate, exprs = scan.predicate, scan.exprs
    left_keys = node.left_keys
    residual = evaluator(node.residual)
    null_pad = (None,) * len(node.right.schema)
    is_outer = node.is_outer
    left_width = len(scan.schema)
    single = len(left_keys) == 1
    #: The numpy probe requires same-kind dtypes on both sides; cross-kind
    #: comparisons (int64 keys probed with floats, say) go through the
    #: scalar path's exact conversion rules instead of a lossy array cast.
    vector_ok = build.kind is not None and single and residual is None

    def make(spec: Any) -> Callable[[], List[Tuple]]:
        def probe() -> List[Tuple]:
            columns, n = source.read(spec)
            columns, n = _apply_filter(predicate, columns, n)
            columns = _apply_project(exprs, columns, n)
            if n == 0:
                return []
            if vector_ok:
                key_arr = _numpy_operand(left_keys[0], columns)
                if (
                    isinstance(key_arr, np.ndarray)
                    and key_arr.dtype.kind == build.kind
                ):
                    out = _probe_vectorized(
                        key_arr,
                        columns,
                        n,
                        build,
                        right_rows,
                        is_outer,
                        null_pad,
                        left_width,
                    )
                    if out is not None:
                        return out
            columns = _to_lists(columns, left_width, n)
            key_cols = [eval_batch(k, columns, n) for k in left_keys]
            out = []
            for i, left_row in enumerate(zip(*columns)):
                if single:
                    key = key_cols[0][i]
                    has_null = key is None
                else:
                    key = tuple(col[i] for col in key_cols)
                    has_null = any(v is None for v in key)
                matched = False
                if not has_null:
                    for rid in build.lookup(key):
                        combined = left_row + right_rows[rid]
                        if residual is None or residual(combined) is True:
                            matched = True
                            out.append(combined)
                if is_outer and not matched:
                    out.append(left_row + null_pad)
            return out

        return probe

    tasks = [
        _traced(make(spec), scan.table, i) for i, spec in enumerate(source.specs)
    ]
    rows: List[Tuple] = []
    for chunk in map_ordered(tasks, node.workers):
        rows.extend(chunk)
    return rows


# -- parallel sort ------------------------------------------------------------------


def _sort_key_arrays(
    keys: Sequence[Tuple[BoundExpr, bool]], columns: Batch
) -> Optional[List[np.ndarray]]:
    """Direction-adjusted numpy key arrays for one morsel, or None.

    DESC is folded into the array so every later step sorts plain
    ascending: ``~arr`` for integers (bitwise complement is monotone
    decreasing and, unlike negation, cannot overflow at ``-2**63``) and
    ``-arr`` for floats.  Only clean (null-free) numeric columns qualify —
    the general path owns NULL placement and mixed types.
    """
    arrs: List[np.ndarray] = []
    for expr, asc in keys:
        arr = _numpy_operand(expr, columns)
        if not isinstance(arr, np.ndarray):
            return None
        if arr.dtype.kind in ("i", "u"):
            arrs.append(arr if asc else ~arr)
        elif arr.dtype.kind == "f":
            arrs.append(arr if asc else -arr)
        else:
            return None
    return arrs


def sorted_rows(node: phys.PParallelSort, catalog: Catalog) -> List[Tuple]:
    """Execute a parallel sort; returns rows in exact serial order.

    Morsel tasks scan/filter/project as usual, then either hand back
    direction-adjusted numpy key arrays (clean numeric keys) or a sorted
    run of rows (everything else).  The gather is one global *stable*
    ``np.lexsort`` in the numpy case — concatenation order is morsel order
    is serial scan order, so stability alone reproduces serial tie
    ordering — or a ``heapq.merge`` of the sorted runs, with ties broken
    by run index for the same reason.

    With a ``limit_hint`` each morsel keeps only its own top-k before the
    gather (any row in the global top-k is necessarily in its morsel's
    top-k, and stable per-morsel selection keeps exactly the tied rows
    serial ``heapq.nsmallest`` would keep), so ``ORDER BY ... LIMIT``
    never materializes full runs.
    """
    from repro.exec.volcano import SortComparable, sort_rows

    scan = node.child
    source = catalog.get_table(scan.table).morsels(scan.morsel_size)
    predicate, exprs = scan.predicate, scan.exprs
    keys = node.keys
    limit = node.limit_hint
    width = len(scan.schema)
    n_keys = len(keys)

    def make(spec: Any) -> Callable[[], Tuple]:
        def task() -> Tuple:
            columns, n = source.read(spec)
            columns, n = _apply_filter(predicate, columns, n)
            columns = _apply_project(exprs, columns, n)
            if n == 0:
                return ("rows", [])
            key_arrs = _sort_key_arrays(keys, columns)
            if key_arrs is not None:
                if limit is not None and limit < n:
                    order = np.lexsort(key_arrs[::-1])[:limit]
                    picked: Batch = []
                    for col in columns:
                        if isinstance(col, np.ndarray):
                            picked.append(col[order])
                        else:
                            picked.append([col[i] for i in order.tolist()])
                    columns = picked
                    key_arrs = [arr[order] for arr in key_arrs]
                    n = len(order)
                return ("np", columns, n, key_arrs)
            rows = list(zip(*_to_lists(columns, width, n)))
            return ("rows", sort_rows(rows, keys, limit))

        return task

    tasks = [
        _traced(make(spec), scan.table, i) for i, spec in enumerate(source.specs)
    ]
    results = [r for r in map_ordered(tasks, node.workers) if r[0] != "rows" or r[1]]
    if not results:
        return []

    # Vector gather: every morsel produced key arrays of consistent kinds.
    if all(r[0] == "np" for r in results):
        kinds = {
            tuple(arr.dtype.kind for arr in r[3]) for r in results
        }
        if len(kinds) == 1:
            key_concat = [
                np.concatenate([r[3][k] for r in results]) for k in range(n_keys)
            ]
            order = np.lexsort(key_concat[::-1])
            if limit is not None:
                order = order[:limit]
            out_cols: List[List[Any]] = []
            for c in range(width):
                pieces = [r[1][c] for r in results]
                if all(isinstance(p, np.ndarray) for p in pieces):
                    out_cols.append(np.concatenate(pieces)[order].tolist())
                else:
                    flat: List[Any] = []
                    for piece in pieces:
                        flat.extend(
                            piece.tolist() if isinstance(piece, np.ndarray) else piece
                        )
                    out_cols.append([flat[i] for i in order.tolist()])
            return list(zip(*out_cols)) if out_cols else []

    # General gather: k-way merge of sorted runs.  Numpy morsels (mixed in
    # only when dtypes drifted mid-table) are sorted here before merging.
    key_fns = [evaluator(e) for e, _ in keys]
    directions = [asc for _, asc in keys]
    runs: List[List[Tuple]] = []
    for r in results:
        if r[0] == "rows":
            runs.append(r[1])
        else:
            rows = list(zip(*_to_lists(r[1], width, r[2])))
            runs.append(sort_rows(rows, keys, limit))

    def decorated(run: List[Tuple], run_idx: int):
        # Rows are never compared: ties on (key, run_idx) cannot happen
        # across runs, and heapq.merge preserves order within one run.
        for row in run:
            yield (
                SortComparable([fn(row) for fn in key_fns], directions),
                run_idx,
                row,
            )

    out: List[Tuple] = []
    for _, _, row in heapq.merge(*(decorated(run, i) for i, run in enumerate(runs))):
        out.append(row)
        if limit is not None and len(out) >= limit:
            break
    return out

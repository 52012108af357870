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

* **Kernels.** Every task filters and projects with
  :mod:`repro.exec.vector_eval`'s ``filter_batch``/``project_batch``, the
  serial vectorized engine's own kernels: over clean (null-free,
  delete-free) numeric columns they run numpy ufuncs on zero-copy array
  slices, and numpy releases the GIL inside those loops, so threads
  genuinely overlap.  An int64 ufunc runs only when its result provably
  fits; where it could wrap, and on NULLs, text or functions, that node
  falls back to the per-row compiled scalar closure.  Partial aggregates
  are :class:`~repro.exec.compile._Accumulator` states, merged in morsel
  order.

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
from repro.exec.compile import _Accumulator, aggregate_output, evaluator
from repro.exec.stablehash import stable_hash, stable_partitions
from repro.exec.vector_eval import (
    Batch,
    as_list,
    eval_batch,
    filter_batch,
    project_batch,
    take,
)
from repro.plan.expressions import AggSpec, BoundExpr
from repro.txn.trace import (
    ABORT,
    BEGIN,
    COMMIT,
    READ,
    ScheduleRecorder,
    sanitize_enabled,
)

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


# -- morsel tasks -------------------------------------------------------------------


def _morsel_tasks(
    scan: phys.PParallelScan,
    catalog: Catalog,
    finish: Callable[[Batch, int], Any],
) -> List[Callable[[], Any]]:
    """One read -> filter -> project -> ``finish`` task per morsel, traced."""
    source = catalog.get_table(scan.table).morsels(scan.morsel_size)
    predicate, exprs = scan.predicate, scan.exprs

    def make(spec: Any) -> Callable[[], Any]:
        def task() -> Any:
            columns, n = filter_batch(predicate, *source.read(spec))
            return finish(project_batch(exprs, columns, n), n)

        return task

    return [
        _traced(make(spec), scan.table, i) for i, spec in enumerate(source.specs)
    ]


# -- parallel scan ----------------------------------------------------------------


def scan_batches(
    node: phys.PParallelScan, catalog: Catalog
) -> Iterator[Tuple[Batch, int]]:
    """Execute a parallel scan; yield column-major batches in morsel order."""
    tasks = _morsel_tasks(node, catalog, lambda columns, n: (columns, n))
    for columns, n in map_ordered(tasks, node.workers):
        if n:
            yield [as_list(col) for col in columns], n


def scan_rows(node: phys.PParallelScan, catalog: Catalog) -> Iterator[Tuple]:
    """Row-at-a-time view of a parallel scan (volcano consumption)."""
    for columns, n in scan_batches(node, catalog):
        for row in zip(*columns):
            yield row


# -- two-phase aggregation ---------------------------------------------------------


def _numpy_partial(
    accs: List[_Accumulator],
    arr: np.ndarray,
    gids: Optional[np.ndarray],
) -> bool:
    """Fill one aggregate's per-group accumulators via numpy; False if unsound.

    Only for non-DISTINCT aggregates over a clean numeric array (no NULLs),
    so every row contributes: count is the group size, SUM/AVG reduce with
    exact dtype-preserving kernels (``np.add.at`` for int64 — ``bincount``
    would round-trip through float64 and lose >2^53 precision) and
    MIN/MAX start from identities of the array's own dtype.  An int64 SUM
    that could reach 2^63 (``n·max|v|``) would wrap, so it returns False and
    the caller sums Python ints instead.
    """
    spec = accs[0].spec
    if spec.distinct or arr.dtype.kind not in "if":
        return False
    func = spec.func
    if func in ("SUM", "AVG") and arr.dtype.kind == "i" and arr.size:
        if max(-int(arr.min()), int(arr.max())) * arr.size >= 1 << 63:
            return False
    if gids is None:  # single (global) group
        acc = accs[0]
        acc.count = int(arr.size)
        if func in ("SUM", "AVG") and acc.count:
            acc.total = arr.sum().item()
        elif func in ("MIN", "MAX") and acc.count:
            acc.extreme = (arr.min() if func == "MIN" else arr.max()).item()
        return True
    n_groups = len(accs)
    counts = np.bincount(gids, minlength=n_groups).tolist()
    for acc, count in zip(accs, counts):
        acc.count = count
    if func in ("SUM", "AVG"):
        if arr.dtype.kind == "i":
            totals = np.zeros(n_groups, dtype=np.int64)
            np.add.at(totals, gids, arr)
        else:
            totals = np.bincount(gids, weights=arr, minlength=n_groups)
        for acc, total in zip(accs, totals.tolist()):
            acc.total = total  # every group has at least one row
    elif func in ("MIN", "MAX"):
        if arr.dtype.kind == "i":
            limits = np.iinfo(arr.dtype)
            identity = limits.max if func == "MIN" else limits.min
            extremes = np.full(n_groups, identity, dtype=arr.dtype)
        else:
            extremes = np.full(n_groups, np.inf if func == "MIN" else -np.inf)
        (np.minimum if func == "MIN" else np.maximum).at(extremes, gids, arr)
        for acc, extreme in zip(accs, extremes.tolist()):
            acc.extreme = extreme
    return True


def _partial_aggregate(
    columns: Batch,
    n: int,
    group_exprs: Tuple[BoundExpr, ...],
    aggregates: Tuple[AggSpec, ...],
) -> Dict[Tuple, List[_Accumulator]]:
    """Phase one: aggregate one morsel into per-group partial accumulators.

    The dict's keys are in first-seen row order within the morsel.
    """
    partials: Dict[Tuple, List[_Accumulator]] = {}
    if n == 0:
        return partials
    gids: Optional[np.ndarray] = None
    if group_exprs:
        key_cols = [as_list(eval_batch(expr, columns, n)) for expr in group_exprs]
        gid_of: Dict[Tuple, int] = {}
        gid_list = []
        for key in zip(*key_cols):
            gid = gid_of.get(key)
            if gid is None:
                gid = gid_of[key] = len(gid_of)
                partials[key] = [_Accumulator(spec) for spec in aggregates]
            gid_list.append(gid)
        gids = np.asarray(gid_list, dtype=np.intp)
    else:
        partials[()] = [_Accumulator(spec) for spec in aggregates]

    groups = list(partials.values())
    for a, spec in enumerate(aggregates):
        accs = [group[a] for group in groups]
        if spec.arg is None:  # COUNT(*): every row counts
            counts = [n] if gids is None else np.bincount(gids).tolist()
            for acc, count in zip(accs, counts):
                acc.count = count
            continue
        values = eval_batch(spec.arg, columns, n)
        if isinstance(values, np.ndarray) and _numpy_partial(accs, values, gids):
            continue
        values = as_list(values)
        if gids is None:
            add = accs[0].add_value
            for value in values:
                add(value)
        else:
            for g, value in zip(gids.tolist(), values):
                accs[g].add_value(value)
    return partials


def aggregate_rows(
    node: phys.PTwoPhaseAggregate, catalog: Catalog
) -> List[Tuple]:
    """Execute a two-phase aggregate; returns final rows in serial order."""
    group_exprs, aggregates = node.group_exprs, node.aggregates
    tasks = _morsel_tasks(
        node.child,
        catalog,
        lambda columns, n: _partial_aggregate(columns, n, group_exprs, aggregates),
    )
    merged: Dict[Tuple, List[_Accumulator]] = {}
    # Phase two: merge partials in morsel order => serial first-seen order.
    for partials in map_ordered(tasks, node.workers):
        for key, accs in partials.items():
            into = merged.get(key)
            if into is None:
                merged[key] = accs
            else:
                for acc, other in zip(into, accs):
                    acc.merge(other)
    return aggregate_output(merged, aggregates, bool(group_exprs))


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

    left_tuples = list(zip(*columns))
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

    left_keys = node.left_keys
    residual = evaluator(node.residual)
    null_pad = (None,) * len(node.right.schema)
    is_outer = node.is_outer
    single = len(left_keys) == 1
    #: The numpy probe requires same-kind dtypes on both sides; cross-kind
    #: comparisons (int64 keys probed with floats, say) go through the
    #: scalar path's exact conversion rules instead of a lossy array cast.
    vector_ok = build.kind is not None and single and residual is None

    def probe(columns: Batch, n: int) -> List[Tuple]:
        if n == 0:
            return []
        key_cols = [eval_batch(k, columns, n) for k in left_keys]
        columns = [as_list(col) for col in columns]
        if vector_ok:
            key_arr = key_cols[0]
            if isinstance(key_arr, np.ndarray) and key_arr.dtype.kind == build.kind:
                out = _probe_vectorized(
                    key_arr, columns, n, build, right_rows, is_outer, null_pad
                )
                if out is not None:
                    return out
        key_cols = [as_list(col) for col in key_cols]
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

    rows: List[Tuple] = []
    for chunk in map_ordered(_morsel_tasks(node.left, catalog, probe), node.workers):
        rows.extend(chunk)
    return rows


# -- parallel sort ------------------------------------------------------------------


def _sort_key_arrays(
    keys: Sequence[Tuple[BoundExpr, bool]], columns: Batch, n: int
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
        arr = eval_batch(expr, columns, n)
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

    keys = node.keys
    limit = node.limit_hint
    width = len(node.child.schema)
    n_keys = len(keys)

    def task(columns: Batch, n: int) -> Tuple:
        if n == 0:
            return ("rows", [])
        key_arrs = _sort_key_arrays(keys, columns, n)
        if key_arrs is not None:
            if limit is not None and limit < n:
                order = np.lexsort(key_arrs[::-1])[:limit]
                columns = take(columns, order.tolist())
                key_arrs = [arr[order] for arr in key_arrs]
            return ("np", columns, key_arrs)
        rows = list(zip(*[as_list(col) for col in columns]))
        return ("rows", sort_rows(rows, keys, limit))

    tasks = _morsel_tasks(node.child, catalog, task)
    results = [r for r in map_ordered(tasks, node.workers) if r[0] != "rows" or r[1]]
    if not results:
        return []

    # Vector gather: every morsel produced key arrays of consistent kinds.
    if all(r[0] == "np" for r in results):
        kinds = {
            tuple(arr.dtype.kind for arr in r[2]) for r in results
        }
        if len(kinds) == 1:
            key_concat = [
                np.concatenate([r[2][k] for r in results]) for k in range(n_keys)
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
                        flat.extend(as_list(piece))
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
            rows = list(zip(*[as_list(col) for col in r[1]]))
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

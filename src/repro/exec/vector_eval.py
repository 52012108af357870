"""Batch (column-at-a-time) expression evaluation.

A batch is a list of columns of length ``n``.  A column is a Python list,
or a clean numpy array (null-free and delete-free, the
``ColumnTable.clean_array`` contract that morsel reads hand out).  This is
the one batch lowering of ``BoundExpr`` for both engines and every morsel
task.

Numeric arithmetic, comparisons and AND/OR take a numpy kernel whenever
the operands are null-free numeric columns or numeric scalars: over array
inputs the result stays an array, over list inputs it comes back as a
list.  int64 kernels run only where the result provably fits (see
:func:`_numpy_binary`); everything else — NULLs, text, functions, or an
int64 result that could wrap — goes through a per-row loop over the
compiled scalar closure, so batch answers equal row-at-a-time answers
(same three-valued logic; the cross-engine property tests enforce it).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.core.types import DataType
from repro.exec.compile import evaluator
from repro.plan.expressions import (
    BoundBinary,
    BoundCase,
    BoundColumn,
    BoundExpr,
    BoundFunc,
    BoundInList,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundParam,
    BoundUnary,
)

Batch = List[Any]  # column-major: batch[column][row], each column a list or array

_NUMPY_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply}
_NUMPY_CMP = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_INT64 = 1 << 63  # |int64 result| must stay below this
_FLOAT_EXACT = 1 << 53  # ints up to here convert to float64 exactly


def eval_batch(expr: BoundExpr, batch: Batch, n: int) -> Any:
    """Evaluate ``expr`` over every row of a column-major batch.

    Returns a list, or a numpy array when the inputs it read were arrays.
    """
    if isinstance(expr, BoundColumn):
        return batch[expr.index]
    if isinstance(expr, BoundLiteral):
        return [expr.value] * n
    if isinstance(expr, BoundParam):
        return [expr.slots[expr.index]] * n
    if isinstance(expr, BoundBinary):
        return _eval_binary(expr, batch, n)
    if isinstance(expr, BoundUnary):
        operand = eval_batch(expr.operand, batch, n)
        if isinstance(operand, np.ndarray):
            kind = operand.dtype.kind
            if expr.op == "NOT" and kind == "b":
                return ~operand
            if expr.op == "-" and (
                kind == "f" or (kind == "i" and _magnitude(operand) < _INT64)
            ):
                return np.negative(operand)
            operand = operand.tolist()
        if expr.op == "NOT":
            return [None if v is None else (not v) for v in operand]
        return [None if v is None else -v for v in operand]
    if isinstance(expr, BoundIsNull):
        operand = eval_batch(expr.operand, batch, n)
        if isinstance(operand, np.ndarray):  # clean: no NULLs at all
            return np.full(n, expr.negated)
        if expr.negated:
            return [v is not None for v in operand]
        return [v is None for v in operand]
    if isinstance(expr, BoundInList):
        operand = as_list(eval_batch(expr.operand, batch, n))
        out: List[Any] = []
        for v in operand:
            if v is None:
                out.append(None)
                continue
            found = v in expr.values
            if not found and expr.has_null:
                out.append(None)
                continue
            out.append(not found if expr.negated else found)
        return out
    if isinstance(expr, (BoundLike, BoundFunc, BoundCase)):
        # Row-wise evaluation against a virtual row view of the batch.
        return _eval_rowwise(expr, batch, n)
    raise ExecutionError(f"cannot batch-evaluate {type(expr).__name__}")


def filter_batch(
    pred: Optional[BoundExpr], batch: Batch, n: int
) -> Tuple[Batch, int]:
    """The rows of ``batch`` for which ``pred`` is TRUE, in order."""
    if pred is None or n == 0:
        return batch, n
    mask = eval_batch(pred, batch, n)
    if isinstance(mask, np.ndarray) and mask.dtype.kind == "b":
        keep = np.flatnonzero(mask).tolist()
    else:
        keep = [i for i, v in enumerate(normalize_mask(as_list(mask))) if v]
    if len(keep) == n:
        return batch, n
    return take(batch, keep), len(keep)


def project_batch(
    exprs: Optional[Sequence[BoundExpr]], batch: Batch, n: int
) -> Batch:
    """One output column per expression (``None`` keeps the batch as is)."""
    if exprs is None:
        return batch
    return [eval_batch(e, batch, n) for e in exprs]


def take(batch: Batch, positions: Sequence[int]) -> Batch:
    """Keep only the rows at ``positions``; arrays stay arrays."""
    idx = None
    if any(isinstance(col, np.ndarray) for col in batch):
        idx = np.asarray(positions, dtype=np.intp)
    return [
        col[idx] if isinstance(col, np.ndarray) else [col[i] for i in positions]
        for col in batch
    ]


def as_list(values: Any) -> List[Any]:
    """A column as plain Python values: the form that leaves ``exec/``."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def normalize_mask(values: Sequence[Any]) -> List[Any]:
    """Coerce a predicate column to plain ``True`` / ``False`` / ``None``.

    The numpy fast path can hand back ``np.bool_`` values, for which identity
    tests like ``v is True`` are silently always false.  Normalizing at this
    boundary lets consumers use plain truthiness (``None`` is falsy).
    """
    return [None if v is None else bool(v) for v in values]


def _eval_rowwise(expr: BoundExpr, batch: Batch, n: int) -> List[Any]:
    columns = [(c, as_list(batch[c])) for c in sorted(_columns_of(expr))]
    fn = evaluator(expr)
    out = []
    row: List[Any] = [None] * len(batch)
    for i in range(n):
        for c, values in columns:
            row[c] = values[i]
        out.append(fn(row))
    return out


def _columns_of(expr: BoundExpr) -> set:
    cols = set()

    def walk(node: BoundExpr) -> None:
        if isinstance(node, BoundColumn):
            cols.add(node.index)
        for child in node.children():
            walk(child)

    walk(expr)
    return cols


def _operand(expr: BoundExpr, batch: Batch, n: int) -> Any:
    """A binary operand: numeric literals and parameters stay scalars."""
    if isinstance(expr, (BoundLiteral, BoundParam)):
        value = expr.value if isinstance(expr, BoundLiteral) else expr.slots[expr.index]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
    return eval_batch(expr, batch, n)


def _numeric(values: Any, dtype: DataType) -> Any:
    """``values`` as a numeric numpy array or scalar, or None.

    A list qualifies only when it holds no NULLs and converts losslessly:
    INTEGER values beyond int64 come out of ``np.asarray`` as float, object
    or uint64, and stay on the per-row path.
    """
    if not isinstance(values, list):
        return values  # an array, or a numeric scalar from _operand
    if None in values:
        return None
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "ifb":
        return None
    if dtype is DataType.INTEGER and arr.dtype.kind != "i":
        return None
    return arr


def _kind(x: Any) -> str:
    """numpy kind letter of an array or a Python scalar: i, f or b."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind
    if isinstance(x, bool):
        return "b"
    return "i" if isinstance(x, int) else "f"


def _magnitude(x: Any) -> int:
    """max |v| over an int64 array or of a Python int, as a Python int."""
    if isinstance(x, np.ndarray):
        return max(-int(x.min()), int(x.max())) if x.size else 0
    return abs(x)


def _numpy_binary(op: str, left: Any, right: Any) -> Optional[np.ndarray]:
    """The ufunc over numeric arrays/scalars, or None where numpy could differ.

    int64 arithmetic wraps silently, so it runs only when the result
    provably fits: ``max|a| + max|b| < 2^63`` for ``+``/``-`` and
    ``max|a| * max|b| < 2^63`` for ``*``, computed with Python ints.  An
    integer scalar outside int64 never enters a ufunc, and an int compared
    with a float must convert to float64 exactly.
    """
    if any(isinstance(x, int) and abs(x) >= _INT64 for x in (left, right)):
        return None
    lk, rk = _kind(left), _kind(right)
    if op in _NUMPY_ARITH:
        if lk not in "if" or rk not in "if":
            return None
        if lk == rk == "i":
            lm, rm = _magnitude(left), _magnitude(right)
            if (lm * rm if op == "*" else lm + rm) >= _INT64:
                return None
    elif (lk == "b") != (rk == "b"):
        return None
    elif {lk, rk} == {"i", "f"}:
        if _magnitude(left if lk == "i" else right) > _FLOAT_EXACT:
            return None
    fn = _NUMPY_ARITH.get(op) or _NUMPY_CMP[op]
    return fn(left, right)


def _broadcast(values: Any, n: int) -> List[Any]:
    """A binary operand as a list: a scalar repeats ``n`` times."""
    return as_list(values) if isinstance(values, (list, np.ndarray)) else [values] * n


def _eval_binary(expr: BoundBinary, batch: Batch, n: int) -> Any:
    op = expr.op
    left = _operand(expr.left, batch, n)
    right = _operand(expr.right, batch, n)
    if op in ("AND", "OR"):
        if (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype.kind == right.dtype.kind == "b"
        ):
            return left & right if op == "AND" else left | right
        return _logical(op, _broadcast(left, n), _broadcast(right, n))
    # numpy kernel: null-free numeric operands, at least one a column.
    if op in _NUMPY_ARITH or op in _NUMPY_CMP:
        la = _numeric(left, expr.left.dtype)
        ra = _numeric(right, expr.right.dtype)
        if (
            la is not None
            and ra is not None
            and (isinstance(la, np.ndarray) or isinstance(ra, np.ndarray))
        ):
            out = _numpy_binary(op, la, ra)
            if out is not None:
                if isinstance(left, list) or isinstance(right, list):
                    return out.tolist()
                return out
    # General path with NULL propagation, reusing scalar semantics.  The
    # two-slot probe closure is memoized on the expression node so repeated
    # batches (and plan-cache hits) compile it exactly once.
    probe_fn = getattr(expr, "_probe_fn", None)
    if probe_fn is None:
        probe = BoundBinary(
            op, _Slot(0, expr.left.dtype), _Slot(1, expr.right.dtype), expr.dtype
        )
        probe_fn = evaluator(probe)
        object.__setattr__(expr, "_probe_fn", probe_fn)
    return [probe_fn(pair) for pair in zip(_broadcast(left, n), _broadcast(right, n))]


def _logical(op: str, left: List[Any], right: List[Any]) -> List[Any]:
    """Three-valued AND / OR over two columns of True / False / None."""
    out = []
    if op == "AND":
        for a, b in zip(left, right):
            if a is False or b is False:
                out.append(False)
            elif a is None or b is None:
                out.append(None)
            else:
                out.append(True)
        return out
    for a, b in zip(left, right):
        if a is True or b is True:
            out.append(True)
        elif a is None or b is None:
            out.append(None)
        else:
            out.append(False)
    return out


class _Slot(BoundColumn):
    """A positional placeholder used to reuse scalar binary semantics."""

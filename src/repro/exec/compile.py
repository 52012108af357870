"""Expression → closure compilation (the engine's tiny JIT).

``BoundExpr.eval`` walks the expression tree for every row: each node costs
a virtual dispatch, attribute loads, and a Python frame.  On filter-heavy
scans that walk dominates execution time.  ``compile_expr`` lowers a bound
expression tree once into a single Python function — straight-line code
with one frame per *row* instead of one per *node* — and ``evaluator``
memoizes the result on the expression object so a plan (and the plan
cache that retains it) compiles each expression exactly once.

Semantics are bit-for-bit those of the interpreter, which stays in place
as the reference implementation for differential testing:

* three-valued logic: NULL propagates through comparisons, arithmetic,
  NOT, and scalar functions; AND/OR keep their short-circuit behavior
  (``FALSE AND (1/0 = 1)`` must not raise);
* CASE and COALESCE only evaluate the branches they need;
* errors (division by zero, failing scalar functions) raise the same
  :class:`ExecutionError` at the same points.

Compiled evaluation is the only execution path: the emitter covers every
node type the binder produces, and anything else raises
:class:`CompileError`.  ``BoundExpr.eval`` is kept as the reference that
the differential tests and constant folding use.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import ExecutionError
from repro.plan.expressions import (
    _SCALAR_FUNCS,
    AggSpec,
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

__all__ = [
    "CompileError",
    "compile_expr",
    "compiled_source",
    "evaluator",
]

_ATTR = "_compiled_fn"


class CompileError(Exception):
    """Raised when an expression contains a node the emitter cannot lower."""


def evaluator(expr: Optional[BoundExpr]) -> Optional[Callable[[Sequence[Any]], Any]]:
    """The compiled row evaluator for an expression.

    Returns ``None`` for ``None`` (optional predicates stay optional at the
    call site).  The compiled function is memoized on the expression
    instance, so plans cached across statements never recompile.
    """
    if expr is None:
        return None
    fn = expr.__dict__.get(_ATTR)
    if fn is None:
        fn = compile_expr(expr)
        object.__setattr__(expr, _ATTR, fn)
    return fn


def compiled_source(expr: BoundExpr) -> str:
    """The generated Python source for an expression (debugging aid)."""
    return evaluator(expr).__source__


# --------------------------------------------------------------------------
# Runtime helpers shared by all generated functions
# --------------------------------------------------------------------------


def _rt_div(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        # SQL integer division truncates toward zero.
        return int(left / right)
    return left / right


def _rt_mod(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("modulo by zero")
    if isinstance(left, float) or isinstance(right, float):
        return math.fmod(left, right)
    return int(math.fmod(left, right))


def _rt_call(fn: Callable[[Sequence[Any]], Any], name: str, args: Sequence[Any]) -> Any:
    try:
        return fn(args)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ExecutionError(f"{name} failed: {exc}") from exc


#: Python spellings of the null-propagating binary operators.
_PY_BINOPS = {
    "=": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
}


class _Emitter:
    """Accumulates generated lines, constants, and temporaries."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.env: Dict[str, Any] = {
            "_rt_div": _rt_div,
            "_rt_mod": _rt_mod,
            "_rt_call": _rt_call,
        }
        self._counter = 0
        self.depth = 1

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def temp(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def const(self, value: Any) -> str:
        self._counter += 1
        name = f"k{self._counter}"
        self.env[name] = value
        return name

    @staticmethod
    def nullable(atom: str) -> bool:
        """Whether an atom can be None at runtime.

        Temporaries (``tN``), constants (``kN``), parameter reads
        (``kN[i]``), and row reads (``row[i]``) can; literal atoms can only
        when they are the literal ``None`` itself.
        """
        if atom.startswith(("row[", "t", "k")):
            return True
        return atom == "None"

    def null_guard(self, *atoms: str) -> Optional[str]:
        """An ``a is None or b is None`` guard over the nullable atoms.

        Returns None when no atom can be NULL (guard statically false),
        and the atom ``"True"`` never appears: a literal ``None`` operand
        still routes through ``x is None`` via its const slot.
        """
        checks = [f"{a} is None" for a in atoms if self.nullable(a)]
        if not checks:
            return None
        return " or ".join(checks)

    # -- dispatch ----------------------------------------------------------

    def emit(self, expr: BoundExpr) -> str:
        """Emit code computing ``expr``; returns a repeatable atom.

        The returned string is either a bound temporary, a ``row[i]``
        subscript, or a literal — all safe to mention several times in one
        generated line.
        """
        if isinstance(expr, BoundColumn):
            return f"row[{expr.index}]"
        if isinstance(expr, BoundLiteral):
            return self._literal_atom(expr.value)
        if isinstance(expr, BoundParam):
            return f"{self.const(expr.slots)}[{expr.index}]"
        if isinstance(expr, BoundBinary):
            return self._emit_binary(expr)
        if isinstance(expr, BoundUnary):
            return self._emit_unary(expr)
        if isinstance(expr, BoundIsNull):
            return self._emit_is_null(expr)
        if isinstance(expr, BoundInList):
            return self._emit_in_list(expr)
        if isinstance(expr, BoundLike):
            return self._emit_like(expr)
        if isinstance(expr, BoundCase):
            return self._emit_case(expr)
        if isinstance(expr, BoundFunc):
            return self._emit_func(expr)
        raise CompileError(f"cannot compile {type(expr).__name__}")

    # -- leaves ------------------------------------------------------------

    def _literal_atom(self, value: Any) -> str:
        if value is None or isinstance(value, (bool, int, str)):
            return repr(value)
        if isinstance(value, float):
            # repr round-trips floats exactly (including inf via env const).
            if math.isfinite(value):
                return repr(value)
        return self.const(value)

    # -- operators ---------------------------------------------------------

    def _emit_binary(self, expr: BoundBinary) -> str:
        op = expr.op
        if op in ("AND", "OR"):
            return self._emit_logical(expr)
        left = self.emit(expr.left)
        right = self.emit(expr.right)
        out = self.temp()
        if op in _PY_BINOPS:
            body = f"{left} {_PY_BINOPS[op]} {right}"
        elif op == "/":
            body = f"_rt_div({left}, {right})"
        elif op == "%":
            body = f"_rt_mod({left}, {right})"
        elif op == "||":
            body = f"str({left}) + str({right})"
        else:
            raise CompileError(f"unknown binary operator {op!r}")
        guard = self.null_guard(left, right)
        if guard is None:
            self.line(f"{out} = {body}")
        else:
            self.line(f"{out} = None if {guard} else ({body})")
        return out

    def _emit_logical(self, expr: BoundBinary) -> str:
        """AND/OR with interpreter-faithful short-circuiting."""
        absorbing = "False" if expr.op == "AND" else "True"
        neutral = "True" if expr.op == "AND" else "False"
        left = self.emit(expr.left)
        out = self.temp()
        self.line(f"if {left} is {absorbing}:")
        self.depth += 1
        self.line(f"{out} = {absorbing}")
        self.depth -= 1
        self.line("else:")
        self.depth += 1
        right = self.emit(expr.right)
        self.line(f"if {right} is {absorbing}:")
        self.depth += 1
        self.line(f"{out} = {absorbing}")
        self.depth -= 1
        self.line("else:")
        self.depth += 1
        guard = self.null_guard(left, right)
        if guard is None:
            self.line(f"{out} = {neutral}")
        else:
            self.line(f"{out} = None if {guard} else {neutral}")
        self.depth -= 2
        return out

    def _emit_unary(self, expr: BoundUnary) -> str:
        operand = self.emit(expr.operand)
        out = self.temp()
        body = f"not {operand}" if expr.op == "NOT" else f"-{operand}"
        guard = self.null_guard(operand)
        if guard is None:
            self.line(f"{out} = {body}")
        else:
            self.line(f"{out} = None if {guard} else ({body})")
        return out

    def _emit_is_null(self, expr: BoundIsNull) -> str:
        operand = self.emit(expr.operand)
        out = self.temp()
        if not self.nullable(operand):
            self.line(f"{out} = {expr.negated!r}")
        elif operand == "None":
            self.line(f"{out} = {(not expr.negated)!r}")
        else:
            check = "is not None" if expr.negated else "is None"
            self.line(f"{out} = {operand} {check}")
        return out

    def _emit_in_list(self, expr: BoundInList) -> str:
        operand = self.emit(expr.operand)
        values = self.const(expr.values)
        out = self.temp()
        if expr.has_null:
            # Matching is definite; not matching is unknown (list had NULL).
            hit = "False" if expr.negated else "True"
            body = f"{hit} if {operand} in {values} else None"
        else:
            membership = "not in" if expr.negated else "in"
            body = f"{operand} {membership} {values}"
        guard = self.null_guard(operand)
        if guard is None:
            self.line(f"{out} = {body}")
        else:
            self.line(f"{out} = None if {guard} else ({body})")
        return out

    def _emit_like(self, expr: BoundLike) -> str:
        operand = self.emit(expr.operand)
        regex = self.const(expr._regex)
        out = self.temp()
        check = "is None" if expr.negated else "is not None"
        body = f"{regex}.match({operand}) {check}"
        guard = self.null_guard(operand)
        if guard is None:
            self.line(f"{out} = {body}")
        else:
            self.line(f"{out} = None if {guard} else ({body})")
        return out

    # -- branching constructs ----------------------------------------------

    def _emit_case(self, expr: BoundCase) -> str:
        out = self.temp()

        def chain(index: int) -> None:
            if index == len(expr.whens):
                if expr.else_result is not None:
                    result = self.emit(expr.else_result)
                    self.line(f"{out} = {result}")
                else:
                    self.line(f"{out} = None")
                return
            cond, result_expr = expr.whens[index]
            cond_atom = self.emit(cond)
            self.line(f"if {cond_atom} is True:")
            self.depth += 1
            result = self.emit(result_expr)
            self.line(f"{out} = {result}")
            self.depth -= 1
            self.line("else:")
            self.depth += 1
            chain(index + 1)
            self.depth -= 1

        chain(0)
        return out

    def _emit_func(self, expr: BoundFunc) -> str:
        name = expr.name
        if name == "COALESCE":
            return self._emit_coalesce(expr)
        spec = _SCALAR_FUNCS.get(name)
        if spec is None:
            raise CompileError(f"unknown scalar function {name!r}")
        args = [self.emit(a) for a in expr.args]
        fn = self.const(spec["fn"])
        out = self.temp()
        arg_tuple = "(" + ", ".join(args) + ("," if len(args) == 1 else "") + ")"
        call = f"_rt_call({fn}, {name!r}, {arg_tuple})"
        guard = self.null_guard(*args)
        if guard is None:
            self.line(f"{out} = {call}")
        else:
            self.line(f"{out} = None if {guard} else {call}")
        return out

    def _emit_coalesce(self, expr: BoundFunc) -> str:
        out = self.temp()

        def chain(index: int) -> None:
            if index == len(expr.args):
                self.line(f"{out} = None")
                return
            arg = self.emit(expr.args[index])
            if arg == "None":
                chain(index + 1)
                return
            if not self.nullable(arg):
                # Statically non-NULL: later arguments are never reached.
                self.line(f"{out} = {arg}")
                return
            self.line(f"if {arg} is not None:")
            self.depth += 1
            self.line(f"{out} = {arg}")
            self.depth -= 1
            self.line("else:")
            self.depth += 1
            chain(index + 1)
            self.depth -= 1

        chain(0)
        return out


def compile_expr(expr: BoundExpr) -> Callable[[Sequence[Any]], Any]:
    """Lower a bound expression to a single Python function of one row.

    Raises :class:`CompileError` when the tree contains a node the
    generator does not understand.
    """
    emitter = _Emitter()
    result = emitter.emit(expr)
    body = "\n".join(emitter.lines) if emitter.lines else ""
    source = "def _compiled(row):\n"
    if body:
        source += body + "\n"
    source += f"    return {result}\n"
    namespace = dict(emitter.env)
    code = compile(source, "<expr-codegen>", "exec")
    exec(code, namespace)  # noqa: S102 — our own generated source
    fn = namespace["_compiled"]
    fn.__source__ = source
    fn.__expr_sql__ = expr.to_sql()
    return fn


# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------


class _Accumulator:
    """State for one aggregate within one group: its compiled form.

    ``add(row)`` is an instance attribute: the per-function dispatch is
    resolved once at construction into a specialized closure (the aggregate
    analogue of compiling an expression).  ``add_value`` takes an already
    evaluated argument and ``merge`` folds in another accumulator's state,
    which is how morsel tasks build partial states and the gather combines
    them.  DISTINCT state is an insertion-ordered dict of the values seen,
    so SUM/AVG fold them in first-seen order however they were merged.
    """

    __slots__ = ("spec", "arg_fn", "count", "total", "extreme", "distinct_values", "add")

    def __init__(self, spec: AggSpec):
        self.spec = spec
        self.arg_fn = evaluator(spec.arg)
        self.count = 0
        self.total: Any = None
        self.extreme: Any = None
        self.distinct_values: Optional[Dict[Any, None]] = {} if spec.distinct else None
        self.add = self._make_add()

    def add_value(self, value: Any) -> None:
        if value is None:
            return
        if self.distinct_values is not None:
            self.distinct_values[value] = None
            return
        self.count += 1
        func = self.spec.func
        if func in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif func == "MIN":
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif func == "MAX":
            if self.extreme is None or value > self.extreme:
                self.extreme = value

    def merge(self, other: "_Accumulator") -> None:
        if self.distinct_values is not None:
            self.distinct_values.update(other.distinct_values)
            return
        self.count += other.count
        if other.total is not None:
            self.total = other.total if self.total is None else self.total + other.total
        if other.extreme is not None:
            func = self.spec.func
            if (
                self.extreme is None
                or (func == "MIN" and other.extreme < self.extreme)
                or (func == "MAX" and other.extreme > self.extreme)
            ):
                self.extreme = other.extreme

    def _make_add(self):
        arg_fn = self.arg_fn
        if arg_fn is None:  # COUNT(*)
            def add_star(row: Sequence[Any]) -> None:
                self.count += 1

            return add_star
        # DISTINCT goes through add_value, which records the value set.
        func = self.spec.func if self.distinct_values is None else None
        if func == "COUNT":
            def add_count(row: Sequence[Any]) -> None:
                if arg_fn(row) is not None:
                    self.count += 1

            return add_count
        if func in ("SUM", "AVG"):
            def add_sum(row: Sequence[Any]) -> None:
                value = arg_fn(row)
                if value is not None:
                    self.count += 1
                    total = self.total
                    self.total = value if total is None else total + value

            return add_sum
        if func == "MIN":
            def add_min(row: Sequence[Any]) -> None:
                value = arg_fn(row)
                if value is not None:
                    self.count += 1
                    extreme = self.extreme
                    if extreme is None or value < extreme:
                        self.extreme = value

            return add_min
        if func == "MAX":
            def add_max(row: Sequence[Any]) -> None:
                value = arg_fn(row)
                if value is not None:
                    self.count += 1
                    extreme = self.extreme
                    if extreme is None or value > extreme:
                        self.extreme = value

            return add_max
        add_value = self.add_value
        return lambda row: add_value(arg_fn(row))

    def result(self) -> Any:
        if self.distinct_values is not None:
            # Fold the distinct values, in first-seen order, into plain state.
            plain = _Accumulator(dataclasses.replace(self.spec, distinct=False))
            for value in self.distinct_values:
                plain.add_value(value)
            return plain.result()
        func = self.spec.func
        if func == "COUNT":
            return self.count
        if func == "SUM":
            return self.total
        if func == "AVG":
            return self.total / self.count if self.count else None
        return self.extreme


def aggregate_output(
    groups: Dict[tuple, List[_Accumulator]], aggregates: Sequence[AggSpec], grouped: bool
) -> List[tuple]:
    """Final rows: each group's key plus its results, in first-seen order.

    A global aggregate over an empty input still yields one row of identity
    values (COUNT 0, the rest NULL).
    """
    if not groups and not grouped:
        return [tuple(_Accumulator(spec).result() for spec in aggregates)]
    return [key + tuple(acc.result() for acc in accs) for key, accs in groups.items()]

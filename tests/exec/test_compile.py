"""Tests for expression→closure codegen (repro.exec.compile).

The compiled closure must be *indistinguishable* from the tree-walking
``BoundExpr.eval`` — same values (including None), same short-circuit
behavior, same errors.  The differential property test below generates
randomized expression trees (NULLs, LIKE, CASE, IN lists, nested binaries,
scalar functions) and checks both evaluators row by row.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ExecutionError
from repro.core.types import DataType
from repro.exec.compile import CompileError, compile_expr, compiled_source, evaluator
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
    ParamVector,
)

BOOL = DataType.BOOLEAN
INT = DataType.INTEGER
FLT = DataType.FLOAT
TXT = DataType.TEXT

# Row layout used by the generator: [int, int, float, text, bool]
COLUMNS = [
    BoundColumn(0, INT, "a"),
    BoundColumn(1, INT, "b"),
    BoundColumn(2, FLT, "x"),
    BoundColumn(3, TXT, "s"),
    BoundColumn(4, BOOL, "flag"),
]


def random_rows(rng: random.Random, n: int = 40):
    rows = []
    for _ in range(n):
        rows.append(
            (
                rng.choice([None, 0, 1, -3, 7, 42]),
                rng.choice([None, 0, 2, 5, -1]),
                rng.choice([None, 0.0, 1.5, -2.25, 100.0]),
                rng.choice([None, "", "abc", "abba", "a%c", "Hello"]),
                rng.choice([None, True, False]),
            )
        )
    return rows


def gen_numeric(rng: random.Random, depth: int) -> BoundExpr:
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(
            [
                COLUMNS[0],
                COLUMNS[1],
                COLUMNS[2],
                BoundLiteral(rng.choice([None, 0, 1, 3, -5, 2.5]), INT),
            ]
        )
    op = rng.choice(["+", "-", "*", "/", "%"])
    left = gen_numeric(rng, depth - 1)
    right = gen_numeric(rng, depth - 1)
    expr = BoundBinary(op, left, right, FLT)
    if rng.random() < 0.2:
        expr = BoundUnary("-", expr, FLT)
    if rng.random() < 0.15:
        expr = BoundFunc("ABS", (expr,), FLT)
    if rng.random() < 0.15:
        expr = BoundFunc("COALESCE", (expr, gen_numeric(rng, 0)), FLT)
    return expr


def gen_predicate(rng: random.Random, depth: int) -> BoundExpr:
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        choice = rng.randrange(5)
        if choice == 0:
            return BoundIsNull(rng.choice(COLUMNS), negated=rng.random() < 0.5)
        if choice == 1:
            return BoundInList(
                COLUMNS[0],
                frozenset([0, 1, 7]),
                has_null=rng.random() < 0.5,
                negated=rng.random() < 0.5,
            )
        if choice == 2:
            return BoundLike(
                COLUMNS[3],
                rng.choice(["a%", "%b%", "ab_a", "%", "Hello"]),
                negated=rng.random() < 0.5,
            )
        if choice == 3:
            return COLUMNS[4]
        return BoundBinary(
            rng.choice(["=", "!=", "<", "<=", ">", ">="]),
            gen_numeric(rng, 1),
            gen_numeric(rng, 1),
            BOOL,
        )
    if roll < 0.55:
        return BoundBinary(
            rng.choice(["AND", "OR"]),
            gen_predicate(rng, depth - 1),
            gen_predicate(rng, depth - 1),
            BOOL,
        )
    if roll < 0.7:
        return BoundUnary("NOT", gen_predicate(rng, depth - 1), BOOL)
    if roll < 0.85:
        whens = tuple(
            (gen_predicate(rng, depth - 1), gen_numeric(rng, 1))
            for _ in range(rng.randrange(1, 3))
        )
        else_result = gen_numeric(rng, 1) if rng.random() < 0.7 else None
        case = BoundCase(whens, else_result, FLT)
        return BoundBinary(">", case, BoundLiteral(0, INT), BOOL)
    return BoundBinary(
        "=", BoundFunc("LENGTH", (COLUMNS[3],), INT), gen_numeric(rng, 1), BOOL
    )


def outcomes(fn, row):
    """Value or the error type — errors must match across evaluators."""
    try:
        return ("ok", fn(row))
    except ExecutionError:
        return ("error", ExecutionError)


class TestDifferentialProperty:
    def test_compiled_matches_eval_on_random_exprs(self):
        rng = random.Random(20260805)
        rows = random_rows(rng, 60)
        checked = 0
        for _ in range(120):
            expr = gen_predicate(rng, 3)
            fn = compile_expr(expr)
            for row in rows:
                expected = outcomes(expr.eval, row)
                got = outcomes(fn, row)
                assert got == expected, (
                    f"mismatch for {expr.to_sql()}\nrow={row}\n"
                    f"eval={expected} compiled={got}\n{compiled_source(expr)}"
                )
                checked += 1
        assert checked > 5000

    def test_compiled_matches_eval_on_numeric_exprs(self):
        rng = random.Random(777)
        rows = random_rows(rng, 40)
        for _ in range(80):
            expr = gen_numeric(rng, 3)
            fn = compile_expr(expr)
            for row in rows:
                assert outcomes(fn, row) == outcomes(expr.eval, row)


class TestSemantics:
    def test_and_short_circuit_skips_poison_operand(self):
        # FALSE AND (1/0 = 1) must be False, not a division error.
        poison = BoundBinary(
            "=",
            BoundBinary("/", BoundLiteral(1, INT), BoundLiteral(0, INT), INT),
            BoundLiteral(1, INT),
            BOOL,
        )
        expr = BoundBinary("AND", BoundLiteral(False, BOOL), poison, BOOL)
        assert compile_expr(expr)(()) is expr.eval(()) is False
        expr = BoundBinary("OR", BoundLiteral(True, BOOL), poison, BOOL)
        assert compile_expr(expr)(()) is expr.eval(()) is True

    def test_case_only_evaluates_taken_branch(self):
        poison = BoundBinary("/", BoundLiteral(1, INT), BoundLiteral(0, INT), INT)
        expr = BoundCase(
            ((BoundLiteral(True, BOOL), BoundLiteral(42, INT)),), poison, INT
        )
        assert compile_expr(expr)(()) == expr.eval(()) == 42

    def test_division_by_zero_raises_in_both_paths(self):
        expr = BoundBinary("/", COLUMNS[0], BoundLiteral(0, INT), INT)
        row = (10, None, None, None, None)
        with pytest.raises(ExecutionError):
            expr.eval(row)
        with pytest.raises(ExecutionError):
            compile_expr(expr)(row)

    def test_null_propagation(self):
        expr = BoundBinary("+", COLUMNS[0], COLUMNS[1], INT)
        fn = compile_expr(expr)
        assert fn((None, 2, 0, "", False)) is None
        assert fn((1, None, 0, "", False)) is None
        assert fn((1, 2, 0, "", False)) == 3

    def test_params_read_current_slot_values(self):
        slots = ParamVector(1)
        expr = BoundBinary("=", COLUMNS[0], BoundParam(slots, 0), BOOL)
        fn = compile_expr(expr)
        slots.bind([7])
        assert fn((7, 0, 0, "", False)) is True
        slots.bind([8])  # recompile NOT needed: closure reads the vector
        assert fn((7, 0, 0, "", False)) is False


class TestHarness:
    def test_evaluator_memoizes_on_expression_instance(self):
        expr = BoundBinary(">", COLUMNS[0], BoundLiteral(0, INT), BOOL)
        fn1 = evaluator(expr)
        fn2 = evaluator(expr)
        assert fn1 is fn2

    def test_evaluator_of_none_is_none(self):
        assert evaluator(None) is None

    def test_compiled_source_is_inspectable(self):
        expr = BoundBinary("AND", COLUMNS[4], BoundIsNull(COLUMNS[0]), BOOL)
        compile_expr(expr)
        source = compiled_source(expr)
        assert "def _compiled(row):" in source

    def test_uncompilable_expression_raises_compile_error(self):
        class Exotic(BoundExpr):
            def __init__(self):
                object.__setattr__(self, "dtype", BOOL)

            def eval(self, row):
                return True

            def children(self):
                return ()

        with pytest.raises(CompileError):
            compile_expr(Exotic())

"""Join-order enumeration.

Inner/cross join trees are flattened into a set of relations plus a pool of
join conjuncts (indexes rebased to the flattened, original column order).
Ordering uses Selinger-style dynamic programming over connected subsets up
to :data:`DP_RELATION_LIMIT` relations, with a greedy smallest-result-first
fallback beyond that.  The chosen tree is topped with a Project that
restores the original column order, so parent operators are unaffected.

The DP objective is the classic ``C_out`` metric: the sum of estimated
intermediate result cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.types import DataType
from repro.optimizer.cardinality import Estimator
from repro.plan import logical
from repro.plan.expressions import (
    BoundColumn,
    BoundExpr,
    columns_used,
    conjoin,
    remap_columns,
    shift_columns,
    split_conjuncts,
)

DP_RELATION_LIMIT = 8


@dataclass
class _Relation:
    index: int
    plan: logical.LogicalPlan
    base: int  # first global column index
    width: int

    @property
    def globals(self) -> FrozenSet[int]:
        return frozenset(range(self.base, self.base + self.width))


@dataclass
class _Candidate:
    plan: logical.LogicalPlan
    order: Tuple[int, ...]  # relation indexes, left-to-right
    cost: float
    rows: float


def is_reorderable(plan: logical.LogicalPlan) -> bool:
    return isinstance(plan, logical.Join) and plan.kind in (logical.INNER, logical.CROSS)


def flatten_join_tree(
    plan: logical.Join, leaf_transform=None
) -> Tuple[List[_Relation], List[BoundExpr]]:
    """Flatten nested inner/cross joins into relations + global conjuncts.

    ``leaf_transform`` (plan -> plan), when given, is applied to each
    relation leaf — the optimizer uses it to recurse into subqueries nested
    under non-join operators before ordering the outer join.
    """
    relations: List[_Relation] = []
    conjuncts: List[BoundExpr] = []

    def go(node: logical.LogicalPlan, base: int) -> int:
        if is_reorderable(node):
            left_width = go(node.left, base)
            right_width = go(node.right, base + left_width)
            if node.condition is not None:
                shifted = shift_columns(node.condition, base) if base else node.condition
                conjuncts.extend(split_conjuncts(shifted))
            return left_width + right_width
        width = len(node.output_schema())
        if leaf_transform is not None:
            node = leaf_transform(node)
        relations.append(_Relation(len(relations), node, base, width))
        return width

    go(plan, 0)
    return relations, conjuncts


def reorder_joins(
    plan: logical.Join, estimator: Estimator, leaf_transform=None
) -> logical.LogicalPlan:
    """Reorder an inner/cross join tree; returns an equivalent plan."""
    relations, conjuncts = flatten_join_tree(plan, leaf_transform)
    if len(relations) < 2:
        return plan
    # Conjuncts confined to one relation become filters on that relation;
    # constant conjuncts stay above the join (they cannot prune anything
    # during ordering and must still gate the output).
    join_conjuncts: List[BoundExpr] = []
    top_conjuncts: List[BoundExpr] = []
    per_relation: Dict[int, List[BoundExpr]] = {}
    for conjunct in conjuncts:
        used = columns_used(conjunct)
        if not used:
            top_conjuncts.append(conjunct)
            continue
        homes = [rel for rel in relations if used <= rel.globals]
        if homes:
            rel = homes[0]
            local = remap_columns(conjunct, {i: i - rel.base for i in used})
            per_relation.setdefault(rel.index, []).append(local)
        else:
            join_conjuncts.append(conjunct)
    for rel_index, preds in per_relation.items():
        rel = relations[rel_index]
        rel.plan = logical.Filter(rel.plan, conjoin(preds))
    if len(relations) <= DP_RELATION_LIMIT:
        best = _dp_order(relations, join_conjuncts, estimator)
    else:
        best = _greedy_order(relations, join_conjuncts, estimator)
    if best is None:
        return plan
    result = _restore_column_order(best, relations, plan.output_schema())
    if top_conjuncts:
        result = logical.Filter(result, conjoin(top_conjuncts))
    return result


# -- construction helpers ------------------------------------------------------


def _global_to_local(order: Sequence[int], relations: List[_Relation]) -> Dict[int, int]:
    """Map global column index -> position in the concat of ``order``."""
    mapping: Dict[int, int] = {}
    offset = 0
    for rel_idx in order:
        rel = relations[rel_idx]
        for i in range(rel.width):
            mapping[rel.base + i] = offset + i
        offset += rel.width
    return mapping


def _applicable(
    conjuncts: List[BoundExpr],
    covered: FrozenSet[int],
    left_set: FrozenSet[int],
    right_set: FrozenSet[int],
    relations: List[_Relation],
) -> List[int]:
    """Conjunct indexes that join left_set with right_set (first usable here)."""
    both = left_set | right_set
    globals_of = lambda s: frozenset().union(*(relations[i].globals for i in s))
    both_globals = globals_of(both)
    left_globals = globals_of(left_set)
    right_globals = globals_of(right_set)
    out = []
    for idx, conjunct in enumerate(conjuncts):
        used = columns_used(conjunct)
        if not used:
            continue
        if not used <= both_globals:
            continue
        if used <= left_globals or used <= right_globals:
            continue  # applies inside one side; handled when that side formed
        out.append(idx)
    return out


def _join_candidates(
    left: _Candidate,
    right: _Candidate,
    conjuncts: List[BoundExpr],
    relations: List[_Relation],
    estimator: Estimator,
) -> Optional[_Candidate]:
    left_set = frozenset(left.order)
    right_set = frozenset(right.order)
    applicable = _applicable(conjuncts, left_set | right_set, left_set, right_set, relations)
    order = left.order + right.order
    mapping = _global_to_local(order, relations)
    condition = None
    if applicable:
        parts = [remap_columns(conjuncts[i], mapping) for i in applicable]
        condition = conjoin(parts)
    kind = logical.INNER if condition is not None else logical.CROSS
    joined = logical.Join(left.plan, right.plan, kind, condition)
    rows = estimator.join_rows(joined, left.rows, right.rows)
    cost = left.cost + right.cost + rows
    return _Candidate(joined, order, cost, rows)


def _has_connection(
    left_set: FrozenSet[int],
    right_set: FrozenSet[int],
    conjuncts: List[BoundExpr],
    relations: List[_Relation],
) -> bool:
    return bool(_applicable(conjuncts, left_set | right_set, left_set, right_set, relations))


# -- DP enumeration ----------------------------------------------------------------


def _dp_order(
    relations: List[_Relation],
    conjuncts: List[BoundExpr],
    estimator: Estimator,
) -> Optional[_Candidate]:
    n = len(relations)
    best: Dict[FrozenSet[int], _Candidate] = {}
    for rel in relations:
        rows = estimator.estimate(rel.plan)
        best[frozenset([rel.index])] = _Candidate(rel.plan, (rel.index,), 0.0, rows)

    for size in range(2, n + 1):
        new_sets: Dict[FrozenSet[int], _Candidate] = {}
        subsets = [s for s in best if len(s) < size]
        for s1 in subsets:
            for s2 in subsets:
                if len(s1) + len(s2) != size or s1 & s2:
                    continue
                connected = _has_connection(s1, s2, conjuncts, relations)
                if not connected and size < n:
                    # Defer cross products unless forced at the top.
                    if _any_connection_possible(s1 | s2, relations, conjuncts, n):
                        continue
                candidate = _join_candidates(
                    best[s1], best[s2], conjuncts, relations, estimator
                )
                key = s1 | s2
                existing = new_sets.get(key)
                if existing is None or candidate.cost < existing.cost:
                    new_sets[key] = candidate
        best.update(new_sets)
    return best.get(frozenset(range(n)))


def _any_connection_possible(
    combined: FrozenSet[int],
    relations: List[_Relation],
    conjuncts: List[BoundExpr],
    n: int,
) -> bool:
    """True if some relation outside ``combined`` connects to it (so a cross
    join now is premature)."""
    outside = [i for i in range(n) if i not in combined]
    for i in outside:
        if _has_connection(combined, frozenset([i]), conjuncts, relations):
            return True
    return False


# -- greedy fallback ---------------------------------------------------------------


def _greedy_order(
    relations: List[_Relation],
    conjuncts: List[BoundExpr],
    estimator: Estimator,
) -> Optional[_Candidate]:
    candidates = {
        frozenset([rel.index]): _Candidate(
            rel.plan, (rel.index,), 0.0, estimator.estimate(rel.plan)
        )
        for rel in relations
    }
    current = list(candidates.values())
    while len(current) > 1:
        best_pair = None
        best_joined = None
        for i in range(len(current)):
            for j in range(len(current)):
                if i == j:
                    continue
                s1 = frozenset(current[i].order)
                s2 = frozenset(current[j].order)
                connected = _has_connection(s1, s2, conjuncts, relations)
                if not connected and len(current) > 2:
                    continue
                joined = _join_candidates(
                    current[i], current[j], conjuncts, relations, estimator
                )
                if best_joined is None or joined.rows < best_joined.rows:
                    best_pair = (i, j)
                    best_joined = joined
        if best_joined is None:
            # Fully disconnected: cross join the two smallest.
            current.sort(key=lambda c: c.rows)
            best_pair = (0, 1)
            best_joined = _join_candidates(
                current[0], current[1], conjuncts, relations, estimator
            )
        i, j = best_pair
        survivors = [c for k, c in enumerate(current) if k not in (i, j)]
        survivors.append(best_joined)
        current = survivors
    return current[0]


# -- output restoration ----------------------------------------------------------------


def _restore_column_order(
    candidate: _Candidate, relations: List[_Relation], original_schema
) -> logical.LogicalPlan:
    if list(candidate.order) == sorted(candidate.order):
        ordered_bases = [relations[i].base for i in candidate.order]
        if ordered_bases == sorted(ordered_bases):
            return candidate.plan  # already in original order
    mapping = _global_to_local(candidate.order, relations)
    total = sum(rel.width for rel in relations)
    exprs = []
    names = []
    result_schema = candidate.plan.output_schema()
    for g in range(total):
        local = mapping[g]
        col = result_schema[local]
        exprs.append(BoundColumn(local, col.dtype, col.name))
        names.append(original_schema[g].name)
    return logical.Project(candidate.plan, tuple(exprs), tuple(names))

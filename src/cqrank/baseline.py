"""Reference strategies: full materialization, bounded-heap top-k, and
sort-before-join with early termination, plus the two SQL encodings.

All three run on one join executor: ``_join_plan`` picks a greedy connected
join order from a start atom and builds one probe bucket per further atom,
and ``_extend`` walks it depth first. The oracle and top-k stream the plan
from atom 0; sort-before-join starts it at one end of a path.

``materialize_and_sort`` is the oracle everything else is tested against. It
evaluates the join as a bag (duplicate input rows stay distinct derivations)
and sorts with the library-wide deterministic tie-break, so direct access,
selection, and the baselines are comparable tuple-for-tuple at every rank.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter

from .analysis import check_free_connex, effective_order
from .engine import _proj
from .errors import (
    InvalidPositions,
    MultiplePositionsWithOffsetDialect,
    NotApplicable,
    OutOfRange,
    ResultTooLarge,
)
from .model import (LEX, SUM, AnswerTuple, Instance, OrderSpec, Query, _no_gc, bound_atoms,
                    check_rank, check_weight_columns, value_key)

FULL_SORT = "FullSort"
TOPK_HEAP = "TopKHeap"

OFFSET_LIMIT = "offset"
CTE_ROW_NUMBER = "cte"


def _join_plan(q: Query, db: Instance, first: int = 0):
    """Greedy connected join order from atom ``first``: that atom's rows, one
    (key, bucket) probe step per further atom, and the variables in the order
    the plan binds them."""
    bound = bound_atoms(q, db)
    plan_vars = bound[first].vars
    have = set(plan_vars)
    rest = [i for i in range(len(bound)) if i != first]
    steps = []
    while rest:
        nxt = next((i for i in rest if not have.isdisjoint(bound[i].vars)), rest[0])
        rest.remove(nxt)
        b = bound[nxt]
        shared = [v for v in b.vars if v in have]
        new = [v for v in b.vars if v not in have]
        row_key, row_new = _proj(b.vars, shared), _proj(b.vars, new)
        bucket: dict[tuple, list] = {}
        for r in b.rows:
            bucket.setdefault(row_key(r), []).append(row_new(r))
        steps.append((_proj(plan_vars, shared), bucket))
        plan_vars += tuple(new)
        have.update(new)
    return bound[first].rows, steps, plan_vars


def _extend(rows, steps):
    """Each row extended through the probe steps, lazily and depth first.

    One loop over a stack of iterators, one per step reached, so a plan of
    any length nests no generators. The iterator on top of a full stack
    needs only the last step, and a plain loop drains it."""
    if not steps:
        yield from rows
        return
    *inner, (key, bucket) = steps
    stack = [iter(rows)]
    while stack:
        if len(stack) > len(inner):
            for acc in stack.pop():
                for ext in bucket.get(key(acc), ()):
                    yield acc + ext
            continue
        acc = next(stack[-1], None)
        if acc is None:
            stack.pop()
        else:
            k, b = inner[len(stack) - 1]
            stack.append(map(acc.__add__, b.get(k(acc), ())))


def stream_answers(q: Query, db: Instance):
    """Yield the answer bag as head-order value tuples, depth first."""
    rows, steps, plan_vars = _join_plan(q, db)
    yield from map(_proj(plan_vars, q.head), _extend(rows, steps))


def sort_key_fn(q: Query, o: OrderSpec):
    """Total sort key under the order plus the deterministic tie-break."""
    eff = effective_order(q, o)
    perm = tuple(q.head.index(v) for v in eff)
    if o.kind == LEX:
        return lambda t: tuple(value_key(t[p]) for p in perm)
    wpos = tuple(q.head.index(v) for v in o.vars)
    return lambda t: (
        sum(t[p] for p in wpos),
        tuple(value_key(t[p]) for p in perm),
    )


@_no_gc()
def materialize_and_sort(q: Query, db: Instance, o: OrderSpec, cap: int = 10**8):
    """Produce and sort the full answer bag; THE oracle for every other path."""
    if o.kind == SUM:
        check_weight_columns(q, db, o)
    out = []
    for t in stream_answers(q, db):
        out.append(t)
        if len(out) > cap:
            raise ResultTooLarge(cap)
    out.sort(key=sort_key_fn(q, o))
    return [AnswerTuple(q.head, t) for t in out]


@dataclass(frozen=True)
class StrategyLog:
    requested: str
    ran: str
    reason: str
    answers: int
    k: int

    @property
    def switched(self) -> bool:
        return self.ran != self.requested


def topk_heap_access(q: Query, db: Instance, o: OrderSpec, k: int, cap: int = 10**8):
    """Bounded-heap access, with the planner's switch to a full sort once
    k ≥ |J|/2; the exact count comes from a pre-pass (we control both sides).
    Returns (answer, StrategyLog)."""
    check_rank(k)
    if o.kind == SUM:
        check_weight_columns(q, db, o)
    count = sum(1 for _ in stream_answers(q, db))
    if k < 0 or k >= count:
        raise OutOfRange(k, count)
    if 2 * k >= count:
        log = StrategyLog(TOPK_HEAP, FULL_SORT, "k >= |J|/2", count, k)
        return materialize_and_sort(q, db, o, cap)[k], log
    # a heap of the k+1 smallest answers; its largest is the answer at k
    best = heapq.nsmallest(k + 1, stream_answers(q, db), key=sort_key_fn(q, o))[-1]
    log = StrategyLog(TOPK_HEAP, TOPK_HEAP, "k < |J|/2", count, k)
    return AnswerTuple(q.head, best), log


def _path_start(q: Query) -> int | None:
    """The atom at the path end that sorts first by name, if the atoms form
    a path over distinct variables (a tree with maximum degree 2), else None."""
    edges = [a.var_set for a in q.atoms]
    if any(len(e) != 2 for e in edges) or len(set(edges)) != len(edges):
        return None
    degree = Counter(chain.from_iterable(edges))
    if len(degree) != len(edges) + 1 or max(degree.values()) > 2:
        return None
    if not check_free_connex(q)[0]:  # |V| = |E| + 1 and acyclic: connected
        return None
    end = min(v for v, d in degree.items() if d == 1)
    return next(i for i, e in enumerate(edges) if end in e)


@dataclass(frozen=True)
class EarlyStopLog:
    emitted: int
    block_size: int


def sort_before_join_access(q: Query, db: Instance, o: OrderSpec, k: int):
    """Sorted streaming plan for a single-attribute order on a path join.

    Runs the join plan from one end of the path: joins the atoms up to the
    order attribute's position, sorts that intermediate once in attribute
    order, then streams it through per-tuple probes of the remaining
    relations ("nested loop" row-at-a-time), stopping as soon as the block
    containing position k is complete. Ties beyond the attribute are
    re-ranked inside that one block with the deterministic tie-break.
    Returns (answer, EarlyStopLog)."""
    check_rank(k)
    if o.kind != LEX or len(o.vars) != 1:
        raise NotApplicable("sort-before-join needs a single-attribute lex order")
    first = _path_start(q)
    if first is None:
        raise NotApplicable("sort-before-join needs a path-shaped join")
    b = o.vars[0]
    rows, steps, plan_vars = _join_plan(q, db, first)
    bpos = plan_vars.index(b)
    # the first atom binds two variables, each later atom one: atoms 0..split-1
    # bind every variable up to b
    split = max(bpos, 1)
    inter = sorted(_extend(rows, steps[:split - 1]), key=lambda t: value_key(t[bpos]))

    answers = map(_proj(plan_vars, q.head), _extend(inter, steps[split - 1:]))
    block_start = 0
    for _, group in groupby(answers, key=itemgetter(q.head.index(b))):
        block = list(group)
        if 0 <= k < block_start + len(block):
            break
        block_start += len(block)
    else:
        raise OutOfRange(k, block_start)
    block.sort(key=sort_key_fn(q, o))
    log = EarlyStopLog(emitted=block_start + len(block), block_size=len(block))
    return AnswerTuple(q.head, block[k - block_start]), log


def emit_sql(q: Query, o: OrderSpec, positions, dialect: str) -> str:
    """Canonical SQL for ranked positions: OFFSET/LIMIT for one position, or
    a ROW_NUMBER CTE for several (row_idx is one-based; positions are not).

    Column names follow the query's variable binding; tie-break columns are
    appended to ORDER BY so external engines reproduce the same total order.
    """
    if dialect not in (OFFSET_LIMIT, CTE_ROW_NUMBER):
        raise NotApplicable(f"unknown dialect {dialect!r}")
    positions = list(positions)
    if not positions:
        raise InvalidPositions("", "at least one integer")
    for k in positions:
        check_rank(k)
    if dialect == OFFSET_LIMIT and len(positions) != 1:
        raise MultiplePositionsWithOffsetDialect()
    if any(k < 0 for k in positions):
        raise InvalidPositions(",".join(map(str, positions)), "non-negative")

    seen: dict[str, int] = {}
    aliases = []
    for a in q.atoms:
        seen[a.relation] = seen.get(a.relation, 0) + 1
        aliases.append(a.relation if seen[a.relation] == 1 else f"{a.relation}_{seen[a.relation]}")

    owner: dict[str, str] = {}
    parts = []
    for i, a in enumerate(q.atoms):
        table = a.relation if aliases[i] == a.relation else f"{a.relation} AS {aliases[i]}"
        if i == 0:
            parts.append(table)
        else:
            conds = [
                f"{owner[v]}.{v}={aliases[i]}.{v}"
                for v in dict.fromkeys(a.vars)
                if v in owner
            ]
            parts.append(f"JOIN {table} ON " + (" AND ".join(conds) if conds else "TRUE"))
        for v in a.vars:
            owner.setdefault(v, aliases[i])
    from_clause = "FROM " + " ".join(parts)

    full = q.head_set == q.variables
    cols = "*" if full else ", ".join(f"{owner[v]}.{v}" for v in q.head)
    eff = effective_order(q, o)
    order_list = ",".join(eff) if o.kind == LEX else ",".join(["+".join(o.vars), *eff])

    if dialect == OFFSET_LIMIT:
        return (
            f"SELECT {cols}\n"
            f"{from_clause}\n"
            f"ORDER BY {order_list}\n"
            f"OFFSET {positions[0]}\n"
            f"LIMIT 1\n"
        )
    ks = ", ".join(str(k + 1) for k in positions)
    return (
        "WITH ordered_result AS (\n"
        f"  SELECT {cols},\n"
        f"    ROW_NUMBER() OVER (ORDER BY {order_list}) AS row_idx\n"
        f"  {from_clause})\n"
        "SELECT * FROM ordered_result\n"
        f"WHERE row_idx IN ({ks})\n"
    )

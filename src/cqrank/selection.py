"""One-off selection: the k-th answer from scratch, no index, no sorting.

``select`` serves both order kinds with one body. ``engine._routed`` picks
its mode by the order's kind and checks the routing (and a sum order's
weight columns); the body builds one ``engine.CountingTree`` over the atoms'
bags (the relations' own rows) and fixes the tie-break order's variables one
at a time: count the answers per candidate value of the next variable at an
atom holding it, weighted-quickselect the residual rank into a value block,
and narrow the tree to that value (``fix``), so each later step scans only
surviving rows and recounts only the messages it reached. Its one branch
on the order kind: a sum order first picks one of ``sum_blocks``' anchor
blocks by the index's rank key; the tie-break order starts with that block's
variables. ``weighted_select`` owns the rank and range checks: the first
step's candidates sum to the answer count. A caller's ``Stats`` goes to the
tree. The tie-break order is the direct-access engine's, so both give
identical tuples wherever both are routed.
"""

from __future__ import annotations

import random

from .analysis import SINGLE_LEX, SINGLE_SUM
from .engine import CountingTree, _routed, atom_tree, sum_blocks
from .errors import OutOfRange, UnknownVariable
from .instrument import Stats
from .model import AnswerTuple, Instance, OrderSpec, Query, bound_atoms, check_rank, value_key


def _value_counts(ct: CountingTree, x: str) -> list[tuple]:
    root = next(u for u, vs in enumerate(ct.vars) if x in vs)
    return list(ct.counts(root, (x,)).items())


def conditional_value_counts(q: Query, db: Instance, fixed: dict, x: str, _bound=None) -> list[tuple]:
    """(value, answer count) per candidate value of ``x`` consistent with
    ``fixed``, in first-occurrence order of the rooted atom. O(n) per call.
    ``UnknownVariable`` if ``x`` or a fixed variable is not in the query."""
    if unknown := [v for v in (*fixed, x) if v not in q.variables]:
        raise UnknownVariable(unknown[0])
    bound = _bound if _bound is not None else bound_atoms(q, db)
    ct = atom_tree(q, bound, SINGLE_LEX)
    for var, value in fixed.items():
        ct.fix(var, value)
    return _value_counts(ct, x)


def weighted_select(items, k: int, rng, key=None):
    """Value whose block (ordering items by value) contains rank k, plus the
    offset of k inside that block; ``InvalidPositions`` when k is not an
    ``int``, ``OutOfRange(k, total weight)`` when it is outside the blocks.
    Each item's order key (``key``, else ``value_key``) is computed once. No
    sorting: each round draws a pivot and keeps the items below it, stops
    inside the pivot's weight, or keeps the items above it."""
    check_rank(k)
    total = sum(w for _, w in items)
    if k < 0 or k >= total:
        raise OutOfRange(k, total)
    keyf = key if key is not None else value_key
    work = [(keyf(v), v, w) for v, w in items]
    while True:
        pk, pivot, _ = work[rng.randrange(len(work))]
        lt = [t for t in work if t[0] < pk]
        wlt = sum(t[2] for t in lt)
        weq = sum(w for kv, _, w in work if kv == pk)
        if k < wlt:
            work = lt
        elif k < wlt + weq:
            return pivot, k - wlt
        else:
            k, work = k - wlt - weq, [t for t in work if t[0] > pk]


def select(q: Query, db: Instance, order: OrderSpec, k: int, seed=None,
           stats: Stats | None = None, report=None) -> AnswerTuple:
    """k-th answer under a lex or single-atom sum order, expected O(f·n) per
    call; any free-connex query and any lex order, disruptive trios included.
    ``report``, when given, must be ``analyze(q, order)``, which is then not
    run again."""
    report, mode = _routed(q, db, order, report, (SINGLE_LEX, SINGLE_SUM))
    rng = random.Random(seed)
    ct = atom_tree(q, bound_atoms(q, db), mode, stats)
    fixed: dict = {}
    if mode == SINGLE_SUM:  # the anchor block; the tie-break order starts with its variables
        prefix, blocks, rank = sum_blocks(q, ct, report)
        vals, k = weighted_select(blocks, k, rng=rng, key=rank)
        fixed = dict(zip(prefix, vals))
    for x in report.tie_break_order:
        if x not in fixed:
            fixed[x], k = weighted_select(_value_counts(ct, x), k, rng=rng)
        ct.fix(x, fixed[x])
    return AnswerTuple(q.head, tuple(fixed[v] for v in q.head))


select_lex = select  # kept only for perfbench/worker.py

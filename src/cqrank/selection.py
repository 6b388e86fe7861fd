"""One-off selection: the k-th answer from scratch, no index, no sorting.

``select_lex``, ``select_sum`` and ``select`` (either, by ``order.kind``)
share one body. It checks the routing (and a sum order's weight columns),
builds one ``engine.CountingTree`` over the atoms' bags (the relations'
own rows) and fixes the tie-break order's variables one at a time: count
the answers per candidate value of the next variable at an atom holding
it, weighted-quickselect the residual rank into a value block, and narrow
the tree to that value (``fix``), so each later step scans only surviving
rows and reuses every message whose side lost none. Past the weight check,
its one branch on the order kind: a sum order first picks one of
``sum_blocks``' anchor blocks by the index's rank key; the tie-break order
starts with that block's variables. ``weighted_select`` owns the rank and
range checks: the first step's candidates sum to the answer count. A caller's
``Stats`` goes to the tree. The tie-break order is the direct-access
engine's, so both give identical tuples wherever both are routed.
"""

from __future__ import annotations

import random

from .analysis import SINGLE_LEX, SINGLE_SUM, analyze
from .engine import CountingTree, _check_routed, atom_tree, sum_blocks
from .errors import NotRouted, OutOfRange, UnknownVariable
from .instrument import Stats
from .model import (LEX, AnswerTuple, Instance, OrderSpec, Query, bound_atoms, check_rank,
                    check_weight_columns, value_key)


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


def _select(q: Query, db: Instance, order: OrderSpec, k: int, seed, stats: Stats | None,
            report, mode: str) -> AnswerTuple:
    """The selection body of both order kinds, routed as ``mode``; ``report``
    must be the analysis of ``order``."""
    if report is None:
        report = analyze(q, order)
    elif report.order != order:
        raise NotRouted(mode, ("report_for_another_order",))
    _check_routed(report, mode)
    if mode == SINGLE_SUM:
        check_weight_columns(q, db, report.order)
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


def select(q: Query, db: Instance, order: OrderSpec, k: int, seed=None,
           stats: Stats | None = None, report=None) -> AnswerTuple:
    """k-th answer under a lex or sum order: ``select_lex`` or ``select_sum``
    by ``order.kind``."""
    return _select(q, db, order, k, seed, stats, report, SINGLE_LEX if order.kind == LEX else SINGLE_SUM)


def select_lex(q: Query, db: Instance, order: OrderSpec, k: int, seed=None,
               stats: Stats | None = None, report=None) -> AnswerTuple:
    """k-th answer under a lexicographic order, expected O(f·n) per call.

    Works for any free-connex query and any lex order, disruptive trios
    included; partial orders follow the deterministic completion.
    """
    return _select(q, db, order, k, seed, stats, report, SINGLE_LEX)


def select_sum(q: Query, db: Instance, order: OrderSpec, k: int, seed=None,
               stats: Stats | None = None, report=None) -> AnswerTuple:
    """k-th answer under a single-atom sum order, expected O(n) per call."""
    return _select(q, db, order, k, seed, stats, report, SINGLE_SUM)

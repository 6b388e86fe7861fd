"""One-off selection: the k-th answer from scratch, no index, no sorting.

Each access fixes the order's variables one at a time: count the answers per
candidate value of the next variable, then weighted-quickselect the residual
rank into a value block. The counts come from the counting kernel that direct
access builds on: one call builds one ``engine.CountingTree`` over the atoms'
bags (the relations' own rows, nothing counted up front), counts at an atom
holding the variable, and narrows the tree to the chosen value (``fix``), so
each later step scans only the surviving rows, reuses every message whose
side lost none, and runs its product stream only over the rows the narrowed
messages can extend. ``weighted_select`` keys each candidate once per call
and owns the range check: the first step's candidates sum to the answer
count. A sum order's first step picks one of ``sum_blocks``' anchor blocks
by the rank key the index sorts them by. A caller's ``Stats`` is handed to
that tree, which counts the rows its passes and fixes touch. The variable
sequence is the same deterministic tie-break order the direct-access engine
uses, so both produce identical tuples wherever both are routed.
"""

from __future__ import annotations

import random

from .analysis import SINGLE_LEX, SINGLE_SUM, analyze
from .engine import CountingTree, _check_routed, atom_tree, sum_blocks
from .errors import OutOfRange
from .instrument import Stats
from .model import AnswerTuple, Instance, OrderSpec, Query, bound_atoms, check_weight_columns, value_key


def _value_counts(ct: CountingTree, x: str) -> list[tuple]:
    root = next(u for u, vs in enumerate(ct.vars) if x in vs)
    return list(ct.counts(root, (x,)).items())


def conditional_value_counts(
    q: Query,
    db: Instance,
    fixed: dict,
    x: str,
    _bound=None,
) -> list[tuple]:
    """(value, answer count) per candidate value of ``x`` consistent with
    ``fixed``, in first-occurrence order of the rooted atom. O(n) per call."""
    bound = _bound if _bound is not None else bound_atoms(q, db)
    ct = atom_tree(q, bound, SINGLE_LEX)
    for var, value in fixed.items():
        ct.fix(var, value)
    return _value_counts(ct, x)


def weighted_select(items, k: int, rng, key=None):
    """Value whose block (ordering items by value) contains rank k, plus the
    offset of k inside that block; ``OutOfRange(k, total weight)`` when k is
    outside the blocks. Random-pivot partitioning, no sorting; each item's
    order key (``key``, else ``value_key``) is computed once."""
    total = sum(w for _, w in items)
    if k < 0 or k >= total:
        raise OutOfRange(k, total)
    keyf = key if key is not None else value_key
    work = [(keyf(v), v, w) for v, w in items]
    while True:
        pk, pivot, _ = work[rng.randrange(len(work))]
        lt, gt = [], []
        wlt = weq = 0
        for item in work:
            kv, _, w = item
            if kv < pk:
                lt.append(item)
                wlt += w
            elif kv > pk:
                gt.append(item)
            else:
                weq += w
        if k < wlt:
            work = lt
        elif k < wlt + weq:
            return pivot, k - wlt
        else:
            k -= wlt + weq
            work = gt


def select_lex(
    q: Query,
    db: Instance,
    order: OrderSpec,
    k: int,
    seed=None,
    stats: Stats | None = None,
    report=None,
) -> AnswerTuple:
    """k-th answer under a lexicographic order, expected O(f·n) per call.

    Works for any free-connex query and any lex order, disruptive trios
    included; partial orders follow the deterministic completion.
    """
    if report is None:
        report = analyze(q, order)
    _check_routed(report, SINGLE_LEX)
    rng = random.Random(seed)
    ct = atom_tree(q, bound_atoms(q, db), SINGLE_LEX, stats)
    fixed: dict = {}
    for x in report.tie_break_order:
        fixed[x], k = weighted_select(_value_counts(ct, x), k, rng=rng)
        ct.fix(x, fixed[x])
    return AnswerTuple(q.head, tuple(fixed[v] for v in q.head))


def select_sum(
    q: Query,
    db: Instance,
    order: OrderSpec,
    k: int,
    seed=None,
    stats: Stats | None = None,
    report=None,
) -> AnswerTuple:
    """k-th answer under a single-atom sum order, expected O(n) per call."""
    if report is None:
        report = analyze(q, order)
    _check_routed(report, SINGLE_SUM)
    check_weight_columns(q, db, report.order)
    rng = random.Random(seed)
    ct = atom_tree(q, bound_atoms(q, db), SINGLE_SUM, stats)
    prefix, blocks, rank = sum_blocks(q, ct, report)
    vals, k = weighted_select(blocks, k, rng=rng, key=rank)
    fixed = dict(zip(prefix, vals))
    for x, v in fixed.items():
        ct.fix(x, v)
    for x in report.tie_break_order[len(prefix):]:
        fixed[x], k = weighted_select(_value_counts(ct, x), k, rng=rng)
        ct.fix(x, fixed[x])
    return AnswerTuple(q.head, tuple(fixed[v] for v in q.head))

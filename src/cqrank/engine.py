"""Direct access: quasilinear preprocessing, logarithmic ranked access.

The index simulates the sorted array of answers without materializing it.
Every count below, and every count that selection takes, comes from one
counting kernel: ``CountingTree`` holds each atom's rows as a bag (the
relation's own tuple, every row weighing 1, so counts live only in the
messages) and computes each directed message on demand, from the messages
into its node, with one weighted-projection loop (those messages multiplied
per row, summed per projected value); ``counts`` combines the messages into
the chosen root. ``fix`` narrows the bags holding a variable to one value
and drops only the messages that lead away from them, so selection makes
one tree per call, and a message whose side lost rows first prunes the bag
it feeds to the rows it can extend. Construction happens in three steps:

1. *Full reduction* — semi-join passes over the directed edges of a join tree
   of the atoms (up, then down), so every surviving row takes part in at
   least one answer. A pass that drops rows replaces the bag by a list; a
   bag's key set over a separator is built once and kept until the bag
   loses rows.

2. *Existential elimination* — the kernel's counting messages toward a
   virtual head node joined to the atoms' tree (``_relation``), read by
   stage 3 on demand. An atom next to the head node is a weighted relation
   over its head variables (weight = number of ways to extend a projected
   row downward); a deeper atom keeps weight 1 and only constrains. The
   weighted natural join of these relations reproduces the answer bag.

3. *Candidate tables* — for a trio-free order w, each variable's preceding
   neighbors form a clique covered by some atom, so the candidates for w_i
   given an assignment of those neighbors are a slice of that anchor atom.
   Bottom-up, each level splits its anchor's rows per ν once: a settled
   head-tree leaf's bag rows, each weighing 1 (so the leaf's message never
   runs), another settled atom's weighted rows, or an unsettled anchor's
   distinct (ν, v) pairs, each weighing 1. Each group's rows are sorted by
   value, and a row's weight is multiplied by the weights of the other atoms
   settled at w_i and by the child subtree totals, all keyed off the row. So
   g(ν, v) sums v's rows, and v's prefix sum is the running sum at its last
   row. A level is one table: its groups' values and prefix sums back to
   back, and ν -> the group's span in it.

Access walks w maintaining the residual rank k' and the multiplier M of the
still-pending subtrees: the block of answers with w_i = v has width M·g(ν,v),
so one counting binary search per variable, inside ν's span, pins the value.
A single-atom sum order is blocks on the same index: the sum anchor's
assignments, sorted by ``sum_blocks``' rank key (weight sum, values), form
one first level of one span, which pins the anchor's variables at once, and
the descent completes each. ``build_index`` builds both kinds; it opens, as
``selection.select`` does, with ``_routed``, which picks the mode by the
order's kind and checks it.

Join keys: inside the kernel (counting messages, the stage 1 key sets, the ν
groups and child totals of stage 3) a key over exactly one variable is the
bare value, and a key over zero or several variables is the tuple of values
(``_key``). Values are ``int``/``str`` (``Relation`` checks its cells), never
tuples, so the two kinds cannot collide. Everything that leaves the kernel —
``_relation``'s rows, ``sum_blocks`` and the ν keys of ``AccessIndex.groups``
— is keyed by tuples (``_tupled``); ``counts`` hands out ``_key``'s shape.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, mul

from .analysis import (
    DIRECT_LEX,
    DIRECT_SUM,
    JoinTree,
    TractabilityReport,
    VariableTree,
    analyze,
    build_variable_tree,
    gyo_join_tree,
)
from .errors import NotRouted, OutOfRange
from .instrument import Stats, bisect_gt, sorted_counted
from .model import (LEX, AnswerTuple, Instance, Query, _no_gc, bound_atoms, check_rank,
                    check_weight_columns, tuple_key, value_key)


@dataclass(frozen=True)
class ReducedAtom:
    """Weighted relation over one atom's head variables (head order), keyed
    by tuples; ``build_reduced_db`` reports them, the build reads none."""

    vars: tuple[str, ...]
    rows: dict[tuple, int]


@dataclass(frozen=True)
class ReducedDB:
    atoms: tuple[ReducedAtom, ...]


def _proj(vars_: tuple[str, ...], wanted):
    """Key function: a row over ``vars_`` -> the tuple of its ``wanted`` values.

    Built on ``itemgetter`` so no per-row Python frame runs; one position is
    taken as a one-element slice so that every key is a tuple. This is the
    shape of every key outside the kernel; join keys inside it use ``_key``,
    which drops the tuple around a single value.
    """
    idx = tuple(map(vars_.index, wanted))
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx) if idx else itemgetter(slice(0))


def _key(vars_: tuple[str, ...], wanted):
    """Join key function: the bare value when one variable is ``wanted``
    (no 1-tuple to build and hash per row), else ``_proj``'s tuple."""
    if len(wanted) == 1:
        return itemgetter(vars_.index(wanted[0]))
    return _proj(vars_, wanted)


def _tupled(keyed: dict, width: int) -> dict:
    """A map keyed by ``_key`` over ``width`` variables, keyed by tuples."""
    return dict(zip(zip(keyed), keyed.values())) if width == 1 else keyed


class CountingTree:
    """Bottom-up counting (Yannakakis) over a join tree of bags.

    ``tables[u]`` is the bag of rows over ``vars_list[u]``, each row weighing
    1; it is never mutated, only replaced. A node without a table may only
    be the target of ``message``.
    Separators are keyed in one canonical variable order — the head first,
    then the other variables by first occurrence — so a message toward the
    head comes out in head order. Each directed message is computed on
    demand and cached with one flag: does its side hold a node that a ``fix``
    dropped rows from (``narrowed``)? A cached message's inputs are cached
    too. ``fix`` drops the messages that lead away from a node it narrows; a
    flagged message prunes the bag it feeds (``_combine``). Every pass and
    ``fix`` adds the rows it scans to the tree's ``stats``, when it has one.
    """

    def __init__(self, vars_list, head, tables, mode: str, stats: Stats | None = None,
                 reason: str = "not_acyclic"):
        self.tree = gyo_join_tree(vars_list)
        if not isinstance(self.tree, JoinTree):
            raise NotRouted(mode, (reason,))
        self.vars = tuple(vars_list)
        self.tables, self.stats = tables, stats
        self.narrowed: set[int] = set()  # nodes some ``fix`` dropped rows from
        self._canon = tuple(dict.fromkeys(chain(head, *vars_list)))
        self._cache: dict[tuple[int, int], tuple[bool, dict]] = {}
        self._holding: dict[str, list[int]] = defaultdict(list)  # variable -> nodes holding it
        for u, vs in enumerate(self.vars):
            for v in dict.fromkeys(vs):
                self._holding[v].append(u)

    def separator(self, u: int, w: int) -> tuple[str, ...]:
        shared = self.tree.node_vars[u] & self.tree.node_vars[w]
        return tuple(v for v in self._canon if v in shared)

    def key(self, u: int, wanted):
        return _key(self.vars[u], wanted)

    def fix(self, var: str, value) -> None:
        """Keep only the rows with ``var == value`` in every table holding
        ``var`` (row order kept), and drop the messages leading away from a
        table that lost rows, up to the first one not cached."""
        adj = self.tree.adjacent
        for u in self._holding.get(var, ()):
            table = self.tables[u]
            if self.stats is not None:
                self.stats.rows_touched += len(table)
            pos = self.vars[u].index(var)
            self.tables[u] = [r for r in table if r[pos] == value]
            if len(self.tables[u]) < len(table):
                self.narrowed.add(u)
                stack = [(u, w) for w in adj[u]]
                while stack:
                    x, y = stack.pop()
                    if self._cache.pop((x, y), None) is not None:
                        stack.extend((y, z) for z in adj[y] if z != x)

    def _combine(self, u, out_vars, toward):
        """The weighted projection: Σ over the bag's rows of the product of
        the messages into ``u`` from every neighbour but ``toward``, per
        value of ``out_vars``, keyed by ``_key``. Rows that some message
        cannot extend drop out. A flagged message first prunes the bag to the
        rows whose separator key it holds, in one C-level pass; the pruned
        rows weigh 0, so the result is the same and the product stream runs
        over the survivors only. A bag's rows count as touched once."""
        table = self.tables[u]
        if self.stats is not None:
            self.stats.rows_touched += len(table)
        ins = [(self.key(u, self.separator(u, c)), *self._cache[c, u])
               for c in self.tree.adjacent[u] if c != toward]
        if not ins:  # one C-level count; a leaf over its own vars in order keys by row
            own = out_vars == self.vars[u] and len(out_vars) != 1
            return Counter(table if own else map(self.key(u, out_vars), table))
        for key, flag, m in ins:
            if flag:
                table = list(compress(table, map(m.__contains__, map(key, table))))
        streams = (map(m.get, map(key, table), repeat(0))
                   for key, _, m in ins)  # one lazy product stream: no per-row Python frame
        weights = reduce(partial(map, mul), streams)
        out: dict = {}
        get = out.get
        for k, w in zip(map(self.key(u, out_vars), table), weights):
            if w:
                out[k] = get(k, 0) + w
        return out

    def message(self, u: int, w: int) -> dict:
        """The counting message from ``u`` to its neighbour ``w``: the weighted
        number of ways u's side extends each value of their separator. The
        uncached messages it needs are collected with one stack and computed
        in reverse preorder, so each comes after its inputs."""
        adj, todo, stack = self.tree.adjacent, [], [(u, w)]
        while stack:
            edge = stack.pop()
            if edge not in self._cache:
                todo.append(edge)
                stack.extend((c, edge[0]) for c in adj[edge[0]] if c != edge[1])
        for x, y in reversed(todo):
            flag = x in self.narrowed or any(self._cache[c, x][0] for c in adj[x] if c != y)
            self._cache[x, y] = (flag, self._combine(x, self.separator(x, y), y))
        return self._cache[u, w][1]

    def counts(self, root: int, out_vars) -> dict:
        """Answer count per value of ``out_vars`` (variables of node
        ``root``), keyed by ``_key``."""
        for c in self.tree.adjacent[root]:
            self.message(c, root)
        return self._combine(root, out_vars, None)


def atom_tree(q: Query, bound, mode: str, stats: Stats | None = None) -> CountingTree:
    """The counting tree over the bound atoms' rows, each atom's bag as is."""
    return CountingTree([b.vars for b in bound], q.head, [b.rows for b in bound], mode, stats)


def count_answers(q: Query, db: Instance) -> int:
    """The number of answers (the same under every order), from one counting
    pass over the atoms' bags; ``NotRouted("count", ...)`` on a cyclic query."""
    return atom_tree(q, bound_atoms(q, db), "count").counts(0, ()).get((), 0)


def build_reduced_db(q: Query, db: Instance) -> ReducedDB:
    """Stages 1 and 2: fully reduced, head-projected weighted relations."""
    ht = _reduce(q, db)[1]
    return ReducedDB(tuple(ReducedAtom(*_relation(ht, u)) for u in range(len(ht.tables))))


def _reduce(q: Query, db: Instance) -> tuple[CountingTree, CountingTree]:
    """The atom counting tree over the fully reduced bags (stage 1 drops only
    rows that no answer extends, so it counts every answer), and the head
    tree: the same bags joined to a virtual head node ``F`` after the atoms."""
    ct = atom_tree(q, bound_atoms(q, db), DIRECT_LEX)
    tables = ct.tables

    # stage 1: full semi-join reduction over the directed edges, up then down.
    # A bag's key set over a separator is kept until the bag loses rows, so
    # a later pass over the same separator reads no row.
    up = ct.tree.up_edges()
    keysets: dict[tuple, set] = {}
    for src, dst in up + [(p, u) for u, p in reversed(up)]:
        sep = ct.separator(src, dst)
        keys, theirs = (keysets.get((u, sep)) or set(map(ct.key(u, sep), tables[u]))
                        for u in (src, dst))
        keysets[src, sep], kept = keys, theirs & keys
        if len(kept) < len(theirs):
            dst_key = ct.key(dst, sep)
            tables[dst] = list(compress(tables[dst], map(keys.__contains__, map(dst_key, tables[dst]))))
            keysets = {e: ks for e, ks in keysets.items() if e[0] != dst}
        keysets[dst, sep] = kept
    return ct, CountingTree(list(ct.vars) + [q.head], q.head, tables, DIRECT_LEX,
                            reason="not_free_connex")


def _relation(ht: CountingTree, u: int) -> tuple[tuple[str, ...], dict]:
    """Stage 2 for atom ``u``: its head variables (head order) and its rows
    over them, keyed by tuples: its counting message to the head node ``F``
    when it is next to ``F``, else its projected rows at weight 1."""
    F = len(ht.tables)
    hv = ht.separator(u, F)
    if F in ht.tree.adjacent[u]:
        return hv, _tupled(ht.message(u, F), len(hv))
    return hv, dict.fromkeys(map(_proj(ht.vars[u], hv), ht.tables[u]), 1)


def sum_blocks(q: Query, ct: CountingTree, report: TractabilityReport):
    """``(prefix, blocks, rank)``: the sum-anchor atom's head variables (head
    order), one ``(values, answer count)`` pair per distinct value of them,
    and the blocks' rank key ``rank(values) = (weight sum, tuple_key(values))``."""
    anchor = report.sum_anchor
    prefix = tuple(v for v in q.head if v in ct.vars[anchor])
    wpos = [prefix.index(v) for v in report.order.vars]
    blocks = _tupled(ct.counts(anchor, prefix), len(prefix))
    return prefix, blocks.items(), lambda p: (sum(p[i] for i in wpos), tuple_key(p))


def _sort_rows(rows: list, v_of, stats: Stats | None) -> None:
    """Sort ``rows`` in place by their value ``v_of(row)``, in ``value_key`` order."""
    if stats is not None:
        rows[:] = sorted_counted(rows, key=lambda r: value_key(v_of(r)), stats=stats)
        return
    try:
        # values of one kind compare natively exactly as value_key orders them
        rows.sort(key=v_of)
    except TypeError:  # an int met a str
        rows.sort(key=lambda r: value_key(v_of(r)))


def _build_tables(q: Query, ht: CountingTree, order, stats: Stats | None):
    """``(vt, groups, tables, count)`` of ``AccessIndex``: the variable tree
    of ``order``, each level's spans and table, and the answer count, read
    off the head tree ``ht`` bottom-up (stage 3 of the module docstring)."""
    vt = build_variable_tree(q, order)
    f, F = len(order), len(ht.tables)
    children = vt.children()
    groups: list[dict[tuple, tuple[int, int]]] = [None] * f
    tables: list[tuple[list, list[int]]] = [None] * f
    totals: list[dict] = [None] * f  # keyed by _key over ν

    for i in reversed(range(f)):
        a, w, nset = vt.anchor[i], vt.order[i], vt.nsets[i]
        # the anchor's candidate rows: a bag's rows weigh 1 each, a dict maps
        # each row to its weight. After full reduction no row weighs 0.
        if a not in vt.assigned[i]:  # not settled at w_i: its distinct (w_i, ν) pairs
            rvars = (w,) + nset
            rows = _tupled(dict.fromkeys(map(_key(ht.vars[a], rvars), ht.tables[a]), 1), len(rvars))
        elif ht.tree.adjacent[a] == [F]:  # a head-tree leaf: its bag, so its message never runs
            rvars, rows = ht.vars[a], ht.tables[a]
        else:  # one weighted row per (ν, v)
            rvars, rows = _relation(ht, a)
        v_of = itemgetter(rvars.index(w))
        weigh = rows.__getitem__ if isinstance(rows, dict) else None

        # weights of the other atoms settled at w_i, then the child subtree
        # totals; all their vars lie in ν ∪ {w_i}, so they key off the row.
        # After full reduction every key is there.
        lookups = [(_proj(rvars, hv), rel)
                   for hv, rel in (_relation(ht, ai) for ai in vt.assigned[i] if ai != a)]
        lookups += [(_key(rvars, vt.nsets[c]), totals[c]) for c in children[i]]

        split: dict = defaultdict(list)
        deque(map(list.append, map(split.__getitem__, map(_key(rvars, nset), rows)), rows), maxlen=0)
        spans, values, cums = {}, [], []
        for nu, grp in split.items():
            _sort_rows(grp, v_of, stats)
            gs = repeat(1, len(grp)) if weigh is None else map(weigh, grp)
            for key, m in lookups:
                gs = map(mul, gs, map(m.__getitem__, map(key, grp)))
            sums = dict(zip(map(v_of, grp), accumulate(gs)))  # a value keeps its last sum
            spans[nu] = (len(values), len(values) + len(sums))
            values += sums
            cums += sums.values()
        groups[i], tables[i] = _tupled(spans, len(nset)), (values, cums)
        totals[i] = {nu: cums[hi - 1] for nu, (_, hi) in spans.items()}

    count = 1
    for ai in vt.scalar_atoms:
        count *= _relation(ht, ai)[1].get((), 0)
    for r in vt.roots():
        count *= totals[r].get((), 0)
    return vt, groups, tables, count


@dataclass
class AccessIndex:
    """The sorted answer array of a routed lex or single-atom sum order. Level
    i is one ``(values, cums)`` table, ``tables[i]``, of its groups back to
    back: ``groups[i]`` maps ν to its group's span ``(lo, hi)``, whose values
    ascend and whose ``cums`` run from the group's first value. A sum order's
    blocks are one more first level, one span: the anchor assignments
    ``anchor_vals`` in (weight sum, values) order, with running answer counts
    ``cums`` (both empty for a lex order). Immutable after construction;
    ``access``/``count`` are safe for concurrent callers (per-call stats)."""

    query: Query
    order: tuple[str, ...]
    vtree: VariableTree
    groups: list[dict[tuple, tuple[int, int]]]
    tables: list[tuple[list, list[int]]]
    count: int
    build_stats: Stats | None  # set on builds that count comparisons
    anchor_vals: list[tuple] = field(default_factory=list)
    cums: list[int] = field(default_factory=list)
    _levels: list[tuple] = field(init=False)
    _head_pick: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        # one (slot, ν positions, spans, values, cums) per level; the sum
        # blocks' slot is the slice of the anchor's variables
        pos = {v: i for i, v in enumerate(self.order)}
        width = len(self.anchor_vals[0]) if self.cums else 0
        blocks = [(slice(0, width), (), {(): (0, len(self.cums))}, self.anchor_vals, self.cums)]
        self._levels = (blocks if self.cums else []) + [
            (i, tuple(pos[v] for v in self.vtree.nsets[i]), self.groups[i], *self.tables[i])
            for i in range(width, len(self.order))]
        self._head_pick = tuple(pos[v] for v in self.query.head)

    @property
    def max_group_size(self) -> int:
        return max((hi - lo for spans in self.groups for lo, hi in spans.values()), default=0)

    def access(self, k: int, stats: Stats | None = None) -> AnswerTuple:
        check_rank(k)
        if k < 0 or k >= self.count:
            raise OutOfRange(k, self.count)
        vals, C = [None] * len(self.order), self.count
        for slot, npos, spans, values, cums in self._levels:
            lo, hi = spans[tuple(vals[j] for j in npos)]
            M = C // cums[hi - 1]
            idx = bisect_gt(cums, k // M, stats, lo, hi)
            before = cums[idx - 1] if idx > lo else 0
            k, C = k - M * before, M * (cums[idx] - before)
            vals[slot] = values[idx]
        return AnswerTuple(self.query.head, tuple(vals[j] for j in self._head_pick))


def _routed(q: Query, db: Instance, order, report: TractabilityReport | None, modes):
    """``(report, mode)`` for an engine entry: ``report`` is ``analyze(q, order)``
    (the caller's when it holds one) and ``mode`` the one of ``modes`` (lex,
    sum) that ``order.kind`` picks; ``NotRouted(mode, ...)`` when the report
    was made for another order or does not route ``mode``. A sum order's
    weight columns are checked."""
    mode = modes[order.kind != LEX]
    if report is None:
        report = analyze(q, order)
    elif report.order != order:
        raise NotRouted(mode, ("report_for_another_order",))
    if not report.routing[mode].ok:
        raise NotRouted(mode, report.routing[mode].reasons)
    if order.kind != LEX:
        check_weight_columns(q, db, order)
    return report, mode


@_no_gc()
def build_index(q: Query, db: Instance, o, *, report: TractabilityReport | None = None,
                count_comparisons: bool = False) -> AccessIndex:
    """The index of a routed lex or single-atom sum order ``o`` over its
    completed order; a sum order's anchor blocks, sorted by (weight sum,
    values), are its first level. ``report``, when given, must be
    ``analyze(q, o)``, which is then not run again."""
    report, mode = _routed(q, db, o, report, (DIRECT_LEX, DIRECT_SUM))
    ct, ht = _reduce(q, db)
    prefix, blocks, rank = sum_blocks(q, ct, report) if mode == DIRECT_SUM else ((), [], None)
    del ct  # free its count messages before the candidate tables are built
    stats = Stats() if count_comparisons else None
    order = report.completed_order
    vt, groups, tables, count = _build_tables(q, ht, order, stats)
    blocks = sorted_counted(blocks, key=lambda b: rank(b[0]), stats=stats)
    cums = list(accumulate(map(itemgetter(1), blocks)))
    if order[:len(prefix)] != prefix:
        raise AssertionError("sum order must start with the anchor atom's head variables")
    if mode == DIRECT_SUM and (cums[-1] if cums else 0) != count:
        raise AssertionError("anchor extension counts must add up to the answer count")
    return AccessIndex(q, order, vt, groups, tables, count, stats, list(map(itemgetter(0), blocks)), cums)


def preprocess_lex(q: Query, db: Instance, report: TractabilityReport, *,
                   count_comparisons: bool = False) -> AccessIndex:
    """``build_index`` of ``report.order``; kept only for perfbench/worker.py."""
    return build_index(q, db, report.order, report=report, count_comparisons=count_comparisons)

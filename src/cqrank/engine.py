"""Direct access: quasilinear preprocessing, logarithmic ranked access.

The index simulates the sorted array of answers without materializing it.
Every count below, and every count that selection takes, comes from one
counting kernel: ``CountingTree`` holds each atom's rows as a bag (the
relation's own tuple, every row weighing 1, so counts live only in the
messages) and walks a join tree bottom-up with one weighted-projection loop
(child messages multiplied per row, summed per projected value), then
``counts`` combines the messages at the chosen root. ``fix`` narrows the
tree's bags to one value of a variable; each directed message is kept and
reused until a ``fix`` drops rows on its side, so selection makes one tree
per call, and a message from a narrowed side first prunes the bag it feeds
to the rows it can extend. Construction happens in three steps:

1. *Full reduction* — semi-join passes over the directed edges of a join tree
   of the atoms (up, then down), so every surviving row takes part in at
   least one answer. A pass that drops rows replaces the bag by a list; a
   bag's key set over a separator is built once and kept until the bag
   loses rows.

2. *Existential elimination* — the kernel's counting messages toward a
   virtual head node added to the join tree. Atoms adjacent to the head node
   become weighted relations over their head variables (weight = number of
   ways to extend a projected row downward); deeper atoms keep weight 1 and
   only constrain. A leaf of that tree is its bag counted per head
   assignment, a count left to the first read of its ``rows``. The weighted
   natural join of these reduced relations reproduces the answer bag exactly.

3. *Candidate tables* — for a trio-free order w, each variable's preceding
   neighbors form a clique covered by some atom, so the candidates for w_i
   given an assignment of those neighbors are a slice of that anchor atom.
   Bottom-up, one pass splits the anchor's rows per ν: a leaf's bag, each
   group counted per value (so a leaf's count over all its rows never
   runs), or an inner atom's weighted rows; an anchor not settled at w_i
   keeps its distinct (ν, v) pairs at weight 1. Each group's values are
   sorted alone, and g(ν, v) = (that weight) × (weights of the other atoms
   settled at w_i) × (child subtree totals) is prefix-summed in that order.

Access walks w maintaining the residual rank k' and the multiplier M of the
still-pending subtrees: the block of answers with w_i = v has width M·g(ν,v),
so one counting binary search per variable pins the value. A single-atom sum
order is blocks on the same index: the sum anchor's assignments, sorted by
``sum_blocks``' rank key (weight sum, values), form one first level, and the
descent completes each. ``build_index`` builds both kinds; it opens, as
``selection.select`` does, with ``_routed``, which picks the mode by the
order's kind and checks it.

Join keys: inside the kernel (counting messages, the stage 1 key sets, the ν
groups and child totals of stage 3) a key over exactly one variable is the
bare value, and a key over zero or several variables is the tuple of values
(``_key``). Values are ``int``/``str``, never tuples, so the two kinds cannot
collide. Everything that leaves the kernel — ``ReducedAtom.rows``,
``sum_blocks`` and the ν keys of ``AccessIndex.groups`` — is keyed by tuples
(``_tupled``); the tree itself hands out one key shape, ``counts`` by ``_key``.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, mul, setitem

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


class ReducedAtom:
    """Weighted relation over one atom's head variables (head order). ``rows``
    may be a ``Counter``, a ``dict`` that every lookup reads with ``.get``.
    A leaf ``u`` of the head tree (``leaf = (tree, u)``) counts its bag
    ``tree.tables[u]`` into ``rows`` on the first read; the candidate tables
    split that bag without it."""

    def __init__(self, vars_: tuple[str, ...], rows: dict | None = None, leaf=None):
        self.vars, self.leaf = vars_, leaf
        if rows is not None:
            self.rows = rows

    @cached_property
    def rows(self) -> dict[tuple, int]:
        tree, u = self.leaf
        return _tupled(tree._combine(u, self.vars, (), {}, {}), len(self.vars))


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
    serve as the root of ``messages``.
    Separators are keyed in one canonical variable order — the head first,
    then the other variables by first occurrence — so a message toward the
    head comes out in head order. ``fix`` narrows the tables in place and
    remembers the nodes it dropped rows from (``narrowed``); each directed
    message is kept with the nodes on its side and reused until a ``fix``
    drops rows from one of them. A message from a side that holds a narrowed
    node prunes the bag it feeds before the product stream (``_combine``);
    other sides keep the single pass. Every pass and ``fix`` adds the rows
    it scans to the tree's ``stats``, when it has one.
    """

    def __init__(self, vars_list, head, tables, mode: str, stats: Stats | None = None,
                 reason: str = "not_acyclic"):
        tree = gyo_join_tree(vars_list)
        if not isinstance(tree, JoinTree):
            raise NotRouted(mode, (reason,))
        self.tree = tree
        self.vars = tuple(vars_list)
        self.tables, self.stats = tables, stats
        self.narrowed: set[int] = set()  # nodes some ``fix`` dropped rows from
        self._canon = tuple(dict.fromkeys(chain(head, *vars_list)))
        self._cache: dict[tuple[int, int], tuple[frozenset, dict]] = {}

    def separator(self, u: int, w: int) -> tuple[str, ...]:
        shared = self.tree.node_vars[u] & self.tree.node_vars[w]
        return tuple(v for v in self._canon if v in shared)

    def key(self, u: int, wanted):
        return _key(self.vars[u], wanted)

    def fix(self, var: str, value) -> None:
        """Keep only the rows with ``var == value`` in every table holding
        ``var`` (row order kept), and forget the messages they fed."""
        narrowed = set()
        for u, table in enumerate(self.tables):
            if var in self.vars[u]:
                if self.stats is not None:
                    self.stats.rows_touched += len(table)
                pos = self.vars[u].index(var)
                self.tables[u] = [r for r in table if r[pos] == value]
                if len(self.tables[u]) < len(table):
                    narrowed.add(u)
        self.narrowed |= narrowed
        self._cache = {e: hit for e, hit in self._cache.items() if narrowed.isdisjoint(hit[0])}

    def _combine(self, u, out_vars, children, msg, side):
        """The weighted projection: Σ over the bag's rows of the product of
        the child messages, per value of ``out_vars``, keyed by ``_key``.
        Rows that some child cannot extend drop out. A child whose side
        (``side[c]``, its subtree's nodes) holds a narrowed node first prunes
        the bag to the rows whose separator key its message holds, in one
        C-level pass; the pruned rows weigh 0, so the result is the same and
        the product stream runs over the survivors only. A bag's rows count
        as touched once, pruned or not."""
        table = self.tables[u]
        if self.stats is not None:
            self.stats.rows_touched += len(table)
        if not children:  # one C-level count; a leaf over its own vars in order keys by row
            own = out_vars == self.vars[u] and len(out_vars) != 1
            return Counter(table if own else map(self.key(u, out_vars), table))
        for c in children:
            if not self.narrowed.isdisjoint(side[c]):
                keys = map(self.key(u, self.separator(u, c)), table)
                table = list(compress(table, map(msg[c].__contains__, keys)))
        streams = (map(msg[c].get, map(self.key(u, self.separator(u, c)), table), repeat(0))
                   for c in children)  # one lazy product stream: no per-row Python frame
        weights = reduce(partial(map, mul), streams)
        out: dict = {}
        get = out.get
        for k, w in zip(map(self.key(u, out_vars), table), weights):
            if w:
                out[k] = get(k, 0) + w
        return out

    def messages(self, root: int):
        """Counting messages toward ``root``: for every other node u, the
        weighted number of ways u's subtree extends each value of u's
        separator with its parent, in the postorder of one
        ``JoinTree.walk(root)``. Also returns the rooted children lists and
        each node's side (the nodes of its subtree)."""
        parent, children, postorder = self.tree.walk(root)
        msg: dict[int, dict] = {}
        side: dict[int, frozenset] = {}
        for u in postorder[:-1]:  # the root comes last
            edge = (u, parent[u])
            hit = self._cache.get(edge)
            if hit is None:
                nodes = frozenset([u]).union(*(side[c] for c in children[u]))
                m = self._combine(u, self.separator(*edge), children[u], msg, side)
                hit = self._cache[edge] = (nodes, m)
            side[u], msg[u] = hit
        return msg, children, side

    def counts(self, root: int, out_vars) -> dict:
        """Answer count per value of ``out_vars`` (variables of node
        ``root``), keyed by ``_key``."""
        msg, children, side = self.messages(root)
        return self._combine(root, out_vars, children[root], msg, side)


def atom_tree(q: Query, bound, mode: str, stats: Stats | None = None) -> CountingTree:
    """The counting tree over the bound atoms' rows, each atom's bag as is."""
    return CountingTree([b.vars for b in bound], q.head, [b.rows for b in bound], mode, stats)


def count_answers(q: Query, db: Instance) -> int:
    """The number of answers (the same under every order), from one counting
    pass over the atoms' bags; ``NotRouted("count", ...)`` on a cyclic query."""
    return atom_tree(q, bound_atoms(q, db), "count").counts(0, ()).get((), 0)


def build_reduced_db(q: Query, db: Instance) -> ReducedDB:
    """Stages 1 and 2: fully reduced, head-projected weighted relations."""
    return ReducedDB(tuple(ReducedAtom(a.vars, a.rows) for a in _reduce(q, db)[1].atoms))


def _reduce(q: Query, db: Instance) -> tuple[CountingTree, ReducedDB]:
    """``build_reduced_db``, plus the atom counting tree over the fully
    reduced bags; stage 1 drops only rows that no answer extends, so that
    tree counts every answer as the unreduced one does."""
    ct = atom_tree(q, bound_atoms(q, db), DIRECT_LEX)
    tables, vars_list = ct.tables, list(ct.vars)

    # stage 1: full semi-join reduction over the directed edges, up then down.
    # A bag's key set over a separator is kept until the bag loses rows, so
    # a later pass over the same separator reads no row.
    parent, _, postorder = ct.tree.walk(ct.tree.root)
    up = [(u, parent[u]) for u in postorder[:-1]]
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

    # stage 2: counting messages toward a virtual head node F; when every
    # atom next to F is a leaf, none is counted here but on its first read
    F = len(tables)
    ht = CountingTree(vars_list + [q.head], q.head, tables, DIRECT_LEX, reason="not_free_connex")
    children = ht.tree.walk(F)[1]
    msg = ht.messages(F)[0] if any(children[u] for u in children[F]) else {}
    reduced = []
    for u in range(F):
        hv = ht.separator(u, F)
        if u not in children[F]:
            reduced.append(ReducedAtom(hv, dict.fromkeys(map(_proj(vars_list[u], hv), tables[u]), 1)))
        else:
            reduced.append(ReducedAtom(hv, _tupled(msg[u], len(hv))) if u in msg
                           else ReducedAtom(hv, leaf=(ht, u)))
    return ct, ReducedDB(tuple(reduced))


def sum_blocks(q: Query, ct: CountingTree, report: TractabilityReport):
    """``(prefix, blocks, rank)``: the sum-anchor atom's head variables (head
    order), one ``(values, answer count)`` pair per distinct value of them,
    and the blocks' rank key ``rank(values) = (weight sum, tuple_key(values))``."""
    anchor = report.sum_anchor
    prefix = tuple(v for v in q.head if v in ct.vars[anchor])
    wpos = [prefix.index(v) for v in report.order.vars]
    blocks = _tupled(ct.counts(anchor, prefix), len(prefix))
    return prefix, blocks.items(), lambda p: (sum(p[i] for i in wpos), tuple_key(p))


class _Group:
    """Sorted candidate values for one (variable, neighbor-assignment) pair."""

    __slots__ = ("values", "cums")

    def __init__(self, values: list, cums: list[int]):
        self.values = values
        self.cums = cums


def _sort_values(values, stats: Stats | None):
    if stats is not None:
        return sorted_counted(values, key=value_key, stats=stats)
    try:
        # values of one kind compare natively exactly as value_key orders them
        return sorted(values)
    except TypeError:  # an int met a str
        return sorted(values, key=value_key)


def _build_tables(q: Query, rdb: ReducedDB, order, stats: Stats | None):
    vt = build_variable_tree(q, order)
    f = len(order)
    children = vt.children()
    groups: list[dict[tuple, _Group]] = [None] * f
    totals: list[dict] = [None] * f  # keyed by _key over ν

    for i in reversed(range(f)):
        a, w, nset = vt.anchor[i], vt.order[i], vt.nsets[i]
        # an anchor settled at w_i has vars exactly ν ∪ {w_i}: a leaf's bag
        # is counted per (ν, v), an inner atom has one weighted row per pair
        anchor, settled = rdb.atoms[a], a in vt.assigned[i]
        if anchor.leaf:
            tree, u = anchor.leaf
            weights = _split(tree.vars[u], tree.tables[u], nset, w, "count" if settled else "one")
        else:
            weights = _split(anchor.vars, anchor.rows, nset, w, "row" if settled else "one")

        # weights of the other atoms settled at w_i, then the child subtree
        # totals; all their vars lie in ν ∪ {w_i}, so they key off the
        # candidate's row (v, then ν). A child total keyed by w_i alone keys
        # off the candidate's 1-tuple (v,) instead, with no ν to add per
        # candidate. After full reduction every key is there.
        pvars = (w,) + nset
        alone = _key((w,), (w,))
        direct = [totals[c] for c in children[i] if vt.nsets[c] == (w,)]
        lookups = [(_proj(pvars, rdb.atoms[ai].vars), rdb.atoms[ai].rows)
                   for ai in vt.assigned[i] if ai != a]
        lookups += [(_key(pvars, vt.nsets[c]), totals[c]) for c in children[i]
                    if vt.nsets[c] != (w,)]

        gmap: dict = {}
        for nu, gv in weights.items():
            values = _sort_values(gv, stats)
            gs = map(gv.__getitem__, values)
            for m in direct:
                gs = map(mul, gs, map(m.__getitem__, map(alone, zip(values))))
            if lookups:  # values are never tuples; a ν key over one var is one
                cands = list(map(tuple.__add__, zip(values), repeat(nu if type(nu) is tuple else (nu,))))
                for key, m in lookups:
                    gs = map(mul, gs, map(m.__getitem__, map(key, cands)))
            gmap[nu] = _Group(values, list(accumulate(gs)))
        groups[i] = _tupled(gmap, len(nset))
        totals[i] = {nu: grp.cums[-1] for nu, grp in gmap.items()}

    count = 1
    for ai in vt.scalar_atoms:
        count *= rdb.atoms[ai].rows.get((), 0)
    for r in vt.roots():
        count *= totals[r].get((), 0)
    return vt, groups, count


def _split(vars_, rows, nset, w, weigh: str) -> dict:
    """ν -> {v: weight} over ``rows`` (over ``vars_``), both in
    first-occurrence order, from one C-level pass that splits the rows per
    ν. A candidate weighs its row's weight (``"row"``: one weighted row per
    (ν, v)), its number of rows (``"count"``: a bag), or 1 (``"one"``)."""
    nu_of, v_of = _key(vars_, nset), itemgetter(vars_.index(w))
    if weigh == "row":
        weights: dict = defaultdict(dict)
        deque(map(setitem, map(weights.__getitem__, map(nu_of, rows)), map(v_of, rows),
                  rows.values()), maxlen=0)
        return weights
    lists: dict = defaultdict(list)
    deque(map(list.append, map(lists.__getitem__, map(nu_of, rows)), map(v_of, rows)), maxlen=0)
    if weigh == "one":
        return {nu: dict.fromkeys(vs, 1) for nu, vs in lists.items()}
    return {nu: Counter(vs) for nu, vs in lists.items()}


@dataclass
class AccessIndex:
    """The sorted answer array of a routed lex or single-atom sum order. A sum
    order's blocks are one more first level: the anchor assignments
    ``anchor_vals`` in (weight sum, values) order, with running answer counts
    ``cums`` (both empty for a lex order). Immutable after construction;
    ``access``/``count`` are safe for concurrent callers (per-call stats)."""

    query: Query
    order: tuple[str, ...]
    vtree: VariableTree
    groups: list[dict[tuple, _Group]]
    count: int
    build_stats: Stats | None  # set on builds that count comparisons
    anchor_vals: list[tuple] = field(default_factory=list)
    cums: list[int] = field(default_factory=list)
    _npos: list[tuple[int, ...]] = field(init=False)
    _head_pick: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        pos = {v: i for i, v in enumerate(self.order)}
        self._npos = [tuple(pos[v] for v in ns) for ns in self.vtree.nsets]
        self._head_pick = tuple(pos[v] for v in self.query.head)

    @property
    def max_group_size(self) -> int:
        return max(
            (len(g.values) for gm in self.groups for g in gm.values()), default=0
        )

    def access(self, k: int, stats: Stats | None = None) -> AnswerTuple:
        check_rank(k)
        if k < 0 or k >= self.count:
            raise OutOfRange(k, self.count)
        vals, C, start = [None] * len(self.order), self.count, 0
        if self.cums:  # pin the sum order's block first
            j = bisect_gt(self.cums, k, stats)
            before = self.cums[j - 1] if j else 0
            start = len(self.anchor_vals[j])
            vals[:start] = self.anchor_vals[j]
            C, k = self.cums[j] - before, k - before
        for i in range(start, len(self.order)):
            grp = self.groups[i][tuple(vals[j] for j in self._npos[i])]
            M = C // grp.cums[-1]
            idx = bisect_gt(grp.cums, k // M, stats)
            before = grp.cums[idx - 1] if idx else 0
            k, C = k - M * before, M * (grp.cums[idx] - before)
            vals[i] = grp.values[idx]
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
    ct, rdb = _reduce(q, db)
    prefix, blocks, rank = sum_blocks(q, ct, report) if mode == DIRECT_SUM else ((), [], None)
    del ct  # free its count messages before the candidate tables are built
    stats = Stats() if count_comparisons else None
    order = report.completed_order
    vt, groups, count = _build_tables(q, rdb, order, stats)
    blocks = sorted_counted(blocks, key=lambda b: rank(b[0]), stats=stats)
    cums = list(accumulate(map(itemgetter(1), blocks)))
    if order[:len(prefix)] != prefix:
        raise AssertionError("sum order must start with the anchor atom's head variables")
    if mode == DIRECT_SUM and (cums[-1] if cums else 0) != count:
        raise AssertionError("anchor extension counts must add up to the answer count")
    return AccessIndex(q, order, vt, groups, count, stats, list(map(itemgetter(0), blocks)), cums)


def preprocess_lex(q: Query, db: Instance, report: TractabilityReport, *,
                   count_comparisons: bool = False) -> AccessIndex:
    """``build_index`` of ``report.order``; kept only for perfbench/worker.py."""
    return build_index(q, db, report.order, report=report, count_comparisons=count_comparisons)

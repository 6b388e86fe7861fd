"""Structural analysis: acyclicity, free-connexness, order tractability.

The routing rules implemented here decide which engine may run:

* ``DirectLex``  — free-connex and the (possibly partial) lexicographic order
  extends to a full order without a disruptive trio.
* ``SingleLex``  — free-connex; any lexicographic order qualifies.
* ``DirectSum`` / ``SingleSum`` — free-connex and every weight variable lives
  in one atom; broader sum orders fall back to the baselines.
* ``BaselineOnly`` — always available.

A *disruptive trio* for an order w is a triple (x1, x2, x3) of head variables
where x3 follows both x1 and x2 in w, x3 shares an atom with each of them, but
x1 and x2 share no atom. Orders without one are exactly the reverse perfect
elimination orders of the head-restricted primal graph, which is what the
direct-access descent needs.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations

from .model import LEX, OrderSpec, Query

DIRECT_LEX = "DirectLex"
DIRECT_SUM = "DirectSum"
SINGLE_LEX = "SingleLex"
SINGLE_SUM = "SingleSum"
BASELINE_ONLY = "BaselineOnly"


@dataclass(frozen=True)
class JoinTree:
    """One node per input edge; ``parent[root] is None``. GYO links empty
    residues across connected components, so an acyclic hypergraph always
    reduces to a single tree (separators may be empty)."""

    node_vars: tuple[frozenset[str], ...]
    parent: tuple[int | None, ...]
    root: int

    @cached_property
    def _adjacent(self) -> list[list[int]]:
        """Each node's tree neighbours, ascending."""
        adj: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p is not None:
                insort(adj[p], v)
                insort(adj[v], p)
        return adj

    def walk(self, root: int) -> tuple[list[int | None], list[list[int]], list[int]]:
        """One DFS from ``root``: each node's parent (``None`` at ``root``),
        its children in node order, and a postorder that ends with ``root``."""
        n, adj = len(self.parent), self._adjacent
        parent: list[int | None] = [None] * n
        children: list[list[int]] = [[] for _ in range(n)]
        order, stack = [], [root]
        while stack:
            u = stack.pop()
            order.append(u)
            children[u] = [v for v in adj[u] if v != parent[u]]
            for v in children[u]:
                parent[v] = u
            stack.extend(children[u])
        order.reverse()
        return parent, children, order


@dataclass(frozen=True)
class Cyclic:
    residue: tuple[frozenset[str], ...]


def gyo_join_tree(edges) -> JoinTree | Cyclic:
    """GYO ear removal over edge instances.

    Each pass drops every vertex that lies in exactly one live edge, then
    links the first live edge contained in another live edge to the first
    such edge, both in ascending index, and removes it. The passes stop when
    no live edge is contained in another. Acyclic iff every live edge left
    is empty.

    Each vertex keeps the set of live edges that hold it. After the first
    pass, only the removed edge's vertices can drop, from the edge it was
    linked to. An edge contained in no other stays so until it shrinks, so
    a heap of edges that may be contained, checked in index order, finds
    each pass's link without a scan over all pairs.
    """
    node_vars = tuple(frozenset(e) for e in edges)
    current = [set(e) for e in edges]
    alive = list(range(len(edges)))  # kept ascending; iteration stays deterministic
    parent: list[int | None] = [None] * len(edges)
    holders: dict = {}  # vertex -> the live edges that hold it
    for i, e in enumerate(current):
        for v in e:
            holders.setdefault(v, set()).add(i)
    drop, maybe = list(holders), list(alive)  # maybe: a heap of live edges that may be contained
    while True:
        for v in drop:
            if len(holders[v]) == 1:
                j = holders[v].pop()
                current[j].discard(v)
                heappush(maybe, j)
        while maybe:
            i = heappop(maybe)
            if parent[i] is None:
                hosts = (set.intersection(*(holders[v] for v in current[i])) if current[i]
                         else set(alive[:2])) - {i}
                if hosts:
                    break
        else:
            break
        alive.remove(i)
        parent[i] = min(hosts)
        for v in current[i]:
            holders[v].discard(i)
        drop = current[i]

    residue = tuple(frozenset(current[i]) for i in alive if current[i])
    if residue:
        return Cyclic(residue)
    if not alive:  # no edges at all
        return JoinTree((), (), -1)
    return JoinTree(node_vars, tuple(parent), alive[0])


def check_free_connex(q: Query) -> tuple[bool, bool]:
    """(acyclic, free_connex): GYO over the atoms, then over atoms + head edge."""
    edges = [a.var_set for a in q.atoms]
    if not isinstance(gyo_join_tree(edges), JoinTree):
        return False, False
    extended = gyo_join_tree(edges + [q.head_set])
    return True, isinstance(extended, JoinTree)


def head_adjacency(q: Query) -> dict[str, set[str]]:
    """Primal-graph adjacency restricted to head variables (share an atom)."""
    adj: dict[str, set[str]] = {v: set() for v in q.head}
    for a in q.atoms:
        hv = [v for v in dict.fromkeys(a.vars) if v in q.head_set]
        for i, x in enumerate(hv):
            for y in hv[i + 1:]:
                adj[x].add(y)
                adj[y].add(x)
    return adj


def head_masks(q: Query) -> tuple[dict[str, int], list[int]]:
    """The head graph as bitmasks: each head variable's position in head order,
    and per position the head variables it shares an atom with (bit i for
    ``q.head[i]``, never its own bit)."""
    bit = {v: i for i, v in enumerate(q.head)}
    nbrs = [0] * len(q.head)
    for a in q.atoms:
        hv = [bit[v] for v in a.vars if v in bit]
        m = sum(1 << i for i in set(hv))
        for i in hv:
            nbrs[i] |= m
    return bit, [m & ~(1 << i) for i, m in enumerate(nbrs)]


def _bits(s: int):
    """The positions of the set bits of s, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _is_clique(nbrs: list[int], s: int) -> bool:
    """Do the variables of mask s pairwise share an atom?"""
    return all(s & ~nbrs[i] == 1 << i for i in _bits(s))


def find_disruptive_trio(q: Query, order, graph=None) -> tuple[str, str, str] | None:
    """Lexicographically first trio by order positions (a, b, c), or None: two
    of order[c]'s earlier head neighbours, at a < b, that share no atom. Only
    a variable whose earlier neighbours do not form a clique closes a trio,
    so only such a variable's neighbours are paired up. ``graph`` is
    ``head_masks(q)``."""
    order = tuple(order)
    bit, nbrs = graph or head_masks(q)
    idx = [bit[v] for v in order]
    pos = {i: p for p, i in enumerate(idx)}
    best, earlier = None, 0
    for c, x in enumerate(idx):
        s = nbrs[x] & earlier
        earlier |= 1 << x
        if not _is_clique(nbrs, s):
            a, b = next((a, b) for a, b in combinations(sorted(pos[i] for i in _bits(s)), 2)
                        if not nbrs[idx[a]] >> idx[b] & 1)
            best = min(best or (a, b, c), (a, b, c))
    return None if best is None else tuple(order[i] for i in best)


def complete_order(q: Query, partial, graph=None) -> tuple[str, ...] | None:
    """Extend a partial lex list to a full trio-free order, or None.

    A prefix with a disruptive trio has none. Otherwise an exhaustive
    depth-first search appends, in head order, each unranked head variable
    that closes no trio, so the first full order it reaches is deterministic.
    The search is one loop over a stack that holds, per depth, the lowest
    head position still to try there. A variable closes no trio iff its placed
    neighbours are a clique; that is decided once per (variable, placed
    neighbours) pair in a call. ``graph`` is ``head_masks(q)``.
    """
    prefix = tuple(partial)
    graph = graph or head_masks(q)
    if find_disruptive_trio(q, prefix, graph) is not None:
        return None
    bit, nbrs = graph
    full = (1 << len(nbrs)) - 1
    placed = sum(1 << i for i in {bit[v] for v in prefix})
    path, starts, fits = [], [0], [{} for _ in nbrs]
    while starts:
        if placed == full:
            return prefix + tuple(q.head[i] for i in path)
        free = full & ~placed & -(1 << starts[-1])
        while free:  # the unplaced variables from starts[-1] on, in head order
            low = free & -free
            i = low.bit_length() - 1
            s = nbrs[i] & placed
            fit = fits[i].get(s)
            if fit is None:
                fit = fits[i][s] = _is_clique(nbrs, s)
            if fit:
                break
            free ^= low
        if free:
            starts[-1] = i + 1
            placed |= low
            path.append(i)
            starts.append(0)
        else:  # no candidate left at this depth: take back the last variable placed
            starts.pop()
            if path:
                placed ^= 1 << path.pop()
    return None


def sum_anchor_atom(q: Query, weight_vars) -> int | None:
    """Lowest-index atom containing every weight variable, or None."""
    want = set(weight_vars)
    for i, a in enumerate(q.atoms):
        if want <= a.var_set:
            return i
    return None


def effective_order(q: Query, o: OrderSpec) -> tuple[str, ...]:
    """The deterministic full tie-break order shared by every execution path.

    Lex: the order itself when full; otherwise its trio-free completion when
    one exists, else the ranked prefix followed by the rest in head order.
    Sum: the anchor atom's head variables (head order) followed by a trio-free
    completion; without a single anchor atom, plain head order. It is
    ``analyze(q, o).tie_break_order``.
    """
    return analyze(q, o).tie_break_order


@dataclass(frozen=True)
class ModeVerdict:
    ok: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class TractabilityReport:
    acyclic: bool
    free_connex: bool
    trio: tuple[str, str, str] | None
    completed_order: tuple[str, ...] | None
    routing: dict[str, ModeVerdict]
    # internals shared by the engines (not part of the JSON document)
    order: OrderSpec = None
    tie_break_order: tuple[str, ...] = ()
    sum_anchor: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "acyclic": self.acyclic,
            "free_connex": self.free_connex,
            "trio": list(self.trio) if self.trio else None,
            "completed_order": list(self.completed_order) if self.completed_order else None,
            "routing": {
                mode: {"ok": v.ok, "reasons": list(v.reasons)}
                for mode, v in self.routing.items()
            },
        }


def analyze(q: Query, o: OrderSpec) -> TractabilityReport:
    """Route a (query, order) pair to the engines that can serve it."""
    acyclic, fc = check_free_connex(q)
    trio = None
    anchor = None if o.kind == LEX else sum_anchor_atom(q, o.vars)
    if o.kind == LEX:
        prefix = tuple(o.vars)
    else:  # the anchor atom's head variables, in head order; none without an anchor
        prefix = tuple(v for v in q.head if anchor is not None and v in q.atoms[anchor].var_set)
    # a sum order without an anchor seeks no completion: its tie-break is head order
    graph = head_masks(q)
    completed = None if o.kind != LEX and anchor is None else complete_order(q, prefix, graph)
    tie_break = completed if completed is not None else \
        prefix + tuple(v for v in q.head if v not in set(prefix))
    if not fc:
        completed = None

    # one (direct, single) verdict pair for the order kind's own two modes
    if not fc:
        direct = single = ModeVerdict(False, ("not_free_connex" if acyclic else "not_acyclic",))
    elif o.kind != LEX and anchor is None:
        direct = single = ModeVerdict(False, ("sum_vars_not_single_atom",))
    elif completed is not None:
        direct = single = ModeVerdict(True)
    else:  # a lex order: a sum anchor's head variables are a clique, and every clique
        # of a free-connex query's chordal head graph starts a trio-free order
        trio = find_disruptive_trio(q, tie_break, graph)
        reason = "disruptive_trio" if len(o.vars) == len(q.head) else "no_trio_free_completion"
        direct, single = ModeVerdict(False, (reason,)), ModeVerdict(True)

    lex_modes, sum_modes = (DIRECT_LEX, SINGLE_LEX), (DIRECT_SUM, SINGLE_SUM)
    own, other = (lex_modes, sum_modes) if o.kind == LEX else (sum_modes, lex_modes)
    routing = dict(zip(own, (direct, single)))
    routing.update(dict.fromkeys(other, ModeVerdict(False, ("order_kind_mismatch",))))
    routing[BASELINE_ONLY] = ModeVerdict(True)
    return TractabilityReport(
        acyclic=acyclic,
        free_connex=fc,
        trio=trio,
        completed_order=completed,
        routing=routing,
        order=o,
        tie_break_order=tie_break,
        sum_anchor=anchor,
    )


@dataclass(frozen=True)
class VariableTree:
    """Reverse perfect-elimination structure over a trio-free full order.

    ``nsets[i]`` lists the preceding neighbors of order[i] (in order position),
    ``parent[i]`` is the deepest of them, ``anchor[i]`` an atom covering
    {order[i]} ∪ nsets[i] (conformality guarantees one), and ``assigned[i]``
    the atoms whose deepest head variable is order[i]. Atoms without head
    variables land in ``scalar_atoms``.
    """

    order: tuple[str, ...]
    nsets: tuple[tuple[str, ...], ...]
    parent: tuple[int | None, ...]
    anchor: tuple[int, ...]
    assigned: tuple[tuple[int, ...], ...]
    scalar_atoms: tuple[int, ...]

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.parent) if p is None]

    def children(self) -> list[list[int]]:
        ch = [[] for _ in self.order]
        for i, p in enumerate(self.parent):
            if p is not None:
                ch[p].append(i)
        return ch


def build_variable_tree(q: Query, order) -> VariableTree:
    order = tuple(order)
    if (trio := find_disruptive_trio(q, order)) is not None:
        raise AssertionError(f"order {order} has the disruptive trio {trio}")
    pos = {v: i for i, v in enumerate(order)}
    adj = head_adjacency(q)

    nsets, parent, anchor = [], [], []
    for i, w in enumerate(order):
        ns = sorted((x for x in adj[w] if pos[x] < i), key=pos.get)
        nsets.append(tuple(ns))
        parent.append(pos[ns[-1]] if ns else None)
        need = set(ns) | {w}
        e = next((j for j, a in enumerate(q.atoms) if need <= a.var_set), None)
        if e is None:
            raise AssertionError(f"no atom covers {need}; hypergraph not conformal?")
        anchor.append(e)

    assigned = [[] for _ in order]
    scalar = []
    for j, a in enumerate(q.atoms):
        hv = [pos[v] for v in a.var_set if v in pos]
        if hv:
            assigned[max(hv)].append(j)
        else:
            scalar.append(j)
    return VariableTree(
        order=order,
        nsets=tuple(nsets),
        parent=tuple(parent),
        anchor=tuple(anchor),
        assigned=tuple(tuple(v) for v in assigned),
        scalar_atoms=tuple(scalar),
    )

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

from .model import LEX, OrderSpec, Query, check_order

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
    def adjacent(self) -> list[list[int]]:
        """Each node's tree neighbours, ascending."""
        adj: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p is not None:
                insort(adj[p], v)
                insort(adj[v], p)
        return adj

    def up_edges(self) -> list[tuple[int, int]]:
        """Each ``(node, parent)`` edge, in the postorder of one DFS from
        ``root``: every edge comes after the edges below it."""
        order, stack = [], [self.root] if self.parent else []
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(v for v in self.adjacent[u] if v != self.parent[u])
        return [(u, self.parent[u]) for u in reversed(order[1:])]


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


def head_masks(q: Query) -> tuple[dict[str, int], list[int], list[int]]:
    """The head graph as bitmasks (bit i for ``q.head[i]``): each head variable's
    position in head order, per position the head variables it shares an atom
    with (never its own bit), and per atom its head variables."""
    bit = {v: i for i, v in enumerate(q.head)}
    nbrs, atoms = [0] * len(q.head), []
    for a in q.atoms:
        hv = [bit[v] for v in a.vars if v in bit]
        m = sum(1 << i for i in set(hv))
        atoms.append(m)
        for i in hv:
            nbrs[i] |= m
    return bit, [m & ~(1 << i) for i, m in enumerate(nbrs)], atoms


def _covering_atom(atom_masks: list[int], need: int) -> int | None:
    """The lowest-index atom whose head-variable mask contains ``need``, or None."""
    return next((j for j, m in enumerate(atom_masks) if need & ~m == 0), None)


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
    ``head_masks(q)``. A repeated, unknown or existential variable raises
    ``check_order``'s error."""
    order = tuple(order)
    if order:
        check_order(q, OrderSpec(LEX, order))
    bit, nbrs, _ = graph or head_masks(q)
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

    A prefix with a disruptive trio has none. Nor has one whose unranked
    variables cannot all be removed one at a time, each when its neighbours
    not yet removed form a clique: the reverse of a completion is such a
    removal order, and a removal never blocks another, so one pass over a
    work list decides it in polynomial time. Otherwise a depth-first search,
    exponential in the worst case, appends in head order each unranked head
    variable that closes no trio, so the first full order it reaches is
    deterministic. The search is one loop over a stack that holds, per depth,
    the lowest head position still to try there. A variable closes no trio
    iff its placed neighbours are a clique; that is decided once per
    (variable, placed neighbours) pair in a call. A bad prefix variable raises
    ``check_order``'s error. ``graph`` is ``head_masks(q)``.
    """
    prefix = tuple(partial)
    graph = graph or head_masks(q)
    if find_disruptive_trio(q, prefix, graph) is not None:
        return None
    bit, nbrs, _ = graph
    full = (1 << len(nbrs)) - 1
    placed = sum(1 << bit[v] for v in prefix)
    left, work = full, list(_bits(full & ~placed))
    while work:  # the removal pass; a removal re-queues only its unplaced neighbours
        i = work.pop()
        if left >> i & 1 and _is_clique(nbrs, nbrs[i] & left):
            left ^= 1 << i
            work.extend(_bits(nbrs[i] & left & ~placed))
    if left != placed:
        return None
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
    raise AssertionError(f"the removal pass found a completion of {prefix} that the search missed")


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
    """Route a (query, order) pair to the engines that can serve it. The
    order's variables are checked as ``parse_order`` checks them."""
    check_order(q, o)
    acyclic, fc = check_free_connex(q)
    trio = None
    bit, _, atoms = graph = head_masks(q)
    anchor = None if o.kind == LEX else _covering_atom(atoms, sum(1 << bit[v] for v in o.vars))
    if o.kind == LEX:
        prefix = tuple(o.vars)
    else:  # the anchor atom's head variables, in head order; none without an anchor
        prefix = () if anchor is None else tuple(q.head[i] for i in _bits(atoms[anchor]))
    # a sum order without an anchor seeks no completion: its tie-break is head order
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
    ``parent[i]`` is the deepest of them, ``anchor[i]`` the lowest-index atom
    covering {order[i]} ∪ nsets[i] (conformality guarantees one), and
    ``assigned[i]`` the atoms whose deepest head variable is order[i]. Atoms
    without head variables land in ``scalar_atoms``.
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
    """The ``VariableTree`` of a full order, read off ``head_masks(q)``: the
    neighbours placed before each variable, their lowest covering atom, and
    each atom's deepest head variable. ``AssertionError`` if the order has a
    disruptive trio, or if no atom covers a variable and those neighbours."""
    order = tuple(order)
    graph = head_masks(q)
    if (trio := find_disruptive_trio(q, order, graph)) is not None:
        raise AssertionError(f"order {order} has the disruptive trio {trio}")
    bit, nbrs, atoms = graph
    pos = {bit[v]: i for i, v in enumerate(order)}  # head position -> order position
    nsets, parent, anchor, earlier = [], [], [], 0
    for w in order:
        x = bit[w]
        ns = sorted(pos[j] for j in _bits(nbrs[x] & earlier))
        nsets.append(tuple(order[p] for p in ns))
        parent.append(ns[-1] if ns else None)
        anchor.append(_covering_atom(atoms, nbrs[x] & earlier | 1 << x))
        if anchor[-1] is None:
            raise AssertionError(f"no atom covers {set(nsets[-1]) | {w}}; hypergraph not conformal?")
        earlier |= 1 << x
    assigned, scalar = [[] for _ in order], []
    for j, m in enumerate(atoms):
        (assigned[max(pos[i] for i in _bits(m))] if m else scalar).append(j)
    return VariableTree(order=order, nsets=tuple(nsets), parent=tuple(parent), anchor=tuple(anchor),
                        assigned=tuple(map(tuple, assigned)), scalar_atoms=tuple(scalar))

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

from dataclasses import dataclass

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

    def walk(self, root: int) -> tuple[list[int | None], list[list[int]], list[int]]:
        """One DFS from ``root``: each node's parent (``None`` at ``root``),
        its children in node order, and a postorder that ends with ``root``."""
        n, up = len(self.parent), self.parent
        parent: list[int | None] = [None] * n
        children: list[list[int]] = [[] for _ in range(n)]
        order, stack = [], [root]
        while stack:
            u = stack.pop()
            order.append(u)
            children[u] = [v for v in range(n) if v != parent[u] and (up[v] == u or up[u] == v)]
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

    Repeatedly (a) drop vertices that occur in exactly one live edge and
    (b) remove a live edge contained in another live edge, recording the
    containment as a tree link. Acyclic iff every edge is eventually removed
    or emptied.
    """
    node_vars = tuple(frozenset(e) for e in edges)
    current = [set(e) for e in edges]
    alive = list(range(len(edges)))  # kept ascending; iteration stays deterministic
    parent: list[int | None] = [None] * len(edges)

    changed = True
    while changed:
        changed = False
        occ: dict[str, list[int]] = {}
        for i in alive:
            for v in current[i]:
                occ.setdefault(v, []).append(i)
        for v, where in occ.items():
            if len(where) == 1:
                current[where[0]].discard(v)
                changed = True
        for i in alive:
            if len(alive) == 1:
                break
            target = next(
                (j for j in alive if j != i and current[i] <= current[j]), None
            )
            if target is not None:
                alive.remove(i)
                parent[i] = target
                changed = True
                break  # occurrence counts are stale; restart the pass

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


def find_disruptive_trio(q: Query, order) -> tuple[str, str, str] | None:
    """Lexicographically first trio by order positions, or None."""
    order = tuple(order)
    adj = head_adjacency(q)
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[b] in adj[order[a]]:
                continue
            for c in range(b + 1, len(order)):
                x3 = order[c]
                if order[a] in adj[x3] and order[b] in adj[x3]:
                    return (order[a], order[b], x3)
    return None


def _extension_blocked(placed, y, adj) -> bool:
    """Would appending y create a trio (y as the late variable x3)?"""
    nbrs = [x for x in placed if x in adj[y]]
    for i, x1 in enumerate(nbrs):
        for x2 in nbrs[i + 1:]:
            if x2 not in adj[x1]:
                return True
    return False


def complete_order(q: Query, partial) -> tuple[str, ...] | None:
    """Extend a partial lex list to a full trio-free order, or None.

    Exhaustive backtracking over the unranked head variables; candidates are
    tried in head order, so the first solution is deterministic.
    """
    prefix = tuple(partial)
    adj = head_adjacency(q)
    for i in range(len(prefix)):
        if _extension_blocked(prefix[:i], prefix[i], adj):
            return None
    remaining = [v for v in q.head if v not in set(prefix)]
    placed = list(prefix)

    def extend() -> bool:
        if not remaining:
            return True
        for idx in range(len(remaining)):
            v = remaining[idx]
            if _extension_blocked(placed, v, adj):
                continue
            placed.append(v)
            del remaining[idx]
            if extend():
                return True
            remaining.insert(idx, v)
            placed.pop()
        return False

    return tuple(placed) if extend() else None


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
    completed = None if o.kind != LEX and anchor is None else complete_order(q, prefix)
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
    elif o.kind == LEX:
        trio = find_disruptive_trio(q, tie_break)
        reason = "disruptive_trio" if len(o.vars) == len(q.head) else "no_trio_free_completion"
        direct, single = ModeVerdict(False, (reason,)), ModeVerdict(True)
    else:  # a sum order without a completion: cannot happen for chordal head graphs; stay safe
        direct = single = ModeVerdict(False, ("no_trio_free_completion",))

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

import itertools
import random
from collections import Counter

import pytest

from cqrank.analysis import (
    Cyclic,
    JoinTree,
    VariableTree,
    analyze,
    build_variable_tree,
    check_free_connex,
    complete_order,
    effective_order,
    find_disruptive_trio,
    gyo_join_tree,
)
from cqrank.errors import DuplicateVariable, NonFreeVariable, UnknownVariable
from cqrank.model import Atom, Query, parse_order, parse_query

from conftest import head_adjacency


def _rip_ok(tree: JoinTree) -> bool:
    n = len(tree.node_vars)
    adj = [[] for _ in range(n)]
    for i, p in enumerate(tree.parent):
        if p is not None:
            adj[i].append(p)
            adj[p].append(i)
    for v in set().union(*tree.node_vars) if n else set():
        holders = {i for i in range(n) if v in tree.node_vars[i]}
        start = next(iter(holders))
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in holders and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != holders:
            return False
    return True


def test_gyo_two_edge_path():
    t = gyo_join_tree([frozenset("AB"), frozenset("BC")])
    assert isinstance(t, JoinTree)
    i, p = next((i, p) for i, p in enumerate(t.parent) if p is not None)
    assert t.node_vars[i] & t.node_vars[p] == frozenset("B")


def test_gyo_triangle_cyclic():
    t = gyo_join_tree([frozenset("AB"), frozenset("BC"), frozenset("AC")])
    assert isinstance(t, Cyclic)
    assert t.residue


def test_gyo_three_edge_path_separators():
    t = gyo_join_tree([frozenset("AB"), frozenset("BC"), frozenset("CD")])
    assert isinstance(t, JoinTree)
    seps = {t.node_vars[i] & t.node_vars[p] for i, p in enumerate(t.parent) if p is not None}
    assert seps == {frozenset("B"), frozenset("C")}


def _random_join_trees(seed=3, tries=500):
    rng = random.Random(seed)
    for _ in range(tries):
        vs = [f"V{i}" for i in range(rng.randint(1, 6))]
        edges = [frozenset(rng.sample(vs, rng.randint(1, len(vs))))
                 for _ in range(rng.randint(1, 5))]
        t = gyo_join_tree(edges)
        if isinstance(t, JoinTree):
            yield t


def test_gyo_running_intersection_random():
    hits = 0
    for t in _random_join_trees():
        hits += 1
        assert _rip_ok(t)
        assert sum(1 for p in t.parent if p is None) == 1
    assert hits > 100


def test_join_tree_up_edges_lead_to_the_root():
    """Each non-root node once, on its tree edge, after the edges below it."""
    trees = 0
    for t in _random_join_trees():
        up = t.up_edges()
        assert sorted(u for u, _ in up) == [u for u in range(len(t.node_vars)) if u != t.root]
        assert all(t.parent[u] == p for u, p in up)
        at = {u: i for i, (u, _) in enumerate(up)}
        assert all(at[c] < at[u] for c, u in up if u != t.root)
        trees += 1
    assert trees > 100
    assert JoinTree((), (), -1).up_edges() == []


def test_free_connex_flags(q2path, qproj, qtriangle):
    assert check_free_connex(q2path) == (True, True)
    assert check_free_connex(qproj) == (True, False)
    assert check_free_connex(qtriangle) == (False, False)


def test_trio_examples(q2path):
    assert find_disruptive_trio(q2path, ("A", "C", "B")) == ("A", "C", "B")
    assert find_disruptive_trio(q2path, ("A", "B", "C")) is None
    q = parse_query("Q(A,B) :- R(A,B).")
    assert find_disruptive_trio(q, ("B", "A")) is None


def _brute_trio(q, order):
    adj = head_adjacency(q)
    for x1, x2, x3 in itertools.permutations(order, 3):
        i1, i2, i3 = order.index(x1), order.index(x2), order.index(x3)
        if i1 < i2 < i3 and x1 in adj[x3] and x2 in adj[x3] and x2 not in adj[x1]:
            return True
    return False


def _random_query(rng, max_vars=6):
    nv = rng.randint(3, max_vars)
    head = tuple(f"V{i}" for i in range(nv))
    atoms = []
    for i in range(rng.randint(1, 4)):
        size = rng.randint(1, 3)
        atoms.append(Atom(f"R{i}", tuple(rng.sample(head, size))))
    covered = {v for a in atoms for v in a.vars}
    missing = [v for v in head if v not in covered]
    if missing:
        atoms.append(Atom("Rx", tuple(missing)))
    return Query("Q", head, tuple(atoms))


def test_trio_agrees_with_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        q = _random_query(rng)
        order = list(q.head)
        rng.shuffle(order)
        found = find_disruptive_trio(q, order)
        assert (found is not None) == _brute_trio(q, order)
        if found is not None:
            x1, x2, x3 = found
            adj = head_adjacency(q)
            assert order.index(x1) < order.index(x3) and order.index(x2) < order.index(x3)
            assert x1 in adj[x3] and x2 in adj[x3] and x2 not in adj[x1]


def test_complete_order_examples(q2path):
    assert complete_order(q2path, ("A",)) == ("A", "B", "C")
    assert complete_order(q2path, ("A", "C")) is None
    assert complete_order(q2path, ("A", "B", "C")) == ("A", "B", "C")


def test_complete_order_monotone_prefixes():
    # every prefix of a trio-free full order completes successfully
    rng = random.Random(23)
    for _ in range(200):
        q = _random_query(rng)
        full = complete_order(q, ())
        if full is None:
            continue
        for i in range(len(full) + 1):
            assert complete_order(q, full[:i]) is not None


def test_complete_order_vs_exhaustive_small():
    rng = random.Random(29)
    for _ in range(200):
        q = _random_query(rng, max_vars=5)
        prefix = tuple(rng.sample(q.head, rng.randint(0, len(q.head))))
        got = complete_order(q, prefix)
        rest = [v for v in q.head if v not in set(prefix)]
        exists = any(
            not _brute_trio(q, list(prefix) + list(perm))
            for perm in itertools.permutations(rest)
        )
        assert (got is not None) == exists
        if got is not None:
            assert got[: len(prefix)] == prefix
            assert not _brute_trio(q, list(got))


def test_analyze_lex_examples(q2path, qproj):
    r = analyze(q2path, parse_order("lex: A,C,B", q2path))
    assert not r.routing["DirectLex"].ok
    assert r.trio == ("A", "C", "B")
    assert r.routing["SingleLex"].ok
    assert r.routing["BaselineOnly"].ok

    r = analyze(q2path, parse_order("lex: A,B,C", q2path))
    assert r.routing["DirectLex"].ok and r.completed_order == ("A", "B", "C")

    r = analyze(qproj, parse_order("lex: A,C", qproj))
    assert not r.free_connex
    assert not r.routing["DirectLex"].ok
    assert not r.routing["SingleLex"].ok


def test_analyze_sum_single_atom_rule(q2path):
    r = analyze(q2path, parse_order("sum: B,C", q2path))
    assert r.routing["DirectSum"].ok and r.routing["SingleSum"].ok
    assert r.sum_anchor == 1

    r = analyze(q2path, parse_order("sum: A,C", q2path))
    assert not r.routing["DirectSum"].ok
    assert r.routing["DirectSum"].reasons == ("sum_vars_not_single_atom",)
    assert r.routing["BaselineOnly"].ok


def test_analyze_triangle(qtriangle):
    r = analyze(qtriangle, parse_order("lex: A,B,C", qtriangle))
    assert not r.acyclic and not r.free_connex
    assert not r.routing["DirectLex"].ok and not r.routing["SingleLex"].ok


def test_report_json_fields(q2path):
    d = analyze(q2path, parse_order("lex: A", q2path)).to_json_dict()
    assert set(d) == {"acyclic", "free_connex", "trio", "completed_order", "routing"}
    assert set(d["routing"]) == {
        "DirectLex", "DirectSum", "SingleLex", "SingleSum", "BaselineOnly"
    }


def test_effective_order_prefix_preserved(q2path):
    assert effective_order(q2path, parse_order("lex: B", q2path))[0] == "B"
    # intractable partial order still gets a deterministic full tie-break
    eff = effective_order(q2path, parse_order("lex: A,C", q2path))
    assert eff[:2] == ("A", "C") and set(eff) == {"A", "B", "C"}


def test_variable_tree_structure(q3path):
    vt = build_variable_tree(q3path, ("A", "B", "C", "D"))
    assert vt.nsets == ((), ("A",), ("B",), ("C",))
    assert vt.parent == (None, 0, 1, 2)
    adjacency_cover = [set(vt.nsets[i]) | {vt.order[i]} for i in range(4)]
    for i, need in enumerate(adjacency_cover):
        assert need <= q3path.atoms[vt.anchor[i]].var_set
    flat = [a for group in vt.assigned for a in group]
    assert sorted(flat) == [0, 1, 2] and not vt.scalar_atoms


def test_variable_tree_rejects_trio_order(q2path):
    with pytest.raises(AssertionError):
        build_variable_tree(q2path, ("A", "C", "B"))


def test_hypergraph_of_query(qproj):
    # the hypergraphs check_free_connex runs GYO on: the atoms, then the atoms and the head
    edges = [a.var_set for a in qproj.atoms]
    assert edges == [frozenset("AB"), frozenset("BC")]
    assert frozenset().union(*edges) == frozenset("ABC")
    assert qproj.head_set == frozenset("AC")
    assert isinstance(gyo_join_tree(edges), JoinTree)
    assert isinstance(gyo_join_tree(edges + [qproj.head_set]), Cyclic)
    assert check_free_connex(qproj) == (True, False)


@pytest.mark.parametrize("order_text,completed,tie_break", [
    ("lex: B", ("B", "A", "C", "D"), ("B", "A", "C", "D")),
    ("lex: A,D", None, ("A", "D", "B", "C")),
    ("sum: C,D", ("C", "D", "B", "A"), ("C", "D", "B", "A")),
])
def test_analyze_completes_the_order_once(q3path, monkeypatch, order_text, completed, tie_break):
    import cqrank.analysis as mod

    calls, graphs = [], []
    real, real_masks = mod.complete_order, mod.head_masks
    monkeypatch.setattr(mod, "complete_order", lambda *a: (calls.append(a), real(*a))[1])
    monkeypatch.setattr(mod, "head_masks", lambda q: (graphs.append(q), real_masks(q))[1])
    o = parse_order(order_text, q3path)
    r = analyze(q3path, o)
    assert len(calls) == 1 and len(graphs) == 1  # the trio scans reuse the one head graph
    assert r.completed_order == completed and r.tie_break_order == tie_break
    assert effective_order(q3path, o) == tie_break


def _random_query_with_existentials(rng):
    """3 to 7 head variables and one existential, over about as
    many atoms of two or three variables (repeats allowed): sparse enough
    for trios, dense enough for cycles; nothing is required of its shape."""
    head = tuple(f"V{i}" for i in range(rng.randint(3, 7)))
    pool = head + ("X0",)
    atoms = [Atom(f"R{i}", tuple(rng.choices(pool, k=rng.choice([2, 2, 3]))))
             for i in range(rng.randint(len(head) - 1, len(head) + 2))]
    missing = tuple(v for v in head if all(v not in a.vars for a in atoms))
    return Query("Q", head, tuple(atoms) + ((Atom("Rx", missing),) if missing else ()))


def _brute_first_trio(q, order):
    """The first position triple a < b < c (lexicographically) whose variables
    form a disruptive trio, read off the atoms directly."""
    share = {(x, y) for a in q.atoms for x in a.vars for y in a.vars if x != y}
    for x1, x2, x3 in itertools.combinations(order, 3):
        if (x1, x2) not in share and (x1, x3) in share and (x2, x3) in share:
            return x1, x2, x3
    return None


def test_find_disruptive_trio_is_the_first_position_triple():
    """Also: ``build_variable_tree`` rejects a full order exactly when it has
    a trio. Only free-connex queries must build a trio-free order: on others
    the anchor check can fail for a reason of its own."""
    rng = random.Random(71)
    built = rejected = 0
    for _ in range(600):
        q = _random_query_with_existentials(rng)
        order = rng.sample(q.head, rng.choice([len(q.head), rng.randint(0, len(q.head))]))
        brute = _brute_first_trio(q, order)
        assert find_disruptive_trio(q, order) == brute, (q, order)
        if len(order) < len(q.head):
            continue
        if brute is not None:
            with pytest.raises(AssertionError, match="disruptive trio"):
                build_variable_tree(q, order)
            rejected += 1
        elif check_free_connex(q)[1]:
            assert build_variable_tree(q, order).order == tuple(order), (q, order)
            built += 1
    assert built and rejected


def test_complete_order_is_the_first_trio_free_permutation_in_head_order():
    """The determinism contract: the completion is the first trio-free order,
    permuting the unranked variables in head order, or None when none is."""
    rng = random.Random(73)
    for _ in range(300):
        q = _random_query_with_existentials(rng)
        prefix = tuple(rng.sample(q.head, rng.randint(0, 3)))
        rest = [v for v in q.head if v not in prefix]
        want = next((prefix + perm for perm in itertools.permutations(rest)
                     if _brute_first_trio(q, prefix + perm) is None), None)
        assert complete_order(q, prefix) == want, (q, prefix)


def _extension_blocked(placed, y, adj) -> bool:
    """Would appending y create a trio (y as the late variable x3)?"""
    nbrs = adj[y].intersection(placed)
    for x in nbrs:  # nbrs - adj[x] always holds x itself
        if len(nbrs - adj[x]) > 1:
            return True
    return False


def _recursive_complete_order(q, partial):
    """The recursive backtracker that ``complete_order`` replaced, kept as the
    reference for its visiting order."""
    prefix = tuple(partial)
    if find_disruptive_trio(q, prefix) is not None:
        return None
    adj = head_adjacency(q)

    def extend(placed, remaining):
        if not remaining:
            return placed
        for i, v in enumerate(remaining):
            if not _extension_blocked(placed, v, adj):
                done = extend(placed + (v,), remaining[:i] + remaining[i + 1:])
                if done is not None:
                    return done
        return None

    return extend(prefix, tuple(v for v in q.head if v not in prefix))


def _random_hypergraph_query(rng):
    """Atoms of 1 to 3 of up to 8 head variables, with no shape asked of
    them, so the head graph is often not chordal and the query often cyclic."""
    head = tuple(f"V{i}" for i in range(rng.randint(2, 8)))
    atoms = [Atom(f"R{i}", tuple(rng.sample(head, rng.randint(1, min(3, len(head))))))
             for i in range(rng.randint(1, len(head) + 2))]
    missing = tuple(v for v in head if all(v not in a.vars for a in atoms))
    return Query("Q", head, tuple(atoms) + ((Atom("Rx", missing),) if missing else ()))


def test_complete_order_equals_the_recursive_backtracker():
    """The loop over neighbour masks visits the candidates in the recursion's
    order, so both return the same first completion, or both None; the removal
    pass refuses exactly the prefixes the recursion exhausts."""
    rng = random.Random(79)
    completed = failed = 0
    for draw in range(2400):
        q = (_random_query_with_existentials if draw < 1200 else _random_hypergraph_query)(rng)
        prefix = tuple(rng.sample(q.head, rng.randint(0, len(q.head))))
        want = _recursive_complete_order(q, prefix)
        assert complete_order(q, prefix) == want, (q, prefix)
        completed += want is not None
        failed += want is None
    assert completed > 300 and failed > 300


_EDGE = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
_HIDDEN_B = parse_query("Q(A) :- R(A,B), S(B,C).")


@pytest.mark.parametrize("fn", [complete_order, find_disruptive_trio])
@pytest.mark.parametrize("q, prefix, error, var", [
    (_EDGE, ("A", "X"), UnknownVariable, "X"),
    (_EDGE, ("A", "A"), DuplicateVariable, "A"),
    (_HIDDEN_B, ("B",), NonFreeVariable, "B"),
], ids=["unknown", "repeated", "existential"])
def test_a_bad_prefix_variable_raises_check_orders_error(fn, q, prefix, error, var):
    with pytest.raises(error) as exc:
        fn(q, prefix)
    assert exc.value.var == var
    assert fn(q, ()) == (None if fn is find_disruptive_trio else q.head)  # an empty prefix is fine


def _set_based_variable_tree(q, order) -> VariableTree:
    """The set-based ``build_variable_tree`` that the mask-based one replaced,
    kept as the reference for its trees and its two refusals."""
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


def _tree_or_refusal(build, q, order):
    """The tree ``build`` gives, or which of its two checks refused the order."""
    try:
        return build(q, order)
    except AssertionError as exc:
        return next(kind for kind in ("disruptive trio", "no atom covers") if kind in str(exc))


def test_variable_tree_equals_the_set_based_build():
    """On 2 500 random queries, with atoms that hold no head variable or
    repeat one, listed in shuffled order, both builds give the same tree for
    a full order (a completion, or any permutation, trios included), or
    both refuse it by the same check: a trio, or no covering atom on a
    hypergraph that is not conformal."""
    rng = random.Random(83)
    outcomes = Counter()
    for _ in range(2500):
        q = _random_query_with_existentials(rng)
        atoms = list(q.atoms)
        if rng.random() < 0.3:
            atoms.append(Atom("E", tuple(rng.choices(("X0", "X1"), k=rng.randint(1, 2)))))
        if rng.random() < 0.3:
            v = rng.choice(q.head)
            atoms.append(Atom("D", (v, rng.choice(q.head), v)))
        rng.shuffle(atoms)
        q = Query("Q", q.head, tuple(atoms))
        order = rng.sample(q.head, len(q.head))
        if rng.random() < 0.5:
            order = complete_order(q, order[:rng.randint(0, 2)]) or order
        want = _tree_or_refusal(_set_based_variable_tree, q, order)
        assert _tree_or_refusal(build_variable_tree, q, order) == want, (q, order)
        outcomes["tree" if isinstance(want, VariableTree) else want] += 1
    assert min(outcomes[k] for k in ("tree", "disruptive trio", "no atom covers")) > 300, outcomes

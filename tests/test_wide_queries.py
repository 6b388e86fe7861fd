"""Queries with a thousand head variables or atoms: no entry point recurses
once per variable or atom, and the work stays fast where it is local."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cqrank
from cqrank import cli
from cqrank.analysis import JoinTree, analyze, build_variable_tree, find_disruptive_trio, gyo_join_tree
from cqrank.baseline import materialize_and_sort, sort_before_join_access, topk_heap_access
from cqrank.engine import build_index, count_answers
from cqrank.errors import NotRouted
from cqrank.model import AnswerTuple, Atom, Instance, Query, Relation, format_query, parse_order
from cqrank.selection import select


def test_trio_scan_on_a_1000_variable_path():
    """A trio needs two earlier neighbours of one variable, so the scan only
    pairs up each variable's earlier neighbours: on a path, at most one pair
    each, where a scan of every position triple meets about 1.7e8 of them."""
    head = tuple(f"V{i}" for i in range(1000))
    q = Query("Q", head, tuple(Atom(f"R{i}", head[i:i + 2]) for i in range(999)))
    t0 = time.perf_counter()
    assert find_disruptive_trio(q, head) is None
    assert find_disruptive_trio(q, ("V0", "V999", *head[1:999])) == ("V999", "V997", "V998")
    assert build_variable_tree(q, head).order == head
    assert time.perf_counter() - t0 < 2.0


def test_trio_scan_on_one_600_variable_atom():
    """Every variable's earlier neighbours form a clique, so no pair of them
    is looked at: pairing them all up would meet about 3.6e7 pairs."""
    head = tuple(f"V{i}" for i in range(600))
    q = Query("Q", head, (Atom("R", head),))
    t0 = time.perf_counter()
    assert find_disruptive_trio(q, head) is None
    assert time.perf_counter() - t0 < 1.0


def test_gyo_on_2000_atoms_in_any_listed_order():
    """Each pass checks only edges that may be contained, in index order, so
    the order the atoms are listed in does not matter: a scan over all pairs
    per pass took 6.4 s on a 1 100-atom path listed every other edge first."""
    path = [frozenset((f"V{i}", f"V{i + 1}")) for i in range(2000)]
    hub = [frozenset("X")] + [frozenset(("X", f"Y{i}")) for i in range(2000)]
    for edges in (path, path[::2] + path[1::2], path[::-1], hub):
        t0 = time.perf_counter()
        tree = gyo_join_tree(edges)
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(tree, JoinTree) and tree.parent.count(None) == 1
        assert all(edges[i] & edges[p] for i, p in enumerate(tree.parent) if p is not None)


def _path(m):
    """``V0 - V1 - … - V(m-1)``, every edge ``{(0, 0), (1, 1)}``: two answers."""
    head = tuple(f"V{i}" for i in range(m))
    q = Query("Q", head, tuple(Atom(f"E{i}", head[i:i + 2]) for i in range(m - 1)))
    rows = ((0, 0), (1, 1))
    return q, Instance({f"E{i}": Relation(f"E{i}", ("a", "b"), rows) for i in range(m - 1)}), "lex: V0"


def _hub(leaves):
    """``Q(X) :- H(X), L0(X,Y0), …``: one hub atom and many leaf atoms, each
    leaf variable existential; two answers."""
    q = Query("Q", ("X",), (Atom("H", ("X",)),)
              + tuple(Atom(f"L{i}", ("X", f"Y{i}")) for i in range(leaves)))
    rels = {"H": Relation("H", ("x",), ((0,), (1,)))}
    rels.update({f"L{i}": Relation(f"L{i}", ("x", "y"), ((0, 0), (1, 1))) for i in range(leaves)})
    return q, Instance(rels), "lex: X"


def _star(leaves):
    """``Q(C,L0,…) :- E0(C,L0), …``: the centre and every leaf in the head,
    every edge ``{(0, 1), (1, 0), (2, 2)}``: three answers."""
    head = ("C",) + tuple(f"L{i}" for i in range(leaves))
    q = Query("Q", head, tuple(Atom(f"E{i}", ("C", f"L{i}")) for i in range(leaves)))
    rows = ((0, 1), (1, 0), (2, 2))
    return q, Instance({f"E{i}": Relation(f"E{i}", ("c", "l"), rows) for i in range(leaves)}), "lex: L0,L1"


def _path_ends(m):
    """``_path(m)`` under ``lex: V0,V(m-1)``."""
    q, db, _ = _path(m)
    return q, db, f"lex: V0,V{m - 1}"


@pytest.mark.parametrize("shape", [_path_ends, _star], ids=["path-1100-ends", "star-1100-two-leaves"])
def test_wide_order_with_no_completion_is_refused_fast(shape, tmp_path):
    """Two ends of a path, or two leaves of a star, leave a variable between
    them that closes a trio wherever it goes, so no completion exists. The
    removal pass says so without trying an extension; the search alone never
    returned at 1 100 variables. Selection still answers, and agrees with the
    oracle at every rank."""
    q, _, order_text = shape(1100)
    (tmp_path / "q.cq").write_text(format_query(q), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cqrank.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "cqrank.cli", "analyze", "--query", str(tmp_path / "q.cq"),
                          "--order", order_text], env=env, capture_output=True, text=True, timeout=30)
    report = json.loads(out.stdout)
    assert report["routing"]["DirectLex"] == {"ok": False, "reasons": ["no_trio_free_completion"]}
    assert report["routing"]["SingleLex"]["ok"] and report["completed_order"] is None
    q, db, order_text = shape(40)
    o = parse_order(order_text, q)
    oracle = materialize_and_sort(q, db, o)
    assert [select(q, db, o, k, seed=1) for k in range(len(oracle))] == oracle
    with pytest.raises(NotRouted):
        build_index(q, db, o)


def test_selection_on_a_1100_variable_path_recounts_only_what_a_fix_reaches():
    """Each step fixes one variable, narrowing the two atoms that hold it, and
    drops only the messages leading away from them, so the next count
    computes one new message. Re-walking the whole tree per count, with each
    message's side kept as a set, took 1.5-1.8 s; this takes about 0.2 s."""
    q, db, order_text = _path(1100)
    o = parse_order(order_text, q)
    report = analyze(q, o)
    t0 = time.perf_counter()
    assert select(q, db, o, 1, seed=1, report=report) == AnswerTuple(q.head, (1,) * 1100)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("shape", [_path, _hub], ids=["path-1100-variables", "hub-1100-leaves"])
def test_wide_query_through_every_entry_point(shape, tmp_path, capsys):
    """The analyzer, the count, direct access, selection, the three baselines
    and ``cqrank analyze`` each answer, and agree with the oracle."""
    q, db, order_text = shape(1100)
    o = parse_order(order_text, q)
    report = analyze(q, o)
    assert report.routing["DirectLex"].ok and report.completed_order[0] == o.vars[0]
    oracle = materialize_and_sort(q, db, o)
    assert count_answers(q, db) == len(oracle) == 2
    index = build_index(q, db, o)
    assert [index.access(k) for k in range(2)] == oracle
    assert select(q, db, o, 1, seed=1) == oracle[1]
    assert topk_heap_access(q, db, o, 0)[0] == oracle[0]
    if shape is _path:
        assert sort_before_join_access(q, db, o, 1)[0] == oracle[1]
    (tmp_path / "q.cq").write_text(format_query(q), encoding="utf-8")
    assert cli.main(["analyze", "--query", str(tmp_path / "q.cq"), "--order", order_text]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line) == report.to_json_dict()

import itertools
import random
from collections import Counter

import pytest

from cqrank.analysis import DIRECT_LEX, DIRECT_SUM, SINGLE_LEX, SINGLE_SUM, analyze
from cqrank.baseline import (
    _path_start,
    emit_sql,
    materialize_and_sort,
    sort_before_join_access,
    stream_answers,
    topk_heap_access,
)
from cqrank.engine import build_index, count_answers
from cqrank.errors import CqError, InvalidPositions, NotApplicable, NotRouted, OutOfRange, ResultTooLarge
from cqrank.instrument import Stats
from cqrank.model import Atom, Instance, OrderSpec, Query, Relation, parse_order, parse_query
from cqrank.selection import select

from conftest import domain_for, random_acyclic_case, random_instance


def test_materialize_two_path(q2path, db1):
    o = parse_order("lex: A,B,C", q2path)
    got = [a.values for a in materialize_and_sort(q2path, db1, o)]
    assert got == [(1, 1, 10), (1, 2, 20), (1, 2, 30), (2, 1, 10)]


def test_emit_sql_refuses_an_unknown_dialect_and_an_empty_position_list(q2path):
    """Both are ``CqError``s: ``NotApplicable`` names the dialect, and an
    empty position list would emit ``IN ()``, which few SQL engines parse."""
    o = parse_order("lex: A", q2path)
    with pytest.raises(NotApplicable, match="unknown dialect 'mysql'") as info:
        emit_sql(q2path, o, [1], "mysql")
    assert isinstance(info.value, CqError)
    for dialect in ("offset", "cte"):
        with pytest.raises(InvalidPositions):
            emit_sql(q2path, o, [], dialect)


def test_materialize_cyclic_triangle(qtriangle):
    db = Instance({
        "R": Relation("R", ("A", "B"), ((1, 2), (1, 3), (2, 2))),
        "S": Relation("S", ("B", "C"), ((2, 5), (3, 5))),
        "T": Relation("T", ("A", "C"), ((1, 5), (2, 9))),
    })
    o = parse_order("lex: A,B,C", qtriangle)
    got = [a.values for a in materialize_and_sort(qtriangle, db, o)]
    assert got == [(1, 2, 5), (1, 3, 5)]


def test_materialize_sum_order():
    q = parse_query("Q(A,B) :- R(A,B).")
    db = Instance({"R": Relation("R", ("A", "B"), ((1, 5), (2, 2), (3, 1)))})
    got = [a.values for a in materialize_and_sort(q, db, parse_order("sum: A,B", q))]
    assert got == [(2, 2), (3, 1), (1, 5)]


def test_materialize_result_cap(q2path, db1):
    with pytest.raises(ResultTooLarge):
        materialize_and_sort(q2path, db1, parse_order("lex: A,B,C", q2path), cap=2)


def test_stream_bag_semantics(q2path):
    db = Instance({
        "R": Relation("R", ("A", "B"), ((1, 1), (1, 1))),  # duplicate rows stay distinct
        "S": Relation("S", ("B", "C"), ((1, 7),)),
    })
    assert Counter(stream_answers(q2path, db)) == Counter({(1, 1, 7): 2})


def test_topk_heap_examples(q2path, db1):
    o = parse_order("lex: A,B,C", q2path)
    ans, log = topk_heap_access(q2path, db1, o, 1)
    assert ans.values == (1, 2, 20)
    assert log.ran == "TopKHeap" and not log.switched

    ans, log = topk_heap_access(q2path, db1, o, 3)
    assert ans.values == (2, 1, 10)
    assert log.ran == "FullSort" and log.switched and log.reason == "k >= |J|/2"

    with pytest.raises(OutOfRange):
        topk_heap_access(q2path, db1, o, 4)


def test_topk_switch_rule_exact(q2path):
    rng = random.Random(3)
    o = parse_order("lex: A,B,C", q2path)
    db = random_instance(q2path, rng, 8, 3)
    count = len(materialize_and_sort(q2path, db, o))
    for k in range(count):
        _, log = topk_heap_access(q2path, db, o, k)
        assert log.switched == (2 * k >= count), k


def test_topk_matches_oracle_every_k(q2path):
    rng = random.Random(13)
    for _ in range(10):
        db = random_instance(q2path, rng, rng.randint(1, 10), rng.randint(1, 3))
        for text in ("lex: A,B,C", "lex: B", "sum: A,B"):
            o = parse_order(text, q2path)
            oracle = materialize_and_sort(q2path, db, o)
            for k in range(len(oracle)):
                ans, _ = topk_heap_access(q2path, db, o, k)
                assert ans == oracle[k], (text, k)


def test_sort_before_join_examples(q3path):
    db = Instance({
        "R": Relation("R", ("A", "B"), ((1, 1), (1, 2), (2, 1))),
        "S": Relation("S", ("B", "C"), ((1, 10), (2, 20), (2, 30))),
        "T": Relation("T", ("C", "D"), ((10, 7), (20, 8), (30, 9))),
    })
    o = parse_order("lex: B", q3path)
    oracle = materialize_and_sort(q3path, db, o)

    ans, log = sort_before_join_access(q3path, db, o, 0)
    assert ans == oracle[0]
    assert log.emitted <= log.block_size < len(oracle)

    ans, log = sort_before_join_access(q3path, db, o, len(oracle) - 1)
    assert ans == oracle[-1]
    assert log.emitted == len(oracle)

    with pytest.raises(NotApplicable):
        sort_before_join_access(q3path, db, parse_order("lex: A,B", q3path), 0)
    for k in (len(oracle), -1, -len(oracle) - 1):
        with pytest.raises(OutOfRange) as exc:
            sort_before_join_access(q3path, db, o, k)
        assert (exc.value.k, exc.value.count) == (k, len(oracle))


@pytest.mark.parametrize("text", [
    pytest.param("Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D).", id="star"),
    pytest.param("Q(A,B) :- R(A,B), S(B,A).", id="repeated-edge"),
    pytest.param("Q(A,B,C,D) :- R(A,B), S(A,B), T(C,D).", id="repeated-edge-plus-edge"),
    pytest.param("Q(A,B,C,D,E) :- R(A,B), S(B,C), T(C,A), U(D,E).", id="triangle-plus-edge"),
    pytest.param("Q(A,B,C,D) :- R(A,B,C), S(C,D).", id="arity-3"),
    pytest.param("Q(A,B) :- R(A), S(A,B).", id="unary"),
])
def test_sort_before_join_not_applicable(text):
    q = parse_query(text)
    db = random_instance(q, random.Random(5), 4, 2)
    with pytest.raises(NotApplicable):
        sort_before_join_access(q, db, parse_order(f"lex: {q.head[0]}", q), 0)


# path joins in the shapes sort-before-join must accept: column order, atom
# order, repeated variables, self-joins and projection do not change the plan
SBJ_PATHS = [
    "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).",
    "Q(A,B,C,D) :- T(C,D), R(A,B), S(B,C).",  # atoms out of chain order
    "Q(A,B,C,D) :- R(B,A), S(C,B), T(D,C).",  # reversed columns
    "Q(A,B,C,D) :- R(A,B,A), S(B,C), T(C,D).",  # repeated variable
    "Q(A,B,C,D) :- R(A,B), R(B,C), S(C,D).",  # self-join
    "Q(D,B,A) :- R(A,B), S(B,C), T(C,D).",  # projected head
]


@pytest.mark.parametrize("attr", ["A", "B", "C", "D"])
def test_sort_before_join_matches_oracle_every_k(attr):
    rng = random.Random(ord(attr))
    for text in SBJ_PATHS:
        q = parse_query(text)
        if attr not in q.head:
            continue
        o = parse_order(f"lex: {attr}", q)
        for _ in range(8):
            db = random_instance(q, rng, rng.randint(1, 7), rng.randint(1, 3))
            oracle = materialize_and_sort(q, db, o)
            for k in range(len(oracle)):
                ans, log = sort_before_join_access(q, db, o, k)
                assert ans == oracle[k], (text, attr, k)
                assert log.emitted <= len(oracle)


def test_sort_before_join_early_termination(q3path):
    rng = random.Random(71)
    n = 400
    db = random_instance(q3path, rng, n, domain_for(n, "large"))
    o = parse_order("lex: B", q3path)
    total = len(materialize_and_sort(q3path, db, o, cap=10**7))
    _, log = sort_before_join_access(q3path, db, o, 0)
    assert log.emitted == log.block_size  # stopped right at the first block
    assert log.emitted * 4 < total


def test_sort_before_join_two_atom_path(q2path, db1):
    o = parse_order("lex: C", q2path)
    oracle = materialize_and_sort(q2path, db1, o)
    for k in range(len(oracle)):
        ans, _ = sort_before_join_access(q2path, db1, o, k)
        assert ans == oracle[k]


def _closed_cycle(rng, q, orders, db):
    """The draw plus one binary atom ``Z`` over two variables that are
    connected but share no atom, which closes a cycle; cells follow
    ``random_acyclic_case`` (ints in weight columns). None if no pair fits."""
    comp = {v: {v} for a in q.atoms for v in a.vars}
    for a in q.atoms:
        merged = set().union(*(comp[v] for v in a.vars))
        for v in merged:
            comp[v] = merged
    pairs = [(x, y) for x, y in itertools.combinations(sorted(comp), 2)
             if y in comp[x] and not any({x, y} <= a.var_set for a in q.atoms)]
    if not pairs:
        return None
    pair = rng.choice(pairs)
    weights = {v for o in orders if o.kind == "sum" for v in o.vars}
    rows = tuple(tuple(rng.randint(0, 2) if v in weights else rng.choice((0, 1, 2, "a", "b"))
                       for v in pair)
                 for _ in range(rng.randint(0, 6)))
    return (Query(q.name, q.head, q.atoms + (Atom("Z", pair),)),
            Instance({**db.relations, "Z": Relation("Z", ("c0", "c1"), rows)}))


def _probe_bound(index, answer):
    """Binary search over n sorted entries probes at most ⌈log2(n + 1)⌉ =
    ``n.bit_length()`` times: once over a sum order's blocks, then once in
    each group that the answer's own values select."""
    vals = answer.as_dict()
    width = len(index.anchor_vals[0]) if index.cums else 0
    groups = (index.groups[i][tuple(vals[v] for v in index.vtree.nsets[i])]
              for i in range(width, len(index.order)))
    return len(index.cums).bit_length() + sum(len(g.cums).bit_length() for g in groups)


def test_every_answer_channel_matches_the_oracle_on_random_draws():
    """On random acyclic draws and on each draw with a cycle closed: direct
    access and selection equal ``materialize_and_sort`` at every k where
    ``analyze`` routes them and raise ``NotRouted`` where it does not; the
    top-k heap equals it everywhere; ``count_answers`` counts it on acyclic
    queries; and sort-before-join equals it under each single-variable
    order on a path."""
    rng = random.Random(41)
    seen = Counter()
    for _ in range(300):
        q, orders, db = random_acyclic_case(rng)
        cases = [(q, db)]
        if (cyclic := _closed_cycle(rng, q, orders, db)) is not None:
            cases.append(cyclic)
        for q, db in cases:
            acyclic = analyze(q, orders[0]).acyclic
            seen["cyclic"] += not acyclic
            for o in orders:
                want = materialize_and_sort(q, db, o)
                report = analyze(q, o)
                lex = o.kind == "lex"
                if report.routing[DIRECT_LEX if lex else DIRECT_SUM].ok:
                    index = build_index(q, db, o)
                    for k in range(len(want)):
                        stats = Stats()
                        assert index.access(k, stats) == want[k], (q, o, db, k)
                        assert stats.probes <= _probe_bound(index, want[k]), (q, o, db, k)
                    assert index.count == len(want)
                    seen["direct"] += 1
                else:
                    with pytest.raises(NotRouted):
                        build_index(q, db, o)
                    seen["not_direct", acyclic] += 1
                if report.routing[SINGLE_LEX if lex else SINGLE_SUM].ok:
                    got = [select(q, db, o, k, seed=k, report=report) for k in range(len(want))]
                    assert got == want, (q, o, db)
                else:
                    with pytest.raises(NotRouted):
                        select(q, db, o, 0, report=report)
                assert [topk_heap_access(q, db, o, k)[0] for k in range(len(want))] == want, \
                    (q, o, db)
            if acyclic:  # the count is the same under every order
                assert count_answers(q, db) == len(want), (q, db)
            else:
                with pytest.raises(NotRouted):
                    count_answers(q, db)
            if _path_start(q) is None:
                continue
            for v in q.head:
                o = OrderSpec("lex", (v,))
                want = materialize_and_sort(q, db, o)
                got = [sort_before_join_access(q, db, o, k)[0] for k in range(len(want))]
                assert got == want, (q, o, db)
                with pytest.raises(OutOfRange):
                    sort_before_join_access(q, db, o, len(want))
                seen["sort_before_join"] += 1
    assert seen["direct"] >= 400 and seen["not_direct", True] >= 15, seen
    assert seen["cyclic"] >= 50 and seen["sort_before_join"] >= 40, seen

import random
from collections import Counter

import pytest

from cqrank.baseline import (
    materialize_and_sort,
    sort_before_join_access,
    stream_answers,
    topk_heap_access,
)
from cqrank.errors import NotApplicable, OutOfRange, ResultTooLarge
from cqrank.model import Instance, Relation, parse_order, parse_query

from conftest import domain_for, random_instance


def test_materialize_two_path(q2path, db1):
    o = parse_order("lex: A,B,C", q2path)
    got = [a.values for a in materialize_and_sort(q2path, db1, o)]
    assert got == [(1, 1, 10), (1, 2, 20), (1, 2, 30), (2, 1, 10)]


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

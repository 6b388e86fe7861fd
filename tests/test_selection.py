import builtins
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqrank.analysis import DIRECT_LEX, DIRECT_SUM, SINGLE_LEX, SINGLE_SUM, analyze
from cqrank.baseline import materialize_and_sort
from cqrank.engine import build_index, preprocess_lex, preprocess_sum
from cqrank.errors import NotRouted, OutOfRange, UnknownVariable
from cqrank.instrument import Stats
from cqrank.model import Instance, Relation, parse_order, parse_query, value_key
from cqrank.selection import (
    conditional_value_counts,
    select,
    select_lex,
    select_sum,
    weighted_select,
)

from conftest import random_acyclic_case, random_instance


def test_conditional_value_counts_examples(q2path, db1):
    assert dict(conditional_value_counts(q2path, db1, {}, "A")) == {1: 3, 2: 1}
    assert dict(conditional_value_counts(q2path, db1, {"A": 1}, "B")) == {1: 1, 2: 2}
    assert conditional_value_counts(q2path, db1, {"A": 3}, "B") == []


def test_conditional_value_counts_rejects_unknown_variables(q2path, db1):
    for fixed, x, unknown in (({}, "Z", "Z"), ({"Z": 1}, "B", "Z"), ({"A": 1, "Y": 2}, "Z", "Y")):
        with pytest.raises(UnknownVariable) as info:
            conditional_value_counts(q2path, db1, fixed, x)
        assert repr(unknown) in str(info.value)


def test_each_engine_refuses_the_other_order_kind(q2path, db1):
    """A mode serves only its own order kind (``order_kind_mismatch``);
    ``select`` picks the mode by the order's kind."""
    lex, sum_ = parse_order("lex: A,B,C", q2path), parse_order("sum: B,C", q2path)
    lex_report, sum_report = analyze(q2path, lex), analyze(q2path, sum_)
    for call in (lambda: select_lex(q2path, db1, sum_, 0),
                 lambda: select_sum(q2path, db1, lex, 0),
                 lambda: preprocess_lex(q2path, db1, sum_report),
                 lambda: preprocess_sum(q2path, db1, lex_report)):
        with pytest.raises(NotRouted) as info:
            call()
        assert info.value.reasons == ("order_kind_mismatch",)
    for o, own in ((lex, select_lex), (sum_, select_sum)):
        assert [select(q2path, db1, o, k, seed=k) for k in range(4)] == \
            [own(q2path, db1, o, k, seed=k) for k in range(4)]


def test_select_refuses_a_report_for_another_order(q2path, db1):
    """A report routes and ranks under its own order, so ``select`` refuses
    one made for another order (``report_for_another_order``) rather than
    rank under the report's order."""
    lex, sum_ = parse_order("lex: A,B,C", q2path), parse_order("sum: B,C", q2path)
    for o, other in ((lex, parse_order("lex: C,B,A", q2path)), (sum_, parse_order("sum: C", q2path))):
        with pytest.raises(NotRouted) as info:
            select(q2path, db1, o, 1, report=analyze(q2path, other))
        assert info.value.reasons == ("report_for_another_order",)
    assert select(q2path, db1, lex, 1, report=analyze(q2path, lex)).values == (1, 2, 20)


def test_conditional_value_counts_first_occurrence_order(q2path, db1):
    assert [v for v, _ in conditional_value_counts(q2path, db1, {}, "A")] == [1, 2]


def test_weighted_select_examples():
    items = [(1, 1), (2, 4), (3, 2)]
    rng = random.Random(0)
    assert weighted_select(items, 0, rng) == (1, 0)
    assert weighted_select(items, 3, rng) == (2, 2)
    assert weighted_select(items, 6, rng) == (3, 1)
    with pytest.raises(OutOfRange):
        weighted_select(items, 7, rng)
    with pytest.raises(OutOfRange):
        weighted_select(items, -1, rng)


def _select_oracle(items, k):
    merged: dict = {}
    for v, w in items:
        merged[v] = merged.get(v, 0) + w
    for v, w in sorted(merged.items(), key=lambda it: value_key(it[0])):
        if k < w:
            return v, k
        k -= w
    raise AssertionError


def test_weighted_select_matches_sort_walk_bulk():
    rng = random.Random(99)
    for _ in range(10_000):
        m = rng.randint(1, 8)
        items = [(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
        total = sum(w for _, w in items)
        k = rng.randrange(total)
        assert weighted_select(items, k, rng) == _select_oracle(items, k)


def _keyed_per_round_select(items, k, rng, key=value_key):
    """``weighted_select`` as it was before each key was computed once: the
    key of every item is taken again in every partition round."""
    work = list(items)
    while True:
        pivot = work[rng.randrange(len(work))][0]
        lt = [(v, w) for v, w in work if key(v) < key(pivot)]
        gt = [(v, w) for v, w in work if key(v) > key(pivot)]
        wlt = sum(w for _, w in lt)
        weq = sum(w for v, w in work if key(v) == key(pivot))
        if k < wlt:
            work = lt
        elif k < wlt + weq:
            return pivot, k - wlt
        else:
            k, work = k - wlt - weq, gt


@pytest.mark.parametrize("kind", ["int", "str", "mixed"])
def test_weighted_select_keys_once_and_keeps_its_pivot_draws(kind):
    """Equal to the sorted walk for random weighted items, with the same
    random draws as the per-round keying, and ``key`` called once per item."""
    draw = {
        "int": lambda rng: rng.randint(-30, 30),
        "str": lambda rng: rng.choice("abcdefgh") * rng.randint(1, 2),
        "mixed": lambda rng: rng.choice([rng.randint(-9, 9), rng.choice("xyz")]),
    }[kind]
    keyed = []

    def key(v):
        keyed.append(v)
        return value_key(v)

    for seed in range(400):
        rng = random.Random(seed)
        items = [(draw(rng), rng.randint(1, 5)) for _ in range(rng.randint(1, 40))]
        k = rng.randrange(sum(w for _, w in items))
        mine, theirs = random.Random(seed), random.Random(seed)
        keyed.clear()
        assert weighted_select(items, k, mine, key=key) == _select_oracle(items, k)
        assert len(keyed) == len(items)
        assert _keyed_per_round_select(items, k, theirs) == _select_oracle(items, k)
        assert mine.getstate() == theirs.getstate()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_weighted_select_property(data):
    vals = st.one_of(st.integers(-9, 9), st.text(max_size=2))
    items = data.draw(
        st.lists(st.tuples(vals, st.integers(1, 5)), min_size=1, max_size=8)
    )
    total = sum(w for _, w in items)
    k = data.draw(st.integers(0, total - 1))
    assert weighted_select(items, k, random.Random(0)) == _select_oracle(items, k)


def test_select_lex_examples(q2path, db1):
    o = parse_order("lex: A,B,C", q2path)
    assert select_lex(q2path, db1, o, 2, seed=1).as_dict() == {"A": 1, "B": 2, "C": 30}
    oc = parse_order("lex: A,C,B", q2path)
    assert select_lex(q2path, db1, oc, 1, seed=1).as_dict() == {"A": 1, "B": 2, "C": 20}
    with pytest.raises(OutOfRange):
        select_lex(q2path, db1, o, 4, seed=1)


def test_select_lex_not_routed(qproj, db1):
    with pytest.raises(NotRouted):
        select_lex(qproj, db1, parse_order("lex: A,C", qproj), 0)


def test_select_sum_examples(q2path):
    q = parse_query("Q(A,B) :- R(A,B).")
    db = Instance({"R": Relation("R", ("A", "B"), ((1, 5), (2, 2), (3, 1)))})
    o = parse_order("sum: A,B", q)
    assert select_sum(q, db, o, 1, seed=2).values == (3, 1)
    with pytest.raises(OutOfRange):
        select_sum(q, db, o, 3, seed=2)

    db2 = Instance({
        "R": Relation("R", ("A", "B"), ((1, 1), (2, 2))),
        "S": Relation("S", ("B", "C"), ((1, 10), (2, 5))),
    })
    o2 = parse_order("sum: B,C", q2path)
    assert select_sum(q2path, db2, o2, 0, seed=0).as_dict() == {"A": 2, "B": 2, "C": 5}
    with pytest.raises(NotRouted):
        select_sum(q2path, db2, parse_order("sum: A,C", q2path), 0)


def test_select_agrees_with_direct_access(q3path):
    rng = random.Random(31)
    for _ in range(12):
        db = random_instance(q3path, rng, rng.randint(1, 9), rng.randint(1, 3))
        for text in ("lex: A,B,C,D", "lex: B", "sum: C,D"):
            o = parse_order(text, q3path)
            report = analyze(q3path, o)
            ix = build_index(q3path, db, o)
            for k in range(ix.count):
                assert select(q3path, db, o, k, seed=rng.randint(0, 99), report=report) == ix.access(k)


def test_select_lex_trio_orders_match_oracle(q2path):
    rng = random.Random(37)
    o = parse_order("lex: A,C,B", q2path)
    for _ in range(15):
        db = random_instance(q2path, rng, rng.randint(1, 10), rng.randint(1, 3))
        oracle = materialize_and_sort(q2path, db, o)
        for k in range(len(oracle)):
            assert select_lex(q2path, db, o, k, seed=k) == oracle[k]


def test_select_seed_independent_results(q2path, db1):
    o = parse_order("lex: A,B,C", q2path)
    fixed = [select_lex(q2path, db1, o, k, seed=0) for k in range(4)]
    for seed in (1, 7, 12345, None):
        assert [select_lex(q2path, db1, o, k, seed=seed) for k in range(4)] == fixed


def test_selection_never_sorts(q2path, db1, monkeypatch):
    calls = []
    real = builtins.sorted

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    report = analyze(q2path, parse_order("lex: A,B,C", q2path))
    sreport = analyze(q2path, parse_order("sum: B,C", q2path))
    monkeypatch.setattr(builtins, "sorted", spy)
    for k in range(4):
        select_lex(q2path, db1, parse_order("lex: A,B,C", q2path), k, seed=k, report=report)
    select_sum(q2path, db1, parse_order("sum: B,C", q2path), 0, seed=0, report=sreport)
    assert calls == []


def test_selection_source_has_no_sort_calls():
    import cqrank.selection as mod
    src = Path(mod.__file__).read_text()
    assert "sorted(" not in src
    assert ".sort(" not in src
    assert "heapq" not in src


def test_select_work_bound(q3path):
    rng = random.Random(43)
    db = random_instance(q3path, rng, 200, 20)
    o = parse_order("lex: A,B,C,D", q3path)
    report = analyze(q3path, o)
    ix = preprocess_lex(q3path, db, report)
    n_total = sum(len(r.rows) for r in db.relations.values())
    f = len(q3path.head)
    for k in (0, ix.count // 2, ix.count - 1):
        stats = Stats()
        select_lex(q3path, db, o, k, seed=0, stats=stats, report=report)
        assert stats.rows_touched <= 8 * f * n_total


# consecutive variables sit in different atoms, so each step both reuses
# cached counting messages and drops the ones a narrowed table fed
NARROWING_ORDERS = [
    ("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).", ("lex: A,C,B,D", "lex: D,A,C,B", "lex: A,D,B", "sum: C,D")),
    ("Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D).", ("lex: B,C,D,A", "lex: D,B,A,C", "lex: C,D", "sum: A,C")),
]


@pytest.mark.parametrize("query_text,orders", NARROWING_ORDERS)
def test_narrowing_selection_matches_oracle(query_text, orders):
    q = parse_query(query_text)
    rng = random.Random(59)
    for _ in range(25):
        db = random_instance(q, rng, rng.randint(1, 12), rng.randint(1, 4))
        for text in orders:
            o = parse_order(text, q)
            report = analyze(q, o)
            oracle = materialize_and_sort(q, db, o)
            got = [select(q, db, o, k, seed=k, report=report) for k in range(len(oracle))]
            assert got == oracle, (text, db)


def test_selection_counts_rows_once_per_call(q3path, monkeypatch):
    import cqrank.engine as engine
    import cqrank.selection as selection

    calls = []
    real_bind, real_init = selection.bound_atoms, engine.CountingTree.__init__

    def spy_bind(q, db):
        bound = real_bind(q, db)
        calls.append(("bind", [len(b.rows) for b in bound]))
        return bound

    def spy_init(self, *args, **kwargs):
        calls.append(("tree",))
        real_init(self, *args, **kwargs)

    db = random_instance(q3path, random.Random(61), 30, 4)
    monkeypatch.setattr(selection, "bound_atoms", spy_bind)
    monkeypatch.setattr(engine.CountingTree, "__init__", spy_init)
    sizes = [len(db.relations[a.relation].rows) for a in q3path.atoms]
    for text in ("lex: A,C,B,D", "sum: C,D"):
        o = parse_order(text, q3path)
        report = analyze(q3path, o)
        for k in (0, 7):
            calls.clear()
            select(q3path, db, o, k, seed=k, report=report)
            assert calls == [("bind", sizes), ("tree",)], text


def test_selection_matches_oracle_on_random_acyclic_queries():
    """``select`` returns the oracle's tuple at every rank on random acyclic
    queries, including orders with a disruptive trio (which only selection
    serves) and relations holding duplicate rows."""
    rng = random.Random(29)
    seen = Counter()
    for _ in range(400):
        q, orders, db = random_acyclic_case(rng)
        # a full lex order over a shuffled head: on a path, often a trio
        orders.append(parse_order("lex: " + ",".join(rng.sample(q.head, len(q.head))), q))
        dups = any(len(set(r.rows)) < len(r.rows) for r in db.relations.values())
        for o in orders:
            lex = o.kind == "lex"
            report = analyze(q, o)
            if not report.routing[SINGLE_LEX if lex else SINGLE_SUM].ok:
                with pytest.raises(NotRouted):
                    select(q, db, o, 0, report=report)
                continue
            want = materialize_and_sort(q, db, o)
            got = [select(q, db, o, k, seed=k, report=report) for k in range(len(want))]
            assert got == want, (q, o, db)
            with pytest.raises(OutOfRange):
                select(q, db, o, len(want), report=report)
            direct = report.routing[DIRECT_LEX if lex else DIRECT_SUM]
            seen[o.kind] += 1
            seen["trio"] += bool({"disruptive_trio", "no_trio_free_completion"} & set(direct.reasons))
            seen["duplicates"] += dups and bool(want)
    assert seen["lex"] >= 400 and seen["sum"] >= 150, seen
    assert seen["trio"] >= 15 and seen["duplicates"] >= 100, seen

import json
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import cqrank
from cqrank.analysis import DIRECT_LEX, DIRECT_SUM, analyze
from cqrank.baseline import emit_sql, materialize_and_sort, sort_before_join_access, topk_heap_access
from cqrank.engine import build_index, build_reduced_db
from cqrank.errors import InvalidPositions, NotRouted, OutOfRange
from cqrank.instrument import Stats
from cqrank.model import Instance, Relation, parse_order, parse_query
from cqrank.selection import select

from conftest import domain_for, random_acyclic_case, random_instance


def _lex_index(q, db, text):
    o = parse_order(text, q)
    return build_index(q, db, o), o


def test_preprocess_two_path_count(q2path, db1):
    ix, _ = _lex_index(q2path, db1, "lex: A,B,C")
    assert ix.count == 4


def test_preprocess_empty_relation(q2path, db1):
    db = Instance({"R": db1.relations["R"], "S": Relation("S", ("B", "C"), ())})
    ix, _ = _lex_index(q2path, db, "lex: A,B,C")
    assert ix.count == 0
    rdb = build_reduced_db(q2path, db)
    assert all(not a.rows for a in rdb.atoms)
    with pytest.raises(OutOfRange):
        ix.access(0)


def test_reduced_db_projection_multiplicities():
    q = parse_query("Qp(A,B) :- R(A,B), S(B,C).")
    db = Instance({
        "R": Relation("R", ("A", "B"), ((1, 1), (1, 2), (2, 1))),
        "S": Relation("S", ("B", "C"), ((1, 10), (2, 20))),
    })
    ix, _ = _lex_index(q, db, "lex: A,B")
    assert ix.count == 3  # one extension per B value


def _bag_join(rdb, head):
    """Independent oracle for the reduced-DB invariant: weighted natural join."""
    results = [({}, 1)]
    for atom in rdb.atoms:
        nxt = []
        for assign, mult in results:
            for row, m in atom.rows.items():
                merged = dict(assign)
                ok = True
                for v, val in zip(atom.vars, row):
                    if merged.get(v, val) != val:
                        ok = False
                        break
                    merged[v] = val
                if ok:
                    nxt.append((merged, mult * m))
        results = nxt
    return Counter(
        tuple(assign[v] for v in head) for assign, mult in results for _ in range(mult)
    )


def test_reduced_db_invariants_random(q2path):
    rng = random.Random(41)
    for _ in range(40):
        n, d = rng.randint(1, 8), rng.randint(1, 3)
        db = random_instance(q2path, rng, n, d)
        rdb = build_reduced_db(q2path, db)
        oracle = Counter(
            a.values for a in materialize_and_sort(q2path, db, parse_order("lex: A,B,C", q2path))
        )
        assert _bag_join(rdb, q2path.head) == oracle
        assert all(m >= 1 for a in rdb.atoms for m in a.rows.values())
        # every reduced row participates in at least one answer
        for atom in rdb.atoms:
            for row in atom.rows:
                assert any(
                    all(ans[q2path.head.index(v)] == val for v, val in zip(atom.vars, row))
                    for ans in oracle
                ), (atom.vars, row)


def _general_combine(self, u, out_vars, toward):
    """``CountingTree._combine`` with no pass-through and no pruning: every
    row of the bag weighs 1 and is keyed. The messages' flags are ignored."""
    key = self.key(u, out_vars)
    kids = [(self.key(u, self.separator(u, c)), self._cache[c, u][1])
            for c in self.tree.adjacent[u] if c != toward]
    out = {}
    for row in self.tables[u]:
        w = 1
        for kkey, m in kids:
            w *= m.get(kkey(row), 0)
        if w:
            out[key(row)] = out.get(key(row), 0) + w
    return out


@pytest.mark.parametrize("text,passes", [
    ("Q(A,B,C) :- R(B,A), S(B,C).", [False, True]),  # R's columns out of head order
    ("Q(A,B) :- R(A,A,B).", [True]),                 # repeated variable
    ("Q(A,B) :- R(A,B), S(B,C), T(C,D).", [True, False, False]),  # projected head
])
def test_leaf_tables_pass_through_the_head_messages(text, passes, monkeypatch):
    from cqrank.engine import CountingTree

    q = parse_query(text)
    real_combine, real_key = CountingTree._combine, CountingTree.key
    keyed, passed = [0], {}

    def spy_key(self, u, wanted):
        keyed[0] += 1
        return real_key(self, u, wanted)

    def spy_combine(self, u, *args):
        before = keyed[0]
        out = real_combine(self, u, *args)
        passed[u] = keyed[0] == before  # no row was keyed
        return out

    rng = random.Random(63)
    for _ in range(10):
        db = random_instance(q, rng, rng.randint(0, 12), 3)
        with monkeypatch.context() as m:
            m.setattr(CountingTree, "_combine", _general_combine)
            want = build_reduced_db(q, db)
        with monkeypatch.context() as m:
            m.setattr(CountingTree, "key", spy_key)
            m.setattr(CountingTree, "_combine", spy_combine)
            passed.clear()
            got = build_reduced_db(q, db)
        assert [(a.vars, list(a.rows.items())) for a in got.atoms] == \
            [(a.vars, list(a.rows.items())) for a in want.atoms], db
        assert [passed.get(u, False) for u in range(len(q.atoms))] == passes


def test_direct_access_matches_oracle_on_random_acyclic_queries():
    """Every routed (query, order) pair returns the oracle's tuple at every
    rank, on instances where many rows dangle."""
    rng = random.Random(7)
    routed = Counter()
    for _ in range(400):
        q, orders, db = random_acyclic_case(rng)
        for o in orders:
            if not analyze(q, o).routing[DIRECT_LEX if o.kind == "lex" else DIRECT_SUM].ok:
                continue
            routed[o.kind] += 1
            ix = build_index(q, db, o)
            want = materialize_and_sort(q, db, o)
            assert [ix.access(k) for k in range(ix.count)] == want, (q, o, db)
            with pytest.raises(OutOfRange):
                ix.access(len(want))
    assert routed["lex"] >= 200 and routed["sum"] >= 100, routed


def test_direct_access_examples(q2path, db1):
    ix, _ = _lex_index(q2path, db1, "lex: A,B,C")
    assert ix.access(0).as_dict() == {"A": 1, "B": 1, "C": 10}
    assert ix.access(2).as_dict() == {"A": 1, "B": 2, "C": 30}
    with pytest.raises(OutOfRange):
        ix.access(4)
    with pytest.raises(OutOfRange):
        ix.access(-1)


@pytest.mark.parametrize("k", [1.5, True, "1"])
def test_a_rank_that_is_not_an_int_is_refused_by_every_channel(q2path, db1, k):
    """Direct access, selection (lex and sum), both baselines and both SQL
    dialects raise ``InvalidPositions`` for a float, a bool or a str rank."""
    lex, sum_ = parse_order("lex: B", q2path), parse_order("sum: B,C", q2path)
    ix = build_index(q2path, db1, lex)
    calls = {
        "access": lambda: ix.access(k),
        "select lex": lambda: select(q2path, db1, lex, k, seed=0),
        "select sum": lambda: select(q2path, db1, sum_, k, seed=0),
        "top-k": lambda: topk_heap_access(q2path, db1, lex, k),
        "sort-before-join": lambda: sort_before_join_access(q2path, db1, lex, k),
        "offset sql": lambda: emit_sql(q2path, lex, [k], "offset"),
        "cte sql": lambda: emit_sql(q2path, lex, [0, k], "cte"),
    }
    for name, call in calls.items():
        with pytest.raises(InvalidPositions, match="integers"):
            call()
            pytest.fail(f"{name} answered rank {k!r}")


def test_answer_count_examples(q2path, db1):
    ix, _ = _lex_index(q2path, db1, "lex: A,B,C")
    assert ix.count == 4
    q = parse_query("Q(A,B) :- R(A), S(B).")
    db = Instance({
        "R": Relation("R", ("A",), tuple((i,) for i in range(3))),
        "S": Relation("S", ("B",), tuple((i,) for i in range(5))),
    })
    ix, _ = _lex_index(q, db, "lex: A,B")
    assert ix.count == 15


def test_not_routed(q2path, db1):
    o = parse_order("lex: A,C,B", q2path)
    with pytest.raises(NotRouted):
        build_index(q2path, db1, o)


@pytest.mark.parametrize("order_text", ["lex: A,B,C", "lex: B", "lex: C"])
def test_oracle_equivalence_random(q2path, order_text):
    rng = random.Random(hash(order_text) % 1000)
    for _ in range(25):
        n = rng.randint(1, 14)
        db = random_instance(q2path, rng, n, domain_for(n, rng.choice(["large", "small"])))
        o = parse_order(order_text, q2path)
        report = analyze(q2path, o)
        if not report.routing["DirectLex"].ok:
            continue
        ix = build_index(q2path, db, o, report=report)
        oracle = materialize_and_sort(q2path, db, o)
        assert ix.count == len(oracle)
        got = [ix.access(k) for k in range(ix.count)]
        assert got == oracle                      # every k, exact tuples
        assert Counter(a.values for a in got) == Counter(a.values for a in oracle)
        keys = [a.values for a in got]
        # monotone under the order (oracle is sorted; equality above implies it)
        assert keys == [a.values for a in oracle]


def test_count_boundary_property(q2path):
    rng = random.Random(5)
    for _ in range(20):
        db = random_instance(q2path, rng, rng.randint(0, 10), 3)
        ix, _ = _lex_index(q2path, db, "lex: A,B,C")
        c = ix.count
        with pytest.raises(OutOfRange):
            ix.access(c)
        if c > 0:
            ix.access(c - 1)


@pytest.mark.parametrize("order_text", ["lex: A,B,C", "lex: C,B,A", "lex: B,A,C"])
def test_mixed_int_str_groups_match_oracle(q2path, order_text):
    cells = [1, 2, 3, 4, "x1", "x2", "x3", "x4"]
    o = parse_order(order_text, q2path)
    report = analyze(q2path, o)
    mixed = 0
    for seed in range(200):
        rng = random.Random(seed)
        db = Instance({
            name: Relation(name, cols, tuple((rng.choice(cells), rng.choice(cells)) for _ in range(12)))
            for name, cols in (("R", ("A", "B")), ("S", ("B", "C")))
        })
        oracle = materialize_and_sort(q2path, db, o)
        for counted in (False, True):
            ix = build_index(q2path, db, o, report=report, count_comparisons=counted)
            assert [ix.access(k) for k in range(ix.count)] == oracle, (seed, counted)
        mixed += any(len(set(map(type, g.values))) > 1 for gm in ix.groups for g in gm.values())
    assert mixed  # some group held an int and a str, so the value_key fallback ran


@pytest.mark.parametrize("order_text", ["lex: A,B,C,D", "lex: B,C,A,D", "lex: D,C,B,A"])
def test_counted_build_matches_plain(q3path, order_text):
    db = random_instance(q3path, random.Random(17), 300, domain_for(300, "large"))
    o = parse_order(order_text, q3path)
    report = analyze(q3path, o)
    plain = build_index(q3path, db, o, report=report)
    counted = build_index(q3path, db, o, report=report, count_comparisons=True)
    assert counted.build_stats.comparisons > 0
    assert [gm.keys() for gm in plain.groups] == [gm.keys() for gm in counted.groups]
    for pg, cg in zip(plain.groups, counted.groups):
        for nu, grp in pg.items():
            assert (grp.values, grp.cums) == (cg[nu].values, cg[nu].cums), nu


def test_sum_single_atom_example():
    q = parse_query("Q(A,B) :- R(A,B).")
    db = Instance({"R": Relation("R", ("A", "B"), ((1, 5), (2, 2), (3, 1)))})
    o = parse_order("sum: A,B", q)
    ix = build_index(q, db, o)
    got = [ix.access(k).values for k in range(ix.count)]
    assert got == [(2, 2), (3, 1), (1, 5)]  # sums 4,4,6; ties by tuple
    assert ix.access(0).values == (2, 2)
    # the anchor covers every head variable, so the descent runs zero levels
    assert ix.anchor_vals == [(2, 2), (3, 1), (1, 5)] and ix.cums == [1, 2, 3]
    with pytest.raises(OutOfRange):
        ix.access(3)


def test_sum_two_path_anchor(q2path):
    db = Instance({
        "R": Relation("R", ("A", "B"), ((1, 1), (2, 2))),
        "S": Relation("S", ("B", "C"), ((1, 10), (2, 5))),
    })
    o = parse_order("sum: B,C", q2path)
    report = analyze(q2path, o)
    assert report.sum_anchor == 1
    ix = build_index(q2path, db, o, report=report)
    assert ix.access(0).as_dict() == {"A": 2, "B": 2, "C": 5}


def test_sum_not_routed(q2path, db1):
    o = parse_order("sum: A,C", q2path)
    with pytest.raises(NotRouted):
        build_index(q2path, db1, o)


@pytest.mark.parametrize("shape,orders", [
    ("Q(A,B,C) :- R(A,B), S(B,C).", ["sum: A,B", "sum: B,C", "sum: B"]),
    ("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).", ["sum: C,D", "sum: B"]),
])
def test_sum_oracle_equivalence_random(shape, orders):
    q = parse_query(shape)
    rng = random.Random(len(shape))
    for _ in range(15):
        n = rng.randint(1, 10)
        db = random_instance(q, rng, n, rng.randint(1, 4))
        for text in orders:
            o = parse_order(text, q)
            ix = build_index(q, db, o)
            oracle = materialize_and_sort(q, db, o)
            assert ix.count == len(oracle)
            assert [ix.access(k) for k in range(ix.count)] == oracle


def test_preprocess_sum_binds_and_counts_once(q3path, monkeypatch):
    import cqrank.engine as engine

    calls = []
    real_bind, real_tree = engine.bound_atoms, engine.atom_tree

    def spy_bind(q, db):
        calls.append("bound_atoms")
        return real_bind(q, db)

    def spy_tree(q, bound, mode):
        calls.append("atom_tree")
        return real_tree(q, bound, mode)

    monkeypatch.setattr(engine, "bound_atoms", spy_bind)
    monkeypatch.setattr(engine, "atom_tree", spy_tree)
    db = random_instance(q3path, random.Random(62), 30, 4)
    for text in ("sum: C,D", "sum: B"):
        o = parse_order(text, q3path)
        report = analyze(q3path, o)
        calls.clear()
        ix = build_index(q3path, db, o, report=report)
        assert calls == ["bound_atoms", "atom_tree"], text
        assert [ix.access(k) for k in range(ix.count)] == materialize_and_sort(q3path, db, o)


def test_group_prefix_sums_strictly_increase(q2path, db1):
    ix, _ = _lex_index(q2path, db1, "lex: A,B,C")
    for gm in ix.groups:
        for grp in gm.values():
            assert all(b > a for a, b in zip(grp.cums, grp.cums[1:]))
            assert grp.cums[0] > 0


def test_probe_bound(q3path):
    rng = random.Random(9)
    db = random_instance(q3path, rng, 400, domain_for(400, "large"))
    ix, _ = _lex_index(q3path, db, "lex: A,B,C,D")
    f = len(q3path.head)
    n = ix.max_group_size
    bound = f * ((n + 1).bit_length() + 2)
    for k in range(0, ix.count, max(1, ix.count // 50)):
        st = Stats()
        ix.access(k, st)
        assert st.probes <= bound


def test_concurrent_access_consistency(q2path, db1):
    indexes = [build_index(q2path, db1, parse_order(text, q2path))
               for text in ("lex: A,B,C", "sum: B,C")]
    assert indexes[1].cums  # the sum index reads its block level too
    expected = [[ix.access(k) for k in range(ix.count)] for ix in indexes]
    errors = []

    def worker():
        try:
            for _ in range(200):
                for ix, want in zip(indexes, expected):
                    for k in range(ix.count):
                        if ix.access(k) != want[k]:
                            errors.append(k)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_the_kernel_never_copies_or_mutates_a_relations_rows(q3path):
    """A counting tree's tables are the relations' own row tuples, and no
    engine entry point, alone or from concurrent threads, changes them."""
    from cqrank.analysis import SINGLE_LEX
    from cqrank.engine import atom_tree
    from cqrank.model import bound_atoms

    db = random_instance(q3path, random.Random(67), 40, 3)
    before = {n: (r.rows, list(r.rows)) for n, r in db.relations.items()}

    def unchanged():
        return all(r.rows is before[n][0] and list(r.rows) == before[n][1]
                   for n, r in db.relations.items())

    bound = bound_atoms(q3path, db)
    ct = atom_tree(q3path, bound, SINGLE_LEX)
    assert all(ct.tables[u] is b.rows is db.relations[a.relation].rows
               for u, (b, a) in enumerate(zip(bound, q3path.atoms)))
    assert all(len(set(b.rows)) < len(b.rows) for b in bound)  # bags, not sets

    orders = {t: parse_order(t, q3path) for t in ("lex: A,C,B,D", "sum: C,D", "lex: A,B,C,D")}
    calls = [
        lambda: [select(q3path, db, orders["lex: A,C,B,D"], k, seed=k) for k in (0, 99)],
        lambda: [select(q3path, db, orders["sum: C,D"], k, seed=k) for k in (0, 99)],
        lambda: build_index(q3path, db, orders["lex: A,B,C,D"]).access(99),
        lambda: build_index(q3path, db, orders["sum: C,D"]).access(99),
    ]
    expected = []
    for call in calls:
        expected.append(call())
        assert unchanged()
    errors = []

    def worker():
        try:
            for _ in range(5):
                errors.extend(i for i, call in enumerate(calls) if call() != expected[i])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and not errors
    assert unchanged()


def test_build_index_dispatches_by_order_kind(q2path, db1):
    from cqrank.engine import AccessIndex

    ix = build_index(q2path, db1, parse_order("lex: A,B,C", q2path))
    assert isinstance(ix, AccessIndex) and ix.count == 4
    assert ix.anchor_vals == [] and ix.cums == []
    sx = build_index(q2path, db1, parse_order("sum: B,C", q2path))
    assert isinstance(sx, AccessIndex) and sx.count == 4
    assert sx.cums[-1] == sx.count and len(sx.anchor_vals) == len(sx.cums)


def test_build_index_refuses_a_report_for_another_order_and_reuses_its_own(q2path, db1, monkeypatch):
    """As ``select`` does, ``build_index`` refuses a report made for another
    order (``report_for_another_order``), and runs no analysis when it is
    given the order's own report."""
    import cqrank.engine as engine

    lex, sum_ = parse_order("lex: A,B,C", q2path), parse_order("sum: B,C", q2path)
    for o, other, mode in ((lex, parse_order("lex: C,B,A", q2path), DIRECT_LEX),
                           (sum_, parse_order("sum: C", q2path), DIRECT_SUM)):
        with pytest.raises(NotRouted) as info:
            build_index(q2path, db1, o, report=analyze(q2path, other))
        assert (info.value.mode, info.value.reasons) == (mode, ("report_for_another_order",))
    reports, calls = {o: analyze(q2path, o) for o in (lex, sum_)}, []
    monkeypatch.setattr(engine, "analyze", lambda *args: calls.append(args) or analyze(*args))
    for o, report in reports.items():
        assert build_index(q2path, db1, o, report=report).count == 4
    assert calls == []
    build_index(q2path, db1, lex)
    assert calls == [(q2path, lex)]


def test_the_kept_aliases_are_the_two_entries(q2path, db1):
    """``preprocess_lex`` and ``select_lex`` stay importable, outside
    ``__all__``, for the benchmark harness; each reaches its entry for
    either order kind."""
    from cqrank.engine import preprocess_lex
    from cqrank.selection import select_lex

    assert select_lex is select
    assert {"preprocess_lex", "preprocess_sum", "select_lex", "select_sum"}.isdisjoint(cqrank.__all__)
    for text in ("lex: A,B,C", "sum: B,C"):
        report = analyze(q2path, parse_order(text, q2path))
        kept, entry = preprocess_lex(q2path, db1, report), build_index(q2path, db1, report.order)
        assert kept.count == entry.count == 4
        assert [{nu: (g.values, g.cums) for nu, g in gm.items()} for gm in kept.groups] == \
            [{nu: (g.values, g.cums) for nu, g in gm.items()} for gm in entry.groups]


_OPTIMIZED_CHECKS = '''
import json
from cqrank.bench import GenConfig, _Runner, bench_query, generate_instance
from cqrank.engine import build_reduced_db
from cqrank.model import AnswerTuple, Instance, Relation, parse_order, parse_query
from cqrank.selection import conditional_value_counts

def raised(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc).__name__
    return None

q = bench_query()
runner = _Runner(q, generate_instance(GenConfig(20, "large", 1)), parse_order("lex: A,B,C,D", q), 10**6, 10**6)
wrong = AnswerTuple(q.head, (-1, -1, -1, -1))
tri = parse_query("Q(A,B,C) :- R(A,B), S(B,C), T(C,A).")
proj = parse_query("Q(A,C) :- R(A,B), S(B,C).")
db = Instance({n: Relation(n, ("X", "Y"), ((1, 1), (1, 2))) for n in "RST"})
print(json.dumps({
    "optimized": not __debug__,
    "verify": raised(lambda: runner.verify(0, wrong)),
    "triangle_reduce": raised(lambda: build_reduced_db(tri, db)),
    "triangle_counts": raised(lambda: conditional_value_counts(tri, db, {}, "A")),
    "projection_reduce": raised(lambda: build_reduced_db(proj, db)),
}))
'''


def test_checks_survive_python_O():
    """Correctness checks are explicit raises, so ``python -O`` keeps them."""
    env = dict(os.environ, PYTHONPATH=str(Path(cqrank.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == {
        "optimized": True,
        "verify": "AssertionError",
        "triangle_reduce": "NotRouted",
        "triangle_counts": "NotRouted",
        "projection_reduce": "NotRouted",
    }


def test_counting_tree_reuses_messages_whose_side_kept_its_rows(q3path, monkeypatch):
    from cqrank.analysis import SINGLE_LEX
    from cqrank.engine import CountingTree, atom_tree
    from cqrank.model import bound_atoms

    db = Instance({
        "R": Relation("R", ("A", "B"), ((1, 1), (2, 1), (2, 2))),
        "S": Relation("S", ("B", "C"), ((1, 5), (2, 5), (2, 6))),
        "T": Relation("T", ("C", "D"), ((5, 7), (6, 7), (6, 8))),
    })
    stats = Stats()
    ct = atom_tree(q3path, bound_atoms(q3path, db), SINGLE_LEX, stats)
    combined = []
    real = CountingTree._combine

    def spy(self, u, *args):
        combined.append(u)
        return real(self, u, *args)

    monkeypatch.setattr(CountingTree, "_combine", spy)
    R, S, T = 0, 1, 2
    assert ct.counts(S, ("C",)) == {5: 3, 6: 2}
    assert sorted(combined) == [R, S, T]
    assert stats.rows_touched == 9

    # fixing A narrows R only: T -> S is reused, R -> S is recounted
    combined.clear()
    ct.fix("A", 2)
    assert stats.rows_touched == 9 + 3
    assert ct.tables[R] == [(2, 1), (2, 2)]
    assert ct.counts(S, ("C",)) == {5: 2, 6: 2}
    assert sorted(combined) == [R, S]

    # fixing D narrows T only: R -> S is reused, T -> S is recounted
    combined.clear()
    ct.fix("D", 7)
    assert ct.counts(S, ("B",)) == {1: 1, 2: 2}
    assert sorted(combined) == [S, T]

    # fixes that drop no row keep every message: T -> S is reused
    combined.clear()
    ct.fix("D", 7)
    ct.fix("A", 2)
    assert ct.counts(R, ("B",)) == {1: 1, 2: 2}
    assert sorted(combined) == [R, S]


def _kernel_outputs(q, db, orders):
    """What the kernel hands out: reduced relations, tuple-keyed ``counts``
    at every node over every single variable, all its variables and none,
    and each routed order's index tables, sum blocks and anchor values."""
    from cqrank import engine
    from cqrank.analysis import SINGLE_SUM
    from cqrank.engine import atom_tree, sum_blocks
    from cqrank.model import bound_atoms

    out = {"reduced": [(a.vars, list(a.rows.items())) for a in build_reduced_db(q, db).atoms]}
    ct = atom_tree(q, bound_atoms(q, db), SINGLE_SUM)
    outs = [(v,) for vs in ct.vars for v in vs] + [tuple(dict.fromkeys(vs)) for vs in ct.vars] + [()]
    out["counts"] = [(u, w, list(engine._tupled(ct.counts(u, w), len(w)).items()))
                     for u, vs in enumerate(ct.vars) for w in outs if set(w) <= set(vs)]
    for o in orders:
        report = analyze(q, o)
        if not report.routing[DIRECT_LEX if o.kind == "lex" else DIRECT_SUM].ok:
            continue
        ix = build_index(q, db, o)
        if o.kind == "sum":
            prefix, blocks, rank = sum_blocks(q, atom_tree(q, bound_atoms(q, db), DIRECT_SUM), report)
            out[o, "sum"] = ((prefix, [(rank(p), p, w) for p, w in blocks]), ix.anchor_vals, ix.cums)
        out[o] = (ix.count, ix.vtree.nsets,
                  [[(nu, g.values, g.cums) for nu, g in gm.items()] for gm in ix.groups])
    return out


def _tuple_key_reference(monkeypatch, q, db, orders):
    """``_kernel_outputs`` with every join key a tuple: ``_key`` is ``_proj``,
    nothing is re-keyed, and ``_general_combine`` keys every row, so no leaf
    passes through."""
    from cqrank import engine

    with monkeypatch.context() as m:
        m.setattr(engine, "_key", engine._proj)
        m.setattr(engine, "_tupled", lambda keyed, width: keyed)
        m.setattr(engine.CountingTree, "_combine", _general_combine)
        return _kernel_outputs(q, db, orders)


def _assert_tuple_keyed(out):
    """Every key that leaves the kernel is a tuple over its variables."""
    assert all(type(k) is tuple and len(k) == len(vars_)
               for vars_, rows in out["reduced"] for k, _ in rows)
    assert all(type(k) is tuple and len(k) == len(w) for _, w, counts in out["counts"]
               for k, _ in counts)
    for key, val in out.items():
        if isinstance(key, tuple) and key[1:] == ("sum",):
            (prefix, items), anchor_vals, _ = val
            assert all(type(p) is tuple and len(p) == len(prefix)
                       for p in [p for _, p, _ in items] + anchor_vals)
        elif key not in ("reduced", "counts"):
            _, nsets, groups = val
            assert all(type(nu) is tuple and len(nu) == len(nsets[i])
                       for i, gm in enumerate(groups) for nu, *_ in gm)


class _CountedGets(dict):
    """A message that counts its ``get`` calls: the product stream makes one
    per row that reaches it."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_a_fix_prunes_the_rows_its_message_rules_out(q3path):
    """``lex: A,C,B,D`` counts C at S after ``fix("A", a)``. Only the S rows
    whose B occurs in R's narrowed rows reach S's product stream; the counts
    equal a brute force and the rows touched are those of the full pass."""
    from cqrank.analysis import SINGLE_LEX
    from cqrank.bench import GenConfig, generate_instance
    from cqrank.engine import atom_tree
    from cqrank.model import bound_atoms

    db = generate_instance(GenConfig(2000, "small", 3))
    rows_R, rows_S, rows_T = (db.relations[n].rows for n in "RST")
    R, S, T = 0, 1, 2
    for a in sorted({a for a, _ in rows_R})[::40]:
        stats = Stats()
        ct = atom_tree(q3path, bound_atoms(q3path, db), SINGLE_LEX, stats)
        ct.fix("A", a)
        narrowed = [r for r in rows_R if r[0] == a]
        bs = {b for _, b in narrowed}
        ct.message(T, S)  # T's message toward S is kept; swap in a counting copy
        flag, m = ct._cache[T, S]
        spy = _CountedGets(m)
        ct._cache[T, S] = (flag, spy)
        got = ct.counts(S, ("C",))

        brute = Counter(c for _, b in narrowed for b2, c in rows_S if b2 == b
                        for c2, _ in rows_T if c2 == c)
        assert got == dict(brute)
        assert 0 < spy.gets <= sum(b in bs for b, _ in rows_S) < len(rows_S)
        assert stats.rows_touched == len(rows_R) + len(narrowed) + len(rows_T) + len(rows_S)


def _side(tree, u, w):
    """The nodes on u's side of the edge (u, w), by a walk over the tree's
    parent links that never enters w."""
    adj = {x: set() for x in range(len(tree.parent))}
    for x, p in enumerate(tree.parent):
        if p is not None:
            adj[x].add(p)
            adj[p].add(x)
    seen, stack = {u, w}, [u]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return seen - {w}


def test_cached_messages_stay_exact_flagged_and_closed_under_inputs():
    """After each of a random run of ``fix`` and ``counts`` calls, every
    cached message equals the one a fresh tree over the current tables
    computes, its flag says whether its side holds a table that lost rows,
    and every message it was computed from is cached too."""
    from cqrank.analysis import SINGLE_LEX
    from cqrank.engine import CountingTree, atom_tree
    from cqrank.model import bound_atoms

    rng = random.Random(67)
    checked = dropped = 0
    for _ in range(150):
        q, _, db = random_acyclic_case(rng)
        bound = bound_atoms(q, db)
        ct = atom_tree(q, bound, SINGLE_LEX)
        n, adj = len(ct.vars), ct.tree.adjacent
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.4:
                var = rng.choice(sorted(q.variables))
                held = [r[ct.vars[u].index(var)] for u in range(n) if var in ct.vars[u]
                        for r in ct.tables[u]]
                before = len(ct._cache)
                ct.fix(var, rng.choice(held + [0, "a"]))
                dropped += len(ct._cache) < before
            else:
                root = rng.randrange(n)
                out = tuple(rng.sample(list(dict.fromkeys(ct.vars[root])), rng.randint(0, 1)))
                fresh = CountingTree(ct.vars, q.head, list(ct.tables), SINGLE_LEX)
                assert ct.counts(root, out) == fresh.counts(root, out), (q, db)
            narrowed = {u for u in range(n) if len(ct.tables[u]) < len(bound[u].rows)}
            assert ct.narrowed == narrowed
            fresh = CountingTree(ct.vars, q.head, list(ct.tables), SINGLE_LEX)
            for (u, w), (flag, m) in ct._cache.items():
                assert m == fresh.message(u, w), (q, db, u, w)
                assert flag == bool(narrowed & _side(ct.tree, u, w)), (q, db, u, w)
                assert all((c, u) in ct._cache for c in adj[u] if c != w), (q, db, u, w)
                checked += 1
    assert checked > 500 and dropped > 20


@pytest.mark.parametrize("text,orders", [
    ("Q(A) :- R(A).", ["lex: A"]),                      # a one-variable leaf is its own output
    ("Q(A) :- R(A,A).", ["lex: A", "sum: A"]),          # a repeated variable binds one
    ("Q(A) :- R(A,B), S(B).", ["lex: A", "sum: A"]),    # unary head; one-variable anchor prefix
    ("Q(A,B) :- R(A), S(A,B).", ["lex: A,B", "lex: B,A", "sum: A"]),
    ("Q(A,B) :- R(A,B), S(B).", ["lex: B,A", "sum: A,B"]),
    ("Q(A,B,C) :- R(A,B), S(B,C), T(C).", ["lex: A,B,C", "lex: C", "sum: B"]),
])
def test_bare_keys_match_the_tuple_key_reference(text, orders, monkeypatch):
    """Keying one-variable joins by the bare value changes no count, group or
    block, and every key that leaves the kernel is still a tuple."""
    q = parse_query(text)
    orders = [parse_order(o, q) for o in orders]
    rng = random.Random(91)
    for _ in range(12):
        db = random_instance(q, rng, rng.randint(0, 8), 3)
        want = _tuple_key_reference(monkeypatch, q, db, orders)
        got = _kernel_outputs(q, db, orders)
        assert got == want, db
        _assert_tuple_keyed(got)
        assert all(o in got for o in orders), "every order is routed"


def test_bare_keys_match_the_tuple_key_reference_on_random_acyclic_queries(monkeypatch):
    rng = random.Random(17)
    for _ in range(150):
        q, orders, db = random_acyclic_case(rng)
        if not analyze(q, orders[0]).free_connex:
            continue
        want = _tuple_key_reference(monkeypatch, q, db, orders)
        got = _kernel_outputs(q, db, orders)
        assert got == want, (q, orders, db)
        _assert_tuple_keyed(got)


def _row_loop_build_tables(q, rdb, order, stats):
    """``engine._build_tables`` as it was before the distinct (ν, v) pairs:
    one pass over every anchor row, skipping a (ν, v) pair already seen."""
    from collections import defaultdict
    from itertools import accumulate

    from cqrank.analysis import build_variable_tree
    from cqrank.engine import _Group, _key, _proj, _sort_values, _tupled

    vt = build_variable_tree(q, order)
    f = len(order)
    children = vt.children()
    groups, totals = [None] * f, [None] * f
    for i in reversed(range(f)):
        anchor = rdb.atoms[vt.anchor[i]]
        nu_of = _key(anchor.vars, vt.nsets[i])
        widx = anchor.vars.index(vt.order[i])
        settled = vt.anchor[i] in vt.assigned[i]
        lookups = [(_proj(anchor.vars, rdb.atoms[ai].vars), rdb.atoms[ai].rows)
                   for ai in vt.assigned[i] if ai != vt.anchor[i]]
        lookups += [(_key(anchor.vars, vt.nsets[c]), totals[c]) for c in children[i]]
        weights = defaultdict(dict)
        for r, w in anchor.rows.items():
            gv, v = weights[nu_of(r)], r[widx]
            if v in gv:
                continue
            g = w if settled else 1
            for key, m in lookups:
                g *= m.get(key(r), 0)
                if not g:
                    break
            if g:
                gv[v] = g
        gmap = {}
        for nu, gv in weights.items():
            values = _sort_values(gv, stats)
            if values:
                gmap[nu] = _Group(values, list(accumulate(map(gv.__getitem__, values))))
        groups[i] = _tupled(gmap, len(vt.nsets[i]))
        totals[i] = {nu: grp.cums[-1] for nu, grp in gmap.items()}
    count = 1
    for ai in vt.scalar_atoms:
        count *= rdb.atoms[ai].rows.get((), 0)
    for r in vt.roots():
        count *= totals[r].get((), 0)
    return vt, groups, count


def _tables_outcome(build, q, source, order):
    """A build's groups with their values and prefix sums, its count, and the
    comparisons a counted build of the same tables makes; ``source`` is what
    ``build`` reads (a head tree, or a reduced database)."""
    _, groups, count = build(q, source, order, None)
    stats = Stats()
    build(q, source, order, stats)
    return ([[(nu, g.values, g.cums) for nu, g in gm.items()] for gm in groups],
            count, stats.comparisons)


def _unsettled_anchors(q, order):
    """How many variables of ``order`` take their candidates from an anchor
    atom that has variables beyond ν ∪ {w_i}."""
    from cqrank.analysis import build_variable_tree

    vt = build_variable_tree(q, order)
    return sum(vt.anchor[i] not in vt.assigned[i] for i in range(len(order)))


def _assert_head_tree_tables_match_the_row_loop(cases):
    """Over ``cases``, candidate tables read off the head tree on demand equal
    the row-by-row loop's over the reduced relations ``build_reduced_db``
    reports: the same groups in the same order, the same values, prefix sums,
    count and counted comparisons. Returns how many unsettled anchors ran."""
    from cqrank import engine

    unsettled = 0
    for q, orders, db in cases:
        for o in orders:
            report = analyze(q, o)
            if not report.routing[DIRECT_LEX if o.kind == "lex" else DIRECT_SUM].ok:
                continue
            order = report.completed_order
            assert _tables_outcome(engine._build_tables, q, engine._reduce(q, db)[1], order) == \
                _tables_outcome(_row_loop_build_tables, q, build_reduced_db(q, db), order), (q, o, db)
            unsettled += _unsettled_anchors(q, order)
    return unsettled


def test_distinct_pair_tables_match_the_row_loop():
    """Candidate tables built from each anchor's distinct (ν, v) pairs equal
    the row-by-row loop's: the same groups, values, prefix sums, count and
    counted comparisons. Anchors not settled at their level run often."""
    from cqrank.analysis import build_variable_tree

    rng = random.Random(29)
    cases = [random_acyclic_case(rng) for _ in range(300)]
    # a partial order whose first variable's anchor is not settled there:
    # R(A,B) has several rows per value of A
    q = parse_query("Q(A,B) :- R(A,B), S(B,C).")
    lex_a = parse_order("lex: A", q)
    vt = build_variable_tree(q, analyze(q, lex_a).completed_order)
    assert vt.nsets[0] == () and vt.anchor[0] not in vt.assigned[0]
    cases += [(q, [lex_a], random_instance(q, rng, rng.randint(0, 40), 4)) for _ in range(20)]
    unsettled = _assert_head_tree_tables_match_the_row_loop(cases)
    assert unsettled >= 100, unsettled


def test_bag_groups_match_the_counted_relations(monkeypatch):
    """Candidate tables that split and count a head-tree leaf's bag per group
    equal the ones built from the counted relations (what
    ``build_reduced_db`` hands out): the same groups in the same order, the
    same values, prefix sums, count and counted comparisons. Each split mode
    runs often."""
    from cqrank import engine

    real, calls = engine._split, Counter()

    def spy(*args):
        calls[args[-1]] += 1
        return real(*args)

    monkeypatch.setattr(engine, "_split", spy)
    rng = random.Random(37)
    cases = [random_acyclic_case(rng) for _ in range(300)]
    q = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).")
    for d in (3, 40):  # groups that repeat values, and groups that do not
        cases.append((q, [parse_order("lex: A,B,C,D", q)], random_instance(q, rng, 60, d)))
    _assert_head_tree_tables_match_the_row_loop(cases)
    assert min(calls["count"], calls["row"], calls["one"]) >= 100, calls


def test_a_bench_build_sends_no_message_to_the_head_node(monkeypatch):
    """Each atom of the bench 3-path is a head-tree leaf, and under
    ``lex: A,B,C,D`` each is an anchor, so the build counts each bag per group
    and never its message to the head node; ``build_reduced_db`` asks for all
    three."""
    from cqrank.bench import GenConfig, bench_query, generate_instance
    from cqrank.engine import CountingTree, count_answers

    real, toward_head = CountingTree._combine, []

    def spy(self, u, out_vars, toward):
        if toward == len(self.tables):  # the head node follows the atoms
            toward_head.append(u)
        return real(self, u, out_vars, toward)

    monkeypatch.setattr(CountingTree, "_combine", spy)
    q = bench_query()
    db = generate_instance(GenConfig(300, "small", 1))
    assert build_index(q, db, parse_order("lex: A,B,C,D", q)).count == count_answers(q, db) > 0
    assert toward_head == []
    build_reduced_db(q, db)
    assert sorted(toward_head) == [0, 1, 2]

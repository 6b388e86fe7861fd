"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Everything is seeded and
deterministic except wall-clock measurements, whose tolerances are pinned
here exactly as stated.
"""

import builtins
import itertools
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from cqrank.analysis import analyze, complete_order
from cqrank.baseline import (
    emit_sql,
    materialize_and_sort,
    sort_before_join_access,
    topk_heap_access,
)
from cqrank.bench import GenConfig, bench_query, generate_instance
from cqrank.engine import build_index, preprocess_lex
from cqrank.errors import OutOfRange
from cqrank.instrument import Stats
from cqrank.model import Atom, Query, parse_order, parse_query
from cqrank.selection import select_lex, select_sum

from conftest import domain_for, head_adjacency, random_instance

SHAPES = (
    ("Q(A,B,C) :- R(A,B), S(B,C).", "lex: A,B,C", "sum: B,C"),
    ("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D).", "lex: A,B,C,D", "sum: C,D"),
    ("Q(A,B,C,D) :- R(A,B), S(A,C), T(A,D).", "lex: A,B,C,D", "sum: A,C"),
)

N_INSTANCES = 200
MAX_ANSWERS = 600  # keeps the exhaustive every-k sweeps inside the time budget


def _report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {name} failed: {detail}"


def _instances(order_pick):
    """Deterministic stream of (query, order, db) triples across the shapes."""
    out = []
    seed = 0
    while len(out) < N_INSTANCES:
        seed += 1
        rng = random.Random(seed)
        shape, lex_text, sum_text = SHAPES[seed % len(SHAPES)]
        q = parse_query(shape)
        n = rng.randint(4, 32)
        join_size = "large" if seed % 2 else "small"
        db = random_instance(q, rng, n, domain_for(n, join_size))
        o = parse_order(order_pick(lex_text, sum_text, seed), q)
        report = analyze(q, o)
        ix = build_index(q, db, o)
        if ix.count > MAX_ANSWERS:
            continue
        oracle = materialize_and_sort(q, db, o)
        out.append((q, o, db, report, ix, oracle))
    return out


@pytest.fixture(scope="module")
def lex_suite():
    def pick(lex_text, _sum_text, seed):
        return "lex: B" if seed % 3 == 0 else lex_text

    return _instances(pick)


@pytest.fixture(scope="module")
def sum_suite():
    return _instances(lambda _lex, sum_text, _seed: sum_text)


def test_criterion_1_oracle_equivalence_exhaustive(lex_suite):
    t0 = time.perf_counter()
    checked = 0
    for q, o, db, report, ix, oracle in lex_suite:
        assert ix.count == len(oracle)
        for k in range(len(oracle)):
            expected = oracle[k]
            assert ix.access(k) == expected, (q.name, o, k, "direct")
            assert select_lex(q, db, o, k, seed=k, report=report) == expected, (o, k, "select")
            heap_ans, _ = topk_heap_access(q, db, o, k)
            assert heap_ans == expected, (o, k, "heap")
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "1 (oracle equivalence, exhaustive)",
        elapsed < 300,
        f"{len(lex_suite)} instances, {checked} positions x 3 methods, {elapsed:.1f}s",
    )


def test_criterion_2_sum_order_equivalence(sum_suite):
    t0 = time.perf_counter()
    checked = 0
    for q, o, db, report, ix, oracle in sum_suite:
        assert ix.count == len(oracle)
        for k in range(len(oracle)):
            expected = oracle[k]
            assert ix.access(k) == expected, (o, k, "direct_sum")
            assert select_sum(q, db, o, k, seed=k, report=report) == expected, (o, k, "select_sum")
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "2 (sum-order equivalence)",
        elapsed < 300,
        f"{len(sum_suite)} instances, {checked} positions x 2 methods, {elapsed:.1f}s",
    )


def test_criterion_3_analyzer_fidelity():
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    r = analyze(q, parse_order("lex: A,B,C", q))
    assert r.routing["DirectLex"].ok

    r = analyze(q, parse_order("lex: A,C,B", q))
    assert not r.routing["DirectLex"].ok
    assert r.trio == ("A", "C", "B")
    assert r.routing["SingleLex"].ok

    qp = parse_query("Qp(A,C) :- R(A,B), S(B,C).")
    r = analyze(qp, parse_order("lex: A,C", qp))
    assert r.acyclic and not r.free_connex
    assert not r.routing["DirectLex"].ok and not r.routing["SingleLex"].ok

    qt = parse_query("Q(A,B,C) :- R(A,B), S(B,C), T(A,C).")
    r = analyze(qt, parse_order("lex: A,B,C", qt))
    assert not r.acyclic
    _report("3 (analyzer fidelity)", True, "4/4 exact verdicts")


def _brute_trio_free(order, adj):
    for i1 in range(len(order)):
        for i2 in range(i1 + 1, len(order)):
            if order[i2] in adj[order[i1]]:
                continue
            for i3 in range(i2 + 1, len(order)):
                if order[i1] in adj[order[i3]] and order[i2] in adj[order[i3]]:
                    return False
    return True


def test_criterion_4_completion_brute_force():
    rng = random.Random(2024)
    cases = 0
    while cases < 1000:
        nv = rng.randint(3, 6)
        head = tuple(f"V{i}" for i in range(nv))
        atoms = []
        for i in range(rng.randint(1, 4)):
            atoms.append(Atom(f"R{i}", tuple(rng.sample(head, rng.randint(1, 3)))))
        covered = {v for a in atoms for v in a.vars}
        missing = tuple(v for v in head if v not in covered)
        if missing:
            atoms.append(Atom("Rx", missing))
        q = Query("Q", head, tuple(atoms))
        prefix = tuple(rng.sample(head, rng.randint(0, nv)))
        got = complete_order(q, prefix)
        adj = head_adjacency(q)
        rest = [v for v in head if v not in set(prefix)]
        exists = any(
            _brute_trio_free(list(prefix) + list(p), adj)
            for p in itertools.permutations(rest)
        )
        assert (got is not None) == exists, (q, prefix)
        if got is not None:
            assert got[: len(prefix)] == prefix and _brute_trio_free(list(got), adj)
        cases += 1
    _report("4 (completion vs brute force)", True, f"{cases} random queries")


def test_criterion_5a_probe_bound():
    q = bench_query()
    db = generate_instance(GenConfig(5000, "large", seed=5))
    o = parse_order("lex: A,B,C,D", q)
    ix = preprocess_lex(q, db, analyze(q, o))
    f = len(q.head)
    n = ix.max_group_size
    bound = f * (math.ceil(math.log2(n + 1)) + 2)
    worst = 0
    for k in range(0, ix.count, max(1, ix.count // 500)):
        st = Stats()
        ix.access(k, st)
        worst = max(worst, st.probes)
        assert st.probes <= bound, (k, st.probes, bound)
    _report("5a (probe bound)", True, f"max probes {worst} <= {bound}")


def test_criterion_5b_quasilinear_preprocessing():
    q = bench_query()
    o = parse_order("lex: A,B,C,D", q)
    counts = {}
    for n in (10_000, 40_000):
        db = generate_instance(GenConfig(n, "large", seed=11))
        ix = preprocess_lex(q, db, analyze(q, o), count_comparisons=True)
        counts[n] = ix.build_stats.comparisons
    ratio = counts[40_000] / counts[10_000]
    _report(
        "5b (quasilinear growth)",
        0 < ratio <= 6.0,
        f"comparisons {counts[10_000]} -> {counts[40_000]}, ratio {ratio:.2f} <= 6",
    )


def test_criterion_5c_selection_work(monkeypatch):
    q = bench_query()
    db = generate_instance(GenConfig(2000, "large", seed=13))
    o = parse_order("lex: A,B,C,D", q)
    report = analyze(q, o)
    count = preprocess_lex(q, db, report).count

    src = Path(__import__("cqrank.selection", fromlist=["x"]).__file__).read_text()
    assert "sorted(" not in src and ".sort(" not in src

    calls = []
    real = builtins.sorted
    monkeypatch.setattr(builtins, "sorted", lambda *a, **k: (calls.append(a), real(*a, **k))[1])
    n_total = sum(len(r.rows) for r in db.relations.values())
    f = len(q.head)
    worst = 0
    for k in (0, count // 3, count - 1):
        st = Stats()
        select_lex(q, db, o, k, seed=1, stats=st, report=report)
        assert st.rows_touched <= 8 * f * n_total, st.rows_touched
        worst = max(worst, st.rows_touched)
    assert calls == []
    _report(
        "5c (selection: zero sorts, linear work)",
        True,
        f"max rows touched {worst} <= {8 * f * n_total}",
    )


def test_criterion_6_count_property(lex_suite):
    for q, o, db, report, ix, oracle in lex_suite:
        assert ix.count == len(oracle)
        with pytest.raises(OutOfRange):
            ix.access(ix.count)
        if ix.count > 0:
            ix.access(ix.count - 1)
    _report("6 (count property)", True, f"{len(lex_suite)} instances")


def test_criterion_7_da_vs_sa_ratio_desk_scale():
    q = bench_query()
    o = parse_order("lex: A,B,C,D", q)
    report = analyze(q, o)
    # interpreter warm-up, discarded
    warm_db = generate_instance(GenConfig(1000, "large", seed=0))
    preprocess_lex(q, warm_db, report).access(0)
    select_lex(q, warm_db, o, 0, seed=0, report=report)

    t_total0 = time.perf_counter()
    ratios, samples = {}, []
    for js in ("large", "small"):
        db = generate_instance(GenConfig(100_000, js, seed=1))
        da, sa = [], []
        for _ in range(3):  # medians of 3 samples: one sample can swing by a third
            t0 = time.perf_counter()
            ix = preprocess_lex(q, db, report)
            k = (ix.count - 1) // 2
            ix.access(k)
            da.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            ans = select_lex(q, db, o, k, seed=0, report=report)
            sa.append(time.perf_counter() - t0)
            assert ans == ix.access(k)  # same tuple even when too big to verify fully
        ratios[js] = statistics.median(da) / statistics.median(sa)
        samples.append(f"{js}: da {'/'.join(f'{t:.3f}' for t in da)} s,"
                       f" sa {'/'.join(f'{t:.3f}' for t in sa)} s")
    total = time.perf_counter() - t_total0
    ok = total < 60 and all(0.5 <= r <= 5.0 for r in ratios.values())
    _report(
        "7 (DA/SA ratio at n=1e5)",
        ok,
        f"median ratios {ratios['large']:.2f} (large), {ratios['small']:.2f} (small) in [0.5, 5.0];"
        f" samples {'; '.join(samples)}; {total:.1f}s < 60s",
    )


def test_criterion_8_baseline_behavior():
    q = bench_query()
    o = parse_order("lex: A,B,C,D", q)
    small = generate_instance(GenConfig(12, "small", seed=3))
    count = preprocess_lex(q, small, analyze(q, o)).count
    assert count > 2
    for k in range(count):
        _, log = topk_heap_access(q, small, o, k)
        assert log.switched == (2 * k >= count), k

    large = generate_instance(GenConfig(1000, "large", seed=9))
    ob = parse_order("lex: B", q)
    total = preprocess_lex(q, large, analyze(q, o)).count
    _, slog = sort_before_join_access(q, large, ob, 0)
    assert slog.emitted <= slog.block_size
    assert slog.emitted * 10 < total
    _report(
        "8 (baseline behavior)",
        True,
        f"heap switch exact for all k in [0,{count}); early stop {slog.emitted} of {total}",
    )


def test_criterion_9_sql_goldens():
    golden = Path(__file__).parent / "golden"
    q = parse_query("Q(A,B,C) :- R(A,B), S(B,C).")
    o = parse_order("lex: A,B,C", q)
    off = emit_sql(q, o, [2], "offset")
    cte = emit_sql(q, o, [0, 1, 2], "cte")
    ok = (
        off == (golden / "two_path_offset.sql").read_text()
        and cte == (golden / "two_path_cte.sql").read_text()
    )
    _report("9 (SQL goldens byte-for-byte)", ok)

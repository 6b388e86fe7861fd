"""Every machine-independent counter repeats exactly.

The numbers below are pinned on the bench query over one generated instance,
so a change that moves a counter (or makes one depend on hashing order) shows
here before it shows in a benchmark trace. One ``Stats`` per entry point.
"""

import pytest

from cqrank.analysis import analyze
from cqrank.bench import GenConfig, bench_query, generate_instance
from cqrank.engine import preprocess_lex, preprocess_sum
from cqrank.errors import OutOfRange
from cqrank.instrument import Stats
from cqrank.model import parse_order
from cqrank.selection import select_lex, select_sum

COUNT = 301_066


@pytest.fixture(scope="module")
def bench_db():
    return generate_instance(GenConfig(3000, "small", 7))


@pytest.mark.parametrize("text,comparisons,probes,rows_touched", [
    ("lex: A,B,C,D", 22_858, 77, 72_256),
    ("sum: A,B", 52_889, 76, 72_218),
])
def test_counters_repeat_exactly(bench_db, text, comparisons, probes, rows_touched):
    q = bench_query()
    o = parse_order(text, q)
    report = analyze(q, o)
    preprocess, select = (preprocess_lex, select_lex) if o.kind == "lex" else (preprocess_sum, select_sum)
    ix = preprocess(q, bench_db, report, count_comparisons=True)
    assert ix.count == COUNT
    ks = [0, COUNT // 3, COUNT // 2, COUNT - 1]
    access_stats, select_stats = Stats(), Stats()
    accessed = [ix.access(k, access_stats) for k in ks]
    selected = [select(q, bench_db, o, k, seed=k, stats=select_stats, report=report) for k in ks]
    assert selected == accessed
    assert (ix.build_stats.comparisons, access_stats.probes, select_stats.rows_touched) == \
        (comparisons, probes, rows_touched)


def test_trio_selection_rows_touched_repeat_exactly(bench_db):
    q = bench_query()
    o = parse_order("lex: A,C,B,D", q)  # a disruptive trio: selection only
    stats = Stats()
    for k in (0, 1000, 5000):
        select_lex(q, bench_db, o, k, seed=k, stats=stats)
    assert stats.rows_touched == 63_282


@pytest.mark.parametrize("text", ["lex: A,B,C,D", "sum: A,B"])
@pytest.mark.parametrize("k", [-1, COUNT])
def test_out_of_range_names_k_and_the_answer_count(bench_db, text, k):
    q = bench_query()
    o = parse_order(text, q)
    report = analyze(q, o)
    preprocess, select = (preprocess_lex, select_lex) if o.kind == "lex" else (preprocess_sum, select_sum)
    ix = preprocess(q, bench_db, report)
    for call in (lambda: select(q, bench_db, o, k, seed=0, report=report), lambda: ix.access(k)):
        with pytest.raises(OutOfRange) as info:
            call()
        assert (info.value.k, info.value.count) == (k, COUNT)
